#include "probe.hpp"

#include <algorithm>
#include <array>
#include <vector>

namespace perfbench {

std::uint64_t probeKernel(std::uint64_t seed, int rounds) {
  // Radix-2 fixed-point complex butterflies over 2048 int16 samples with
  // saturation, stage by stage as in an FFT: many independent operations
  // per cycle, in 16 KiB of data.
  constexpr int kN = 2048;
  alignas(64) std::array<std::int16_t, kN> re, im, twRe, twIm;
  for (int i = 0; i < kN; ++i) {
    re[i] = static_cast<std::int16_t>(seed * static_cast<unsigned>(i + 3));
    im[i] = static_cast<std::int16_t>(seed * static_cast<unsigned>(i + 5) >> 3);
    twRe[i] = static_cast<std::int16_t>(i * 37);
    twIm[i] = static_cast<std::int16_t>(i * 91);
  }
  const auto sat = [](std::int32_t v) {
    return static_cast<std::int16_t>(std::clamp(v, -32768, 32767));
  };
  for (int r = 0; r < rounds; ++r)
    for (int half = kN / 2; half >= 1; half /= 2)
      for (int i = 0; i < kN; i += 2 * half)
        for (int k = 0; k < half; ++k) {
          const int a = i + k, b = a + half;
          const std::int32_t pr = (re[b] * twRe[k] - im[b] * twIm[k]) >> 15;
          const std::int32_t pi = (re[b] * twIm[k] + im[b] * twRe[k]) >> 15;
          const std::int32_t ur = re[a], ui = im[a];
          re[a] = sat(ur + pr);
          im[a] = sat(ui + pi);
          re[b] = sat(ur - pr);
          im[b] = sat(ui - pi);
        }
  std::uint64_t sum = 0;
  for (int i = 0; i < kN; i += 64) sum = sum * 31 + static_cast<std::uint16_t>(re[i]);
  return sum;
}

SpeedProbe::SpeedProbe() : thread_([this] { loop(); }) {}

SpeedProbe::~SpeedProbe() {
  stop_.store(true);
  thread_.join();
}

void SpeedProbe::loop() {
  std::uint64_t sink = 0;
  std::uint64_t n = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    for (int i = 0; i < kProbeBurst; ++i) {
      const auto t0 = Clock::now();
      sink += probeKernel(sink + 1, kProbeRounds);
      if (i == 0) continue;
      const std::chrono::duration<float, std::milli> ms = Clock::now() - t0;
      runMs_[n % kRing].store(ms.count(), std::memory_order_relaxed);
      runs_.store(++n, std::memory_order_release);
    }
    std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kProbeIdleMs));
  }
  checksum_.store(sink);  // keeps the kernel's work observable
}

SpeedProbe::Mark SpeedProbe::mark() const {
  return {Clock::now(), runs_.load(std::memory_order_acquire)};
}

double SpeedProbe::slowdownSince(const Mark& from) const {
  const Mark now = mark();
  const std::uint64_t runs = now.runs - from.runs;
  if (runs == 0) return 1.0;
  std::vector<float> times;
  for (std::uint64_t n = now.runs - std::min<std::uint64_t>(runs, kRing / 2); n < now.runs;
       ++n)
    times.push_back(runMs_[n % kRing].load(std::memory_order_relaxed));
  const auto mid = times.begin() + static_cast<std::ptrdiff_t>(times.size() / 2);
  std::nth_element(times.begin(), mid, times.end());
  return *mid / kProbeRefMs;
}

}  // namespace perfbench
