// Host speed probe: a thread that runs a fixed kernel of the benchmark's
// own in short bursts and keeps the run times, so that host-time figures
// can be scaled to one reference host speed.
//
// The guest's speed moves with the load of other tenants on the host, for
// every busy thread of a process together, second by second and over
// minutes.  On the tuning guest a quiet and a busy spell differed 2.3-2.6x
// in single-session decode time, and every layer moved alike (scheduler
// 1.9x, native CGA kernels 2.2-2.7x, trial generation 2.3x): the code ran
// slower, it was not descheduled.  What moves with it is code that issues
// many independent operations per cycle: over one busy minute a kernel of
// eight independent multiply chains and one of int16 butterflies co-varied
// with the decode time (r = 0.89 and 0.73 over ten 4 s samples), while a
// latency-bound chain hardly moved (1.5x across the spells).  So the probe
// runs fixed-point FFT butterflies, the modem's own arithmetic.  Over a
// window,
//
//   slowdown = median probe run time in the window / kProbeRefMs
//
// is 1 at the reference speed and 2 at half of it; pass rates are
// multiplied by it and set-up and decode times divided by it.  A median
// of short runs reads the speed while running: a stall (the probe or a
// worker descheduled) lengthens few runs.  The probe idles between bursts,
// so with the submitting thread and two farm workers busy it does not
// crowd them off the four vCPUs; a steadily busy probe did, and then read
// its own stalls as host slowdowns.  It under-reads a busy spell (about
// 1.7x where the decoder slows 2.3x), so scaling shrinks host swings
// without removing them.  The probe does not depend on the simulator, so a
// change to src/ moves scaled figures as it moves wall figures.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace perfbench {

/// Work of one probe run, in kernel rounds (about 0.1 ms).
inline constexpr int kProbeRounds = 3;
/// Runs per burst; the first, which warms the caches, is not kept.
inline constexpr int kProbeBurst = 5;
/// Idle time after each burst (the probe is busy about 30% of the time).
inline constexpr double kProbeIdleMs = 1.0;
/// Wall time of one probe run at the reference speed, a round figure near
/// its run time in quiet spells of the 4-vCPU KVM Xeon guest the benchmark
/// was tuned on (gcc 12.2, Release).  Only the unit of scaled figures.
inline constexpr double kProbeRefMs = 0.08;

/// One probe run of `rounds` rounds; returns a checksum of the work.
std::uint64_t probeKernel(std::uint64_t seed, int rounds);

class SpeedProbe {
 public:
  using Clock = std::chrono::steady_clock;

  /// A reading to measure a window from.
  struct Mark {
    Clock::time_point at;
    std::uint64_t runs;  ///< runs kept so far
  };

  /// Starts the probe thread.
  SpeedProbe();
  /// Stops the probe thread and waits for it to end.
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  Mark mark() const;
  /// Slowdown from `from` to now; 1 when the probe kept no run in the
  /// window.  The median is taken over the last kRing / 2 runs kept (about
  /// 10 s) when the window holds more.
  double slowdownSince(const Mark& from) const;

  static constexpr std::size_t kRing = 1 << 16;  ///< run times kept

 private:
  void loop();

  std::array<std::atomic<float>, kRing> runMs_{};  ///< by run number % kRing
  std::atomic<std::uint64_t> runs_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> checksum_{0};
  std::thread thread_;
};

}  // namespace perfbench
