// Order statistics shared by every workload: percentiles over raw samples
// and rank-interpolated quantiles over a farm's log-linear histogram.
#pragma once

#include <algorithm>
#include <vector>

#include "obs/histogram.hpp"

namespace perfbench {

/// Linear-interpolation percentile (the "type 7" estimator NumPy and
/// Python's statistics module default to), q in [0, 1].  0 on no samples.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Tail percentile robust to host-noise bursts: the samples (in the order
/// they were taken) are cut into consecutive blocks of at least `minBlock`,
/// and the result is the median of the blocks' own q-percentiles.
inline double blockedPercentile(const std::vector<double>& v, double q,
                                std::size_t minBlock) {
  const std::size_t blocks = std::max<std::size_t>(1, v.size() / minBlock);
  std::vector<double> perBlock;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(b * v.size() / blocks);
    const auto last = v.begin() + static_cast<std::ptrdiff_t>((b + 1) * v.size() / blocks);
    perBlock.push_back(percentile(std::vector<double>(first, last), q));
  }
  return median(perBlock);
}

/// Decodes per block of blockedPercentile for the reported p95 (each block's
/// p95 has 50 samples beyond it).
inline constexpr std::size_t kTailBlock = 1000;

/// Samples recorded in `after` but not in `before` (both snapshots of one
/// monotonically growing histogram), so a timed phase can exclude warm-up.
inline adres::obs::HistogramSnapshot histogramDelta(
    const adres::obs::HistogramSnapshot& before,
    const adres::obs::HistogramSnapshot& after) {
  adres::obs::HistogramSnapshot d = after;
  d.count -= before.count;
  d.sum -= before.sum;
  for (std::size_t i = 0; i < before.buckets.size() && i < d.buckets.size(); ++i)
    d.buckets[i] -= before.buckets[i];
  return d;
}

/// Quantile of a log-linear histogram, interpolated by rank inside the
/// bucket that holds it.  HistogramSnapshot::quantile returns the bucket
/// midpoint, which repeats exactly between runs whenever the quantile stays
/// in one bucket; interpolation keeps the estimate continuous (error still
/// bounded by one bucket, <= 6.25% relative).
inline double interpolatedQuantile(const adres::obs::HistogramSnapshot& h,
                                   double q) {
  using adres::obs::LogLinearHistogram;
  if (h.count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(h.count - 1);  // 0-based
  double below = 0.0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    const double n = static_cast<double>(h.buckets[i]);
    if (n > 0 && below + n > rank) {
      const double lo = static_cast<double>(LogLinearHistogram::bucketLo(i));
      const double hi = static_cast<double>(LogLinearHistogram::bucketHi(i));
      const double frac = (rank - below + 0.5) / n;
      return lo + frac * (hi - lo);
    }
    below += n;
  }
  return static_cast<double>(h.max);
}

}  // namespace perfbench
