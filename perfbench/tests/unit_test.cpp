// Unit tests of the benchmark's own helpers: percentiles, histogram
// quantiles, span self time and nesting, and the host speed probe.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "obs/histogram.hpp"
#include "probe.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesLikeNumpyDefault) {
  const std::vector<double> v = {4, 1, 3, 2};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, P99OfAThousandSamplesLeavesTenAbove) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const double p99 = percentile(v, 0.99);
  EXPECT_NEAR(p99, 990.01, 1e-9);
  int above = 0;
  for (double x : v) above += x > p99 ? 1 : 0;
  EXPECT_EQ(above, 10);
}

TEST(Percentile, BlockedTailIgnoresABurstInOneBlock) {
  std::vector<double> v(3000, 1.0);
  for (int i = 0; i < 200; ++i) v[static_cast<std::size_t>(i)] = 50.0;  // burst in block 0
  EXPECT_GT(percentile(v, 0.95), 40.0);
  EXPECT_DOUBLE_EQ(blockedPercentile(v, 0.95, 1000), 1.0);
  // Fewer samples than one block: the plain percentile.
  const std::vector<double> few = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(blockedPercentile(few, 0.5, 1000), percentile(few, 0.5));
}

TEST(HistogramQuantile, StaysInsideTheBucketAndMovesWithRank) {
  adres::obs::LogLinearHistogram h;
  for (int i = 0; i < 100; ++i) h.record(1000 + static_cast<adres::u64>(i));
  const auto snap = h.snapshot();
  const double q10 = interpolatedQuantile(snap, 0.1);
  const double q90 = interpolatedQuantile(snap, 0.9);
  EXPECT_GE(q10, 900.0);
  EXPECT_LE(q90, 1200.0);
  EXPECT_LT(q10, q90);
  EXPECT_DOUBLE_EQ(interpolatedQuantile({}, 0.5), 0.0);
}

TEST(HistogramQuantile, DeltaDropsEarlierSamples) {
  adres::obs::LogLinearHistogram h;
  for (int i = 0; i < 50; ++i) h.record(10);
  const auto before = h.snapshot();
  for (int i = 0; i < 50; ++i) h.record(100000);
  const auto d = histogramDelta(before, h.snapshot());
  EXPECT_EQ(d.count, 50u);
  EXPECT_EQ(d.sum, 50u * 100000u);
  EXPECT_GT(interpolatedQuantile(d, 0.01), 90000.0);
}

TEST(Spans, SelfTimeSubtractsMergedChildCoverage) {
  SpanRecorder rec;
  const auto p = rec.add("parent", SpanRecorder::kNone, SpanRecorder::kNoJob, 0, 100);
  rec.add("a", p, 1, 10, 40);
  rec.add("b", p, 2, 30, 50);   // overlaps a: union [10, 50)
  rec.add("c", p, 3, 90, 120);  // clipped to the parent: [90, 100)
  EXPECT_DOUBLE_EQ(rec.selfTimeUs(p), 100.0 - 40.0 - 10.0);
  EXPECT_DOUBLE_EQ(rec.selfTimeUs(p + 1), 30.0);  // leaf: its whole duration
}

TEST(Spans, ScopedSpansNestAndCloseInOrder) {
  SpanRecorder rec;
  {
    ScopedSpan outer(rec, "outer");
    ScopedSpan inner(rec, "inner", 7);
    EXPECT_EQ(rec.span(inner.id()).parent, outer.id());
    EXPECT_EQ(rec.current(), inner.id());
  }
  EXPECT_EQ(rec.current(), SpanRecorder::kNone);
  std::string why;
  EXPECT_TRUE(rec.checkNesting(&why)) << why;
  EXPECT_EQ(rec.durationsUs("inner").size(), 1u);
  EXPECT_GE(rec.selfTimeUs(1), 0.0);
}

TEST(Spans, NestingCheckRejectsAChildOutsideItsParent) {
  SpanRecorder rec;
  const auto p = rec.add("parent", SpanRecorder::kNone, SpanRecorder::kNoJob, 0, 100);
  rec.add("late", p, 1, 90, 1000);
  std::string why;
  EXPECT_FALSE(rec.checkNesting(&why));
  EXPECT_NE(why.find("outside its parent"), std::string::npos);
}

TEST(Spans, DisabledRecorderRecordsNothing) {
  SpanRecorder rec(false);
  {
    ScopedSpan s(rec, "x");
    EXPECT_EQ(s.id(), SpanRecorder::kNone);
  }
  EXPECT_EQ(rec.add("y", 0, 0, 0, 1), SpanRecorder::kNone);
  EXPECT_TRUE(rec.spans().empty());
}

TEST(SpeedProbe, KernelIsAPureFunctionOfItsSeed) {
  EXPECT_EQ(probeKernel(7, 3), probeKernel(7, 3));
  EXPECT_NE(probeKernel(7, 3), probeKernel(8, 3));
}

TEST(SpeedProbe, KeepsRunsAndReadsASlowdownOverAWindow) {
  SpeedProbe probe;
  const SpeedProbe::Mark start = probe.mark();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_GT(probe.mark().runs, start.runs);
  const double s = probe.slowdownSince(start);
  EXPECT_TRUE(std::isfinite(s) && s > 0);
}

}  // namespace
}  // namespace perfbench
