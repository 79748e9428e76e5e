// In-memory span recorder for the traced run.
//
// Spans are opened and closed by the benchmark's own code around each call
// into a layer (nothing inside src/ is instrumented).  Each span records a
// name, start, end, its parent span and, for per-packet spans, the packet's
// job id.  Spans measured elsewhere — a farm outcome's queue wait and
// decode time — are added with explicit bounds under the span that caused
// them.  The recorder is single-threaded: only the benchmark's driving
// thread touches it.  Spans are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNone = 0;  ///< "no parent" / disabled id
  static constexpr std::uint64_t kNoJob = ~0ull;

  struct Span {
    std::uint32_t id = kNone;  ///< 1-based index into spans()
    std::uint32_t parent = kNone;
    std::uint64_t job = kNoJob;
    std::string name;
    double startUs = 0;
    double endUs = 0;
    double durationUs() const { return endUs - startUs; }
  };

  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Microseconds since the recorder was constructed.
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Opens a span as a child of the innermost open span.  Returns kNone
  /// when disabled.
  std::uint32_t open(std::string name, std::uint64_t job = kNoJob);
  /// Closes `id`, which must be the innermost open span.
  void close(std::uint32_t id);
  /// Records a span measured elsewhere, under `parent`.
  std::uint32_t add(std::string name, std::uint32_t parent, std::uint64_t job,
                    double startUs, double endUs);
  /// The innermost open span (kNone when none is open).
  std::uint32_t current() const {
    return stack_.empty() ? kNone : stack_.back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  const Span& span(std::uint32_t id) const { return spans_[id - 1]; }

  /// Durations (µs) of every span called `name`.
  std::vector<double> durationsUs(std::string_view name) const;
  /// Span duration minus the part of it its children cover (children's
  /// intervals are clipped to the span and merged before subtracting).
  double selfTimeUs(std::uint32_t id) const;
  /// Checks every span closed with end >= start, every child inside its
  /// parent's interval and every self time >= 0.  On failure describes the
  /// first violation in `why`.
  bool checkNesting(std::string* why) const;

  /// Writes every span as JSON ({"fingerprint": ..., "spans": [...]}) with
  /// each span's self time.
  bool writeJson(const std::string& path, const std::string& fingerprintJson) const;

 private:
  /// children[id] = ids of the spans whose parent is `id` (0 = roots).
  std::vector<std::vector<std::uint32_t>> childIndex() const;
  double selfTimeUs(std::uint32_t id,
                    const std::vector<std::vector<std::uint32_t>>& children) const;

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name,
             std::uint64_t job = SpanRecorder::kNoJob)
      : rec_(rec), id_(rec.open(std::move(name), job)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::uint32_t id_;
};

}  // namespace perfbench
