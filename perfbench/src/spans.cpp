#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

std::uint32_t SpanRecorder::open(std::string name, std::uint64_t job) {
  if (!enabled_) return kNone;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = current();
  s.job = job;
  s.name = std::move(name);
  s.startUs = nowUs();
  s.endUs = -1;  // open
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::close(std::uint32_t id) {
  if (id == kNone) return;
  spans_[id - 1].endUs = nowUs();
  // Closing out of order would corrupt parentage; ScopedSpan guarantees
  // LIFO, so only the innermost span can be closed.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::uint32_t SpanRecorder::add(std::string name, std::uint32_t parent,
                                std::uint64_t job, double startUs,
                                double endUs) {
  if (!enabled_) return kNone;
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.job = job;
  s.name = std::move(name);
  s.startUs = startUs;
  s.endUs = endUs;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<double> SpanRecorder::durationsUs(std::string_view name) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back(s.durationUs());
  return out;
}

std::vector<std::vector<std::uint32_t>> SpanRecorder::childIndex() const {
  std::vector<std::vector<std::uint32_t>> kids(spans_.size() + 1);
  for (const Span& s : spans_) kids[s.parent].push_back(s.id);
  return kids;
}

double SpanRecorder::selfTimeUs(std::uint32_t id) const {
  return selfTimeUs(id, childIndex());
}

double SpanRecorder::selfTimeUs(
    std::uint32_t id,
    const std::vector<std::vector<std::uint32_t>>& children) const {
  const Span& p = span(id);
  std::vector<std::pair<double, double>> kids;
  for (const std::uint32_t c : children[id]) {
    const Span& s = span(c);
    const double lo = std::max(s.startUs, p.startUs);
    const double hi = std::min(s.endUs, p.endUs);
    if (hi > lo) kids.emplace_back(lo, hi);
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, runLo = 0.0, runHi = -1.0;
  for (const auto& [lo, hi] : kids) {
    if (lo > runHi) {
      if (runHi > runLo) covered += runHi - runLo;
      runLo = lo;
      runHi = hi;
    } else {
      runHi = std::max(runHi, hi);
    }
  }
  if (runHi > runLo) covered += runHi - runLo;
  return p.durationUs() - covered;
}

bool SpanRecorder::checkNesting(std::string* why) const {
  // Child bounds come from two clocks (the benchmark's and the farm's),
  // read microseconds apart; allow that much slack.
  constexpr double kSlackUs = 50.0;
  auto fail = [why](const Span& s, const char* what) {
    if (why) *why = "span " + std::to_string(s.id) + " (" + s.name + "): " + what;
    return false;
  };
  const auto children = childIndex();
  for (const Span& s : spans_) {
    if (s.endUs < s.startUs) return fail(s, "not closed or ends before it starts");
    if (s.parent != kNone) {
      const Span& p = span(s.parent);
      if (s.startUs < p.startUs - kSlackUs || s.endUs > p.endUs + kSlackUs)
        return fail(s, "lies outside its parent");
    }
    if (selfTimeUs(s.id, children) < -1e-6) return fail(s, "negative self time");
  }
  return true;
}

bool SpanRecorder::writeJson(const std::string& path,
                             const std::string& fingerprintJson) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"schema\": \"perfbench.spans.v1\", \"fingerprint\": "
     << fingerprintJson << ", \"spans\": [";
  char buf[64];
  const auto children = childIndex();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"job\": ";
    if (s.job == kNoJob)
      os << "null";
    else
      os << s.job;
    os << ", \"name\": \"" << s.name << "\"";
    std::snprintf(buf, sizeof buf, "%.3f", s.startUs);
    os << ", \"start_us\": " << buf;
    std::snprintf(buf, sizeof buf, "%.3f", s.endUs);
    os << ", \"end_us\": " << buf;
    std::snprintf(buf, sizeof buf, "%.3f", selfTimeUs(s.id, children));
    os << ", \"self_us\": " << buf << "}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
