#include "obs/slo.hpp"

#include <cctype>
#include <limits>
#include <sstream>

#include "common/check.hpp"
#include "common/json_write.hpp"

namespace adres::obs {
namespace {

// The registry series each SLO kind reads (registered by
// PacketFarm::registerMetrics).
constexpr const char* kLatencySummary = "adres_farm_latency_host_us";
// Simulated enqueue-to-decode latency from the cell layer (CellScheduler::
// registerMetrics).  deadline_miss_rate prefers it when populated: frame
// deadlines are a simulated-time contract, and the cell summary counts
// dropped packets at their give-up latency, so countAbove sees them too.
constexpr const char* kCellLatencySummary = "adres_cell_latency_us";
constexpr const char* kQueueWaitSummary = "adres_farm_queue_wait_us";
constexpr const char* kHealthEventsCounter = "adres_farm_health_events_total";
constexpr const char* kDivergencesCounter = "adres_farm_divergences_total";

const SummarySample* findSummary(const MetricsSnapshot& snap,
                                 const char* name) {
  for (const SummarySample& s : snap.summaries)
    if (s.name == name) return &s;
  return nullptr;
}

bool findScalar(const MetricsSnapshot& snap, const char* name, double* out) {
  for (const MetricSample& s : snap.samples) {
    if (s.name == name) {
      *out = s.value;
      return true;
    }
  }
  return false;
}

struct Cursor {
  const std::string& s;
  std::size_t pos = 0;

  void skipWs() {
    while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos])))
      ++pos;
  }
  bool eof() {
    skipWs();
    return pos >= s.size();
  }
  char peek() {
    skipWs();
    return pos < s.size() ? s[pos] : '\0';
  }
  bool consume(char c) {
    skipWs();
    if (pos < s.size() && s[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  std::string ident() {
    skipWs();
    std::size_t start = pos;
    while (pos < s.size() && (std::isalnum(static_cast<unsigned char>(s[pos])) ||
                              s[pos] == '_'))
      ++pos;
    return s.substr(start, pos - start);
  }
  double number() {
    skipWs();
    std::size_t start = pos;
    while (pos < s.size() && (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                              s[pos] == '.' || s[pos] == '-' || s[pos] == '+' ||
                              s[pos] == 'e' || s[pos] == 'E'))
      ++pos;
    ADRES_CHECK(pos > start, "SLO spec: expected a number at '"
                                 << s.substr(start) << '\'');
    return std::stod(s.substr(start, pos - start));
  }
};

}  // namespace

const char* sloKindName(SloKind k) {
  switch (k) {
    case SloKind::kP99LatencyUs: return "p99_latency_us";
    case SloKind::kQueueWaitShare: return "queue_wait_share";
    case SloKind::kDeadlineMissRate: return "deadline_miss_rate";
    case SloKind::kWatchdogEvents: return "watchdog_events";
    case SloKind::kDivergences: return "divergences";
  }
  return "?";
}

SloSpec parseSloSpec(const std::string& text) {
  Cursor c{text};
  SloSpec spec;
  spec.name = c.ident();
  ADRES_CHECK(!spec.name.empty(), "SLO spec: missing name in '" << text << '\'');
  ADRES_CHECK(c.consume(':'), "SLO spec: expected ':' after name in '" << text
                                                                       << '\'');
  const std::string metric = c.ident();
  if (metric == "p99_latency_us") {
    spec.kind = SloKind::kP99LatencyUs;
  } else if (metric == "queue_wait_share") {
    spec.kind = SloKind::kQueueWaitShare;
  } else if (metric == "deadline_miss_rate") {
    spec.kind = SloKind::kDeadlineMissRate;
  } else if (metric == "watchdog_events") {
    spec.kind = SloKind::kWatchdogEvents;
  } else if (metric == "divergences") {
    spec.kind = SloKind::kDivergences;
  } else {
    ADRES_CHECK(false, "SLO spec: unknown metric '" << metric << "' in '"
                                                    << text << '\'');
  }
  if (c.consume('(')) {
    const double arg = c.number();
    ADRES_CHECK(c.consume(')'), "SLO spec: missing ')' in '" << text << '\'');
    ADRES_CHECK(spec.kind == SloKind::kDeadlineMissRate,
                "SLO spec: metric '" << metric << "' takes no argument");
    spec.deadlineUs = arg;
  } else {
    ADRES_CHECK(spec.kind != SloKind::kDeadlineMissRate,
                "SLO spec: deadline_miss_rate needs a (deadline_us) argument");
  }
  ADRES_CHECK(c.consume('<'), "SLO spec: expected '<' or '<=' in '" << text
                                                                    << '\'');
  spec.strict = !c.consume('=');
  spec.threshold = c.number();
  if (!c.eof()) {
    const std::string kw = c.ident();
    ADRES_CHECK(kw == "for", "SLO spec: unexpected token '" << kw << "' in '"
                                                            << text << '\'');
    spec.forCount = static_cast<int>(c.number());
    ADRES_CHECK(spec.forCount >= 1, "SLO spec: 'for' count must be >= 1");
  }
  ADRES_CHECK(c.eof(), "SLO spec: trailing characters in '" << text << '\'');
  return spec;
}

std::vector<SloSpec> parseSloSpecList(const std::string& text) {
  std::vector<SloSpec> out;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(';', start);
    const std::string part =
        text.substr(start, end == std::string::npos ? end : end - start);
    if (part.find_first_not_of(" \t\r\n") != std::string::npos)
      out.push_back(parseSloSpec(part));
    if (end == std::string::npos) break;
    start = end + 1;
  }
  return out;
}

std::string sloSpecToString(const SloSpec& spec) {
  std::ostringstream os;
  os << spec.name << ": " << sloKindName(spec.kind);
  if (spec.kind == SloKind::kDeadlineMissRate)
    os << '(' << telemetryNumber(spec.deadlineUs) << ')';
  os << (spec.strict ? " < " : " <= ") << telemetryNumber(spec.threshold);
  if (spec.forCount > 1) os << " for " << spec.forCount;
  return os.str();
}

SloEngine::SloEngine(const MetricsRegistry& reg, std::vector<SloSpec> specs)
    : reg_(reg) {
  statuses_.reserve(specs.size());
  for (SloSpec& s : specs) {
    SloStatus st;
    st.spec = std::move(s);
    statuses_.push_back(std::move(st));
  }
}

SloEngine::~SloEngine() { stop(); }

double SloEngine::extractValue(const MetricsSnapshot& snap,
                               const SloSpec& spec, bool* have) const {
  *have = false;
  switch (spec.kind) {
    case SloKind::kP99LatencyUs: {
      const SummarySample* lat = findSummary(snap, kLatencySummary);
      if (!lat || lat->hist.count == 0) return 0.0;
      *have = true;
      return lat->hist.quantile(0.99) * lat->scale;
    }
    case SloKind::kQueueWaitShare: {
      const SummarySample* lat = findSummary(snap, kLatencySummary);
      const SummarySample* qw = findSummary(snap, kQueueWaitSummary);
      if (!lat || !qw || lat->hist.count == 0) return 0.0;
      // Both summaries record host nanoseconds, so the raw sums divide
      // directly: the share of total packet host time spent queued.
      const double total =
          static_cast<double>(lat->hist.sum) + static_cast<double>(qw->hist.sum);
      *have = true;
      return total > 0 ? static_cast<double>(qw->hist.sum) / total : 0.0;
    }
    case SloKind::kDeadlineMissRate: {
      // Prefer the cell layer's simulated-latency summary when it carries
      // samples; fall back to the farm's host-latency summary (the pre-cell
      // behavior) so farm-only setups keep their deadline SLOs.
      const SummarySample* lat = findSummary(snap, kCellLatencySummary);
      if (!lat || lat->hist.count == 0) lat = findSummary(snap, kLatencySummary);
      if (!lat || lat->hist.count == 0) return 0.0;
      // The deadline is in export units (µs); the histogram records raw
      // units (ns), so divide by the export scale.  The bucketized count is
      // within one bucket width (<=6.25%) of the exact rank.
      const double raw = spec.deadlineUs / lat->scale;
      const u64 missed = lat->hist.countAbove(
          raw >= 0 ? static_cast<u64>(raw) : 0);
      *have = true;
      return static_cast<double>(missed) / static_cast<double>(lat->hist.count);
    }
    case SloKind::kWatchdogEvents: {
      double v = 0;
      *have = findScalar(snap, kHealthEventsCounter, &v);
      return v;
    }
    case SloKind::kDivergences: {
      double v = 0;
      *have = findScalar(snap, kDivergencesCounter, &v);
      return v;
    }
  }
  return 0.0;
}

std::vector<SloStatus> SloEngine::evaluate() {
  // Snapshot FIRST: the registry mutex is taken and released here, before
  // the engine mutex — while the registered adres_slo_* getters take them
  // in the opposite nesting (registry getter -> engine cache).  Keeping the
  // two critical sections disjoint on this side avoids the lock cycle.
  const MetricsSnapshot snap = reg_.snapshot();
  std::vector<SloStatus> out;
  std::vector<SloStatus> onsets;
  BreachHook hook;
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (SloStatus& st : statuses_) {
      st.value = extractValue(snap, st.spec, &st.haveValue);
      st.breaching =
          st.haveValue && (st.spec.strict ? st.value >= st.spec.threshold
                                          : st.value > st.spec.threshold);
      st.consecutive = st.breaching ? st.consecutive + 1 : 0;
      const bool wasFired = st.fired;
      st.fired = st.consecutive >= st.spec.forCount;
      if (st.fired && !wasFired) {
        ++st.breaches;
        onsets.push_back(st);
      }
      st.burnRate = st.spec.threshold != 0.0
                        ? st.value / st.spec.threshold
                        : (st.value != 0.0 ? std::numeric_limits<double>::max()
                                           : 0.0);
      ++st.evaluations;
    }
    out = statuses_;
    hook = hook_;
  }
  evals_.fetch_add(1, std::memory_order_relaxed);
  if (hook)
    for (const SloStatus& st : onsets) hook(st);
  return out;
}

std::vector<SloStatus> SloEngine::statuses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return statuses_;
}

void SloEngine::setBreachHook(BreachHook hook) {
  std::lock_guard<std::mutex> lk(mu_);
  hook_ = std::move(hook);
}

void SloEngine::registerMetrics(MetricsRegistry& metricsReg) {
  const auto family = [this](double SloStatus::* field) {
    return [this, field] {
      std::vector<std::pair<Labels, double>> out;
      std::lock_guard<std::mutex> lk(mu_);
      for (const SloStatus& st : statuses_)
        out.push_back({Labels{{"slo", st.spec.name}}, st.*field});
      return out;
    };
  };
  metricsReg.addGaugeFamily("adres_slo_value",
                            "last evaluated value of each SLO",
                            family(&SloStatus::value));
  metricsReg.addGaugeFamily("adres_slo_burn_rate",
                            "SLO value / threshold (>=1 means burning)",
                            family(&SloStatus::burnRate));
  metricsReg.addGaugeFamily(
      "adres_slo_breaching", "1 while the SLO is in the fired breach state",
      [this] {
        std::vector<std::pair<Labels, double>> out;
        std::lock_guard<std::mutex> lk(mu_);
        for (const SloStatus& st : statuses_)
          out.push_back({Labels{{"slo", st.spec.name}}, st.fired ? 1.0 : 0.0});
        return out;
      });
  metricsReg.addCounterFamily(
      "adres_slo_breaches_total", "fired-onset transitions per SLO", [this] {
        std::vector<std::pair<Labels, double>> out;
        std::lock_guard<std::mutex> lk(mu_);
        for (const SloStatus& st : statuses_)
          out.push_back({Labels{{"slo", st.spec.name}},
                         static_cast<double>(st.breaches)});
        return out;
      });
}

void SloEngine::startPeriodic(int periodMs) {
  ADRES_CHECK(periodMs > 0, "SLO evaluation period must be positive");
  stop();  // joins any previous monitor and resets the stop flag below
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = false;
  }
  monitor_ = std::thread([this, periodMs] {
    std::unique_lock<std::mutex> lk(mu_);
    while (!stopping_) {
      if (cv_.wait_for(lk, std::chrono::milliseconds(periodMs),
                       [this] { return stopping_; }))
        break;
      lk.unlock();
      evaluate();
      lk.lock();
    }
  });
}

void SloEngine::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (monitor_.joinable()) monitor_.join();
}

void SloEngine::writeJson(std::ostream& os) const {
  const std::vector<SloStatus> sts = statuses();
  JsonWriter w(os);
  w.beginObject().field("schema", "adres.slo.v1");
  w.field("evaluations", totalEvaluations()).key("slos").beginArray();
  for (const SloStatus& st : sts) {
    w.beginObject(JsonWriter::kInline).field("name", st.spec.name);
    w.field("spec", sloSpecToString(st.spec));
    w.field("metric", sloKindName(st.spec.kind));
    w.field("threshold", st.spec.threshold).field("for", st.spec.forCount);
    w.field("value", st.value).field("have_value", st.haveValue);
    w.field("breaching", st.breaching).field("fired", st.fired);
    w.field("consecutive", st.consecutive).field("breaches", st.breaches);
    w.field("burn_rate", st.burnRate).end();
  }
  w.end().end();
}

}  // namespace adres::obs
