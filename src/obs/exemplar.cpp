#include "obs/exemplar.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>

#include "trace/export.hpp"

namespace adres::obs {

ExemplarStore::ExemplarStore(ExemplarConfig cfg) : cfg_(std::move(cfg)) {
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
}

double ExemplarStore::thresholdUs(const HistogramSnapshot& latencyNs) const {
  if (latencyNs.count < cfg_.minCount)
    return std::numeric_limits<double>::infinity();
  return latencyNs.quantile(cfg_.quantile) * 1e-3;
}

bool ExemplarStore::maybeCapture(const trace::PacketSpans& spans,
                                 const std::vector<TraceEvent>& ringEvents,
                                 u64 ringAccepted, u64 ringDropped,
                                 std::size_t ringCapacity, double latencyUs,
                                 double queueWaitUs, u64 simCycles,
                                 const HistogramSnapshot& latencyNs) {
  if (latencyUs < thresholdUs(latencyNs)) return false;

  std::string path, tmp;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (records_.size() >= cfg_.maxExemplars) {
      // Full: only a packet slower than the fastest retained one qualifies.
      if (latencyUs <= records_.back().latencyUs) return false;
      std::error_code ec;
      std::filesystem::remove(records_.back().path, ec);
      records_.pop_back();
      ++evicted_;
    }
    path = cfg_.dir + "/exemplar_" + trace::traceIdHex(spans.traceId) + "_" +
           std::to_string(fileSeq_) + ".json";
    tmp = path + ".tmp";
    ++fileSeq_;

    ExemplarRecord rec;
    rec.traceId = spans.traceId;
    rec.jobId = spans.jobId;
    rec.worker = spans.worker;
    rec.latencyUs = latencyUs;
    rec.queueWaitUs = queueWaitUs;
    rec.simCycles = simCycles;
    rec.path = path;
    records_.push_back(rec);
    std::sort(records_.begin(), records_.end(),
              [](const ExemplarRecord& a, const ExemplarRecord& b) {
                return a.latencyUs > b.latencyUs;
              });
    ++captured_;
  }

  {
    std::ofstream os(tmp, std::ios::trunc);
    JsonWriter w(os);
    w.beginObject().field("schema", "adres.exemplar.v1");
    w.field("trace_id", JsonWriter::Hex{spans.traceId});
    w.field("job_id", spans.jobId).field("worker", spans.worker);
    w.field("tag", spans.tag).field("latency_us", latencyUs);
    w.field("queue_wait_us", queueWaitUs).field("sim_cycles", simCycles);
    trace::writeSpansJson(w.key("spans"), spans.spans);
    w.key("ring").beginObject().field("capacity", ringCapacity);
    w.field("accepted", ringAccepted).field("dropped", ringDropped);
    trace::writeTraceEventsJson(w.key("events"), ringEvents);
    w.end().end();
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
  return true;
}

std::vector<ExemplarRecord> ExemplarStore::records() const {
  std::lock_guard<std::mutex> lk(mu_);
  return records_;
}

u64 ExemplarStore::captured() const {
  std::lock_guard<std::mutex> lk(mu_);
  return captured_;
}

u64 ExemplarStore::evicted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return evicted_;
}

}  // namespace adres::obs
