#include "obs/postmortem.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/check.hpp"
#include "common/json_min.hpp"
#include "common/json_write.hpp"
#include "obs/buildinfo.hpp"
#include "trace/export.hpp"

namespace adres::obs {
namespace {

void writeResultRecord(JsonWriter& w, const ResultRecord& r) {
  std::string bits;
  for (const u8 b : r.bits) bits.push_back(b ? '1' : '0');
  w.beginObject().field("detected", r.detected).field("ltf_start", r.ltfStart);
  w.field("stop", r.stop).field("cycles", r.cycles);
  w.field("total_ops", r.totalOps).field("bits", bits);
  w.key("regions").beginArray();
  for (const auto& [id, p] : r.regions) {
    w.beginObject(JsonWriter::kInline).field("id", id);
    w.field("cycles", p.cycles).field("vliw_cycles", p.vliwCycles);
    w.field("cga_cycles", p.cgaCycles).field("ops", p.ops);
    w.field("vliw_ops", p.vliwOps).field("cga_ops", p.cgaOps);
    w.field("entries", p.entries).end();
  }
  w.end().end();
}

ResultRecord parseResultRecord(const json::JsonValue& v) {
  ResultRecord r;
  r.valid = true;
  r.detected = v.at("detected").boolean;
  r.ltfStart = static_cast<u32>(v.at("ltf_start").number);
  r.stop = v.at("stop").str;
  r.cycles = static_cast<u64>(v.at("cycles").number);
  r.totalOps = static_cast<u64>(v.at("total_ops").number);
  const std::string& bits = v.at("bits").str;
  r.bits.reserve(bits.size());
  for (const char c : bits) r.bits.push_back(c == '1' ? 1 : 0);
  for (const json::JsonValue& rv : v.at("regions").array) {
    RegionProfile p;
    p.cycles = static_cast<u64>(rv.at("cycles").number);
    p.vliwCycles = static_cast<u64>(rv.at("vliw_cycles").number);
    p.cgaCycles = static_cast<u64>(rv.at("cga_cycles").number);
    p.ops = static_cast<u64>(rv.at("ops").number);
    p.vliwOps = static_cast<u64>(rv.at("vliw_ops").number);
    p.cgaOps = static_cast<u64>(rv.at("cga_ops").number);
    p.entries = static_cast<u64>(rv.at("entries").number);
    r.regions[static_cast<int>(rv.at("id").number)] = p;
  }
  return r;
}

std::vector<cint16> parseRx(const json::JsonValue& v) {
  ADRES_CHECK(v.array.size() % 2 == 0, "rx sample array length must be even");
  std::vector<cint16> out;
  out.reserve(v.array.size() / 2);
  for (std::size_t i = 0; i < v.array.size(); i += 2) {
    out.push_back({static_cast<i16>(v.array[i].number),
                   static_cast<i16>(v.array[i + 1].number)});
  }
  return out;
}

}  // namespace

void writePostmortemJson(const PostmortemBundle& b, std::ostream& os,
                         const MetricsRegistry* metrics) {
  using Hex = JsonWriter::Hex;
  JsonWriter w(os);
  w.beginObject().field("schema", "adres.postmortem.v1");
  w.field("trigger", b.trigger).field("reason", b.reason);
  w.field("job_id", b.jobId).field("tag", b.tag).field("worker", b.worker);
  w.field("trace_id", Hex{b.traceId}).key("config").beginObject();
  w.field("modulation", b.modulation).field("num_symbols", b.numSymbols);
  w.field("exec_tier", b.execTier).field("shadow_tier", b.shadowTier);
  w.field("max_cycles", b.maxCycles);
  w.field("fault_inject_seed", Hex{b.faultInjectSeed}).end();
  w.key("rx").beginArray();
  for (const std::vector<cint16>& antenna : b.rx) {
    w.beginArray(JsonWriter::kCompact);
    for (const cint16& s : antenna) w.value(s.re).value(s.im);
    w.end();
  }
  writeResultRecord(w.end().key("primary"), b.primary);
  if (b.shadow.valid) {
    writeResultRecord(w.key("shadow"), b.shadow);
  } else {
    w.field("shadow", nullptr);
  }
  trace::writeSpansJson(w.key("spans"), b.spans.spans);
  w.key("ring").beginObject().field("capacity", b.ringCapacity);
  w.field("accepted", b.ringAccepted).field("dropped", b.ringDropped);
  trace::writeTraceEventsJson(w.key("events"), b.ring);
  w.end();
  // The build identity and metrics snapshot are standalone documents,
  // embedded as written on their own.
  w.key("buildinfo").embed([](JsonWriter& doc) { writeBuildInfoJson(doc); });
  if (metrics) {
    w.key("metrics").embed(
        [metrics](JsonWriter& doc) { metrics->snapshot().writeJson(doc); });
  }
  w.end();
}

PostmortemBundle loadPostmortemBundle(const std::string& path) {
  std::ifstream in(path);
  ADRES_CHECK(in.good(), "cannot open postmortem bundle '" << path << '\'');
  std::ostringstream buf;
  buf << in.rdbuf();
  json::JsonValue root = json::JsonParser(buf.str()).parse();
  ADRES_CHECK(root.hasKey("schema") &&
                  root.at("schema").str == "adres.postmortem.v1",
              "'" << path << "' is not an adres.postmortem.v1 bundle");

  PostmortemBundle b;
  b.trigger = root.at("trigger").str;
  b.reason = root.at("reason").str;
  b.jobId = static_cast<u64>(root.at("job_id").number);
  b.tag = static_cast<u32>(root.at("tag").number);
  b.worker = static_cast<int>(root.at("worker").number);
  b.traceId = parseHex64(root.at("trace_id").str);

  const json::JsonValue& cfg = root.at("config");
  b.modulation = static_cast<int>(cfg.at("modulation").number);
  b.numSymbols = static_cast<int>(cfg.at("num_symbols").number);
  b.execTier = cfg.at("exec_tier").str;
  b.shadowTier = cfg.at("shadow_tier").str;
  b.maxCycles = static_cast<u64>(cfg.at("max_cycles").number);
  b.faultInjectSeed = parseHex64(cfg.at("fault_inject_seed").str);

  const json::JsonValue& rx = root.at("rx");
  ADRES_CHECK(rx.array.size() == 2, "bundle rx must hold two antenna streams");
  b.rx[0] = parseRx(rx.array[0]);
  b.rx[1] = parseRx(rx.array[1]);

  b.primary = parseResultRecord(root.at("primary"));
  const json::JsonValue& shadow = root.at("shadow");
  if (shadow.type == json::JsonValue::kObject)
    b.shadow = parseResultRecord(shadow);

  b.spans.traceId = b.traceId;
  b.spans.jobId = b.jobId;
  b.spans.worker = b.worker;
  b.spans.tag = b.tag;
  for (const json::JsonValue& sv : root.at("spans").array) {
    trace::Span s;
    s.kind = trace::spanKindFromName(sv.at("kind").str);
    s.name = sv.at("name").str;
    s.startUs = sv.at("start_us").number;
    s.durUs = sv.at("dur_us").number;
    s.startCycle = static_cast<u64>(sv.at("start_cycle").number);
    s.cycles = static_cast<u64>(sv.at("cycles").number);
    s.ops = static_cast<u64>(sv.at("ops").number);
    b.spans.spans.push_back(std::move(s));
  }

  const json::JsonValue& ring = root.at("ring");
  b.ringCapacity = static_cast<std::size_t>(ring.at("capacity").number);
  b.ringAccepted = static_cast<u64>(ring.at("accepted").number);
  b.ringDropped = static_cast<u64>(ring.at("dropped").number);
  for (const json::JsonValue& ev : ring.at("events").array) {
    TraceEvent e;
    e.cycle = static_cast<u64>(ev.at("cycle").number);
    e.dur = static_cast<u64>(ev.at("dur").number);
    e.kind = trace::traceEventKindFromName(ev.at("kind").str);
    e.track = static_cast<u8>(ev.at("track").number);
    e.a = static_cast<u32>(ev.at("a").number);
    e.b = static_cast<u32>(ev.at("b").number);
    b.ring.push_back(e);
  }
  return b;
}

PostmortemWriter::PostmortemWriter(PostmortemConfig cfg) : cfg_(std::move(cfg)) {
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
}

std::string PostmortemWriter::write(const PostmortemBundle& b) {
  std::string path, tmp;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (cfg_.maxBundles && paths_.size() >= cfg_.maxBundles) {
      std::error_code ec;
      std::filesystem::remove(paths_.front(), ec);
      paths_.erase(paths_.begin());
      ++evicted_;
    }
    path = cfg_.dir + "/postmortem_" + trace::traceIdHex(b.traceId) + "_" +
           std::to_string(fileSeq_) + ".json";
    tmp = path + ".tmp";
    ++fileSeq_;
    paths_.push_back(path);
    ++written_;
  }
  {
    std::ofstream os(tmp, std::ios::trunc);
    writePostmortemJson(b, os, cfg_.metrics);
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
  return path;
}

std::vector<std::string> PostmortemWriter::paths() const {
  std::lock_guard<std::mutex> lk(mu_);
  return paths_;
}

u64 PostmortemWriter::written() const {
  std::lock_guard<std::mutex> lk(mu_);
  return written_;
}

u64 PostmortemWriter::evicted() const {
  std::lock_guard<std::mutex> lk(mu_);
  return evicted_;
}

}  // namespace adres::obs
