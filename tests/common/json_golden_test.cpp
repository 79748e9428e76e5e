// Golden bytes of every JSON schema the library writes.  Each case feeds
// fixed, hand-built inputs to one emitter and compares the complete output
// byte for byte: adres.{counters,profile,metrics,campaign,cell,postmortem,
// slo,buildinfo,exemplar}.v1, the cycle-level Chrome trace and the span
// Chrome trace.  The inputs avoid every value whose bytes an emitter is
// allowed to change (Chrome timestamps stay below 400k cycles, span
// timestamps carry at most six significant digits), so a refactor of the
// writers must leave every document here untouched.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/checkpoint.hpp"
#include "cell/scheduler.hpp"
#include "obs/buildinfo.hpp"
#include "obs/exemplar.hpp"
#include "obs/metrics.hpp"
#include "obs/postmortem.hpp"
#include "obs/slo.hpp"
#include "trace/counters.hpp"
#include "trace/export.hpp"
#include "trace/profile.hpp"
#include "trace/span.hpp"

namespace adres {
namespace {

obs::HistogramSnapshot histOf(std::initializer_list<u64> values) {
  obs::LogLinearHistogram h;
  for (const u64 v : values) h.record(v);
  return h.snapshot();
}

TraceEvent ev(u64 cycle, TraceEventKind kind, u8 track = 0, u32 a = 0,
              u32 b = 0, u64 dur = 0) {
  return {cycle, dur, kind, track, a, b};
}

std::vector<TraceEvent> ringEvents() {
  return {ev(12, TraceEventKind::kVliwOp, 2, 7, 0),
          ev(40, TraceEventKind::kKernel, 0, 1, 3, 96),
          ev(41, TraceEventKind::kFuActive, 15, 1, 0, 95),
          ev(230, TraceEventKind::kL1Conflict, 3, 0x880, 4)};
}

trace::PacketSpans packetSpans() {
  trace::PacketSpans ps;
  ps.traceId = 0x00c0ffee12345678ull;
  ps.jobId = 9;
  ps.worker = 1;
  ps.tag = 4;
  trace::Span packet{trace::SpanKind::kPacket, "packet", 1.0 / 3.0,
                     1234.56789012345, 0, 52000, 0};
  trace::Span region{trace::SpanKind::kRegion, "eq \"zf\"\tstage",
                     2.0 / 3.0, 1e-7, 128, 4096, 777};
  ps.spans = {packet, region};
  return ps;
}

std::string countersDoc() {
  std::ostringstream os;
  trace::writeCountersJson(
      os, {{"cga.cycles", 1200}, {"core.cycles", 1500}, {"vliw.ops", 77}},
      {{"region", {{"rx.cycles", 900}, {"rx.entries", 2}}}, {"worker", {}}},
      3);
  trace::writeCountersJson(os, {}, {});
  return os.str();
}

std::string profileDoc() {
  trace::ProfileSummary p;
  p.runs = 2;
  p.totalCycles = 123456;
  p.regions["eq \"zf\""] = {1000, 300, 700, 120, 2800, 4};
  p.regions["sync\\acorr"] = {50, 50, 0, 9, 0, 1};
  trace::ProfileKernelRow k;
  k.launches = 3;
  k.trips = 96;
  k.cycles = 700;
  k.issueCycles = 600;
  k.idleCycles = 40;
  k.stallCycles = 20;
  k.overheadCycles = 40;
  k.ops = 2800;
  k.routeMoves = 310;
  k.opsByClass = {{"compute.lat1", 2000}, {"load.lat3", 800}};
  p.kernels[{"eq \"zf\"", "eqapply"}] = k;
  p.kernels[{"sync\\acorr", "acorr"}] = {};
  std::ostringstream os;
  p.writeJson(os);
  trace::ProfileSummary().writeJson(os);
  return os.str();
}

std::string metricsDoc() {
  obs::MetricsSnapshot s;
  s.sequence = 7;
  s.uptimeMs = 1234.56789012345;
  s.samples = {
      {"adres_farm_packets_total", obs::MetricType::kCounter,
       {{"worker", "0"}}, 12},
      {"adres_farm_queue_depth", obs::MetricType::kGauge,
       {{"path", "a\"b\\c\nd"}, {"tier", "native"}}, 0.1 + 0.2},
      {"adres_farm_nan", obs::MetricType::kGauge, {},
       std::numeric_limits<double>::infinity()}};
  s.summaries = {{"adres_farm_latency_host_us", {{"farm", "x"}}, 1e-3,
                  histOf({1000, 2000, 5000, 90000})}};
  s.histograms = {
      {"adres_farm_decode_us", {}, 1e-3, histOf({4000, 4100, 9000}),
       {{12.5, "00000000000000ab"}, {3.0, "q\"uote"}}},
      {"adres_farm_empty_us", {{"k", "v"}}, 1.0, obs::HistogramSnapshot{}, {}}};
  std::ostringstream os;
  s.writeJson(os);
  obs::MetricsSnapshot().writeJson(os);
  return os.str();
}

campaign::SweepSpec twoCellSpec() {
  campaign::SweepSpec s;
  s.seed = 3;
  s.mods = {dsp::Modulation::kQam64};
  s.numSymbols = {2};
  s.taps = {1};
  s.cfoPpm = {10.0};
  s.snrDb = {18.0, 30.5};
  s.flat = true;
  return s;
}

campaign::CellResult cellResult(u64 salt) {
  campaign::CellResult r;
  r.trials = 37 + salt;
  r.bits = (37 + salt) * 384;
  r.bitErrors = 5 * salt;
  r.packetErrors = salt;
  r.lostPackets = salt / 2;
  r.cycles = (37 + salt) * 66977;
  r.energyNj = static_cast<double>(salt + 1) / 3.0 * 1e4;
  r.discardedTrials = salt;
  r.stopReason = salt % 2 ? "ci" : "errorBudget";
  r.done = true;
  return r;
}

std::string campaignDoc() {
  const campaign::SweepSpec spec = twoCellSpec();
  const std::vector<campaign::CellSpec> cells = campaign::expand(spec);
  std::vector<campaign::CellResult> results{cellResult(1), cellResult(2)};
  std::ostringstream os;
  campaign::writeCheckpoint(os, spec, cells, results);
  results[0].done = false;
  results[1].done = false;
  campaign::writeCheckpoint(os, spec, cells, results);
  return os.str();
}

std::string cellDoc() {
  cell::CellScenario sc;
  sc.seed = 42;
  sc.modem.mod = dsp::Modulation::kQam16;
  sc.modem.numSymbols = 2;
  sc.numServers = 2;
  sc.durationUs = 15'000.0;
  sc.classes[0].users = 2;
  sc.classes[0].name = "video";
  cell::FlowClass voice;
  voice.name = "voice";
  voice.deadlineUs = 4'000.0;
  sc.classes.push_back(voice);
  const cell::CellScheduler sched(sc);
  std::ostringstream os;
  sched.writeSummary(os);
  return os.str();
}

/// adres.buildinfo.v1 is compiled-in identity, so its expected bytes are
/// assembled from the same fields rather than pinned as a literal.
std::string expectedBuildInfo() {
  const obs::BuildInfo& b = obs::buildInfo();
  return "{\n  \"schema\": \"adres.buildinfo.v1\",\n  \"version\": \"" +
         b.version + "\",\n  \"git_describe\": \"" + b.gitDescribe +
         "\",\n  \"build_type\": \"" + b.buildType +
         "\",\n  \"sanitize\": \"" + b.sanitize + "\",\n  \"compiler\": \"" +
         b.compiler + "\"\n}\n";
}

std::string buildInfoDoc() {
  std::ostringstream os;
  obs::writeBuildInfoJson(os);
  return os.str();
}

obs::PostmortemBundle bundle() {
  obs::PostmortemBundle b;
  b.trigger = "divergence";
  b.reason = "bits differ at \"payload\" byte 3\\4";
  b.jobId = 17;
  b.tag = 2;
  b.worker = 3;
  b.traceId = 0xfedcba9876543210ull;
  b.modulation = 6;
  b.numSymbols = 4;
  b.execTier = "native";
  b.shadowTier = "reference";
  b.maxCycles = 2'000'000;
  b.faultInjectSeed = 0xabcull;
  b.rx[0] = {{1, -2}, {300, -32768}};
  b.rx[1] = {};
  b.primary.valid = true;
  b.primary.detected = true;
  b.primary.ltfStart = 160;
  b.primary.stop = "halt";
  b.primary.cycles = 125081;
  b.primary.totalOps = 990001;
  b.primary.bits = {1, 0, 1, 1};
  b.primary.regions[0] = {100, 60, 40, 500, 200, 300, 1};
  b.primary.regions[5] = {7, 7, 0, 3, 3, 0, 2};
  b.spans = packetSpans();
  b.ring = ringEvents();
  b.ringAccepted = 6;
  b.ringDropped = 2;
  b.ringCapacity = 4;
  return b;
}

std::string postmortemDoc() {
  std::ostringstream os;
  obs::PostmortemBundle b = bundle();
  obs::writePostmortemJson(b, os);
  b.shadow = b.primary;
  b.shadow.detected = false;
  b.shadow.regions.clear();
  b.spans.spans.clear();
  b.ring.clear();
  obs::MetricsRegistry reg;
  reg.addCounter("adres_farm_divergences_total", "divergences",
                 [] { return 1.0; });
  obs::writePostmortemJson(b, os, &reg);
  // Host uptime is the one live value in an embedded metrics snapshot.
  return std::regex_replace(os.str(), std::regex("\"uptime_ms\": [^,]*,"),
                            "\"uptime_ms\": 0,");
}

std::string sloDoc() {
  obs::MetricsRegistry reg;
  reg.addSummary("adres_farm_latency_host_us", "latency", 1e-3,
                 [] { return histOf({1000, 2000, 3000, 250000}); });
  reg.addCounter("adres_farm_divergences_total", "divergences",
                 [] { return 2.0; });
  obs::SloSpec p99;
  p99.name = "p99 \"tail\"";
  p99.kind = obs::SloKind::kP99LatencyUs;
  p99.threshold = 100.0 / 3.0;
  obs::SloSpec integrity;
  integrity.name = "integrity";
  integrity.kind = obs::SloKind::kDivergences;
  integrity.threshold = 1;
  integrity.forCount = 2;
  obs::SloEngine engine(reg, {p99, integrity});
  engine.evaluate();
  std::ostringstream os;
  engine.writeJson(os);
  return os.str();
}

std::string exemplarDoc() {
  obs::ExemplarConfig cfg;
  cfg.enabled = true;
  cfg.dir = testing::TempDir() + "adres_json_golden_exemplars";
  cfg.minCount = 0;
  obs::ExemplarStore store(cfg);
  for (const obs::ExemplarRecord& r : store.records()) std::remove(r.path.c_str());
  EXPECT_TRUE(store.maybeCapture(packetSpans(), ringEvents(), 6, 2, 4,
                                 1234.5678901234, 1.0 / 7.0, 52000,
                                 obs::HistogramSnapshot{}));
  const std::string path = store.records().at(0).path;
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  std::remove(path.c_str());
  return os.str();
}

std::string chromeDoc() {
  const std::vector<TraceEvent> events = {
      ev(100, TraceEventKind::kKernel, 0, 0, 123, 40),
      ev(100, TraceEventKind::kModeSwitch, 0, 0),
      ev(110, TraceEventKind::kVliwOp, 2, 5),
      ev(120, TraceEventKind::kFuActive, 7, 1, 9, 44),
      ev(1234, TraceEventKind::kICacheMiss, 0, 0x40, 0, 20),
      ev(2001, TraceEventKind::kL1Conflict, 3, 0x880, 4),
      ev(3000, TraceEventKind::kDmaTransfer, 0, 64, 1, 9),
      ev(3333, TraceEventKind::kVliwStall, 1, 0, 0, 3),
      ev(5000, TraceEventKind::kRegionExit, 0, 1, 0, 4600),
      ev(398000, TraceEventKind::kHalt)};
  trace::TraceNames names;
  names.kernels = {"fft \"radix-4\"", "demod"};
  names.regions = {"sync", "eq\\zf"};
  std::ostringstream os;
  trace::writeChromeTrace(events, os, names);
  return os.str();
}

std::string spansChromeDoc() {
  trace::PacketSpans a;
  a.traceId = 0x1234ull;
  a.jobId = 3;
  a.worker = 2;
  a.tag = 1;
  a.spans = {{trace::SpanKind::kPacket, "packet", 1.5, 250.25, 0, 9000, 0},
             {trace::SpanKind::kRegion, "eq \"zf\"", 10.125, 0.5, 64, 128, 99}};
  trace::PacketSpans b;
  b.traceId = 0xffffffffffffffffull;
  b.jobId = 4;
  b.worker = 0;
  b.spans = {{trace::SpanKind::kDecode, "decode", 1000.5, 12345.6, 0, 1, 2}};
  std::ostringstream os;
  trace::writeSpansChromeTrace({a, b}, os);
  return os.str();
}

// ---------------------------------------------------------------------------
// Expected documents.

constexpr const char* kCounters = R"json({
  "schema": "adres.counters.v1",
  "workers": 3,
  "counters": {
    "cga.cycles": 1200,
    "core.cycles": 1500,
    "vliw.ops": 77
  },
  "groups": {
    "region": {
      "rx.cycles": 900,
      "rx.entries": 2
    },
    "worker": {
    }
  }
}
{
  "schema": "adres.counters.v1",
  "counters": {
  },
  "groups": {
  }
}
)json";
constexpr const char* kProfile = R"json({
  "schema": "adres.profile.v1",
  "runs": 2,
  "total_cycles": 123456,
  "regions": [
    {"name": "eq \"zf\"", "cycles": 1000, "vliw_cycles": 300, "cga_cycles": 700, "vliw_ops": 120, "cga_ops": 2800, "entries": 4},
    {"name": "sync\\acorr", "cycles": 50, "vliw_cycles": 50, "cga_cycles": 0, "vliw_ops": 9, "cga_ops": 0, "entries": 1}
  ],
  "kernels": [
    {"region": "eq \"zf\"", "kernel": "eqapply", "launches": 3, "trips": 96, "cycles": 700, "issue_cycles": 600, "idle_cycles": 40, "stall_cycles": 20, "overhead_cycles": 40, "ops": 2800, "route_moves": 310, "ops_by_class": {"compute.lat1": 2000, "load.lat3": 800}},
    {"region": "sync\\acorr", "kernel": "acorr", "launches": 0, "trips": 0, "cycles": 0, "issue_cycles": 0, "idle_cycles": 0, "stall_cycles": 0, "overhead_cycles": 0, "ops": 0, "route_moves": 0, "ops_by_class": {}}
  ]
}
{
  "schema": "adres.profile.v1",
  "runs": 0,
  "total_cycles": 0,
  "regions": [
  ],
  "kernels": [
  ]
}
)json";
constexpr const char* kMetrics = R"json({
  "schema": "adres.metrics.v1",
  "sequence": 7,
  "uptime_ms": 1234.56789,
  "metrics": [
    {"name": "adres_farm_packets_total", "type": "counter", "labels": {"worker": "0"}, "value": 12},
    {"name": "adres_farm_queue_depth", "type": "gauge", "labels": {"path": "a\"b\\c\nd", "tier": "native"}, "value": 0.3},
    {"name": "adres_farm_nan", "type": "gauge", "labels": {}, "value": 0}
  ],
  "summaries": [
    {"name": "adres_farm_latency_host_us", "labels": {"farm": "x"}, "count": 4, "sum": 98, "min": 1, "max": 90, "mean": 24.5, "p50": 2.0155, "p90": 4.9915, "p99": 4.9915, "p999": 4.9915}
  ],
  "histograms": [
    {"name": "adres_farm_decode_us", "labels": {}, "count": 3, "sum": 17.1, "min": 4, "max": 9, "mean": 5.7, "exemplars": [{"value": 12.5, "trace_id": "00000000000000ab"}, {"value": 3, "trace_id": "q\"uote"}]},
    {"name": "adres_farm_empty_us", "labels": {"k": "v"}, "count": 0, "sum": 0, "min": 0, "max": 0, "mean": 0, "exemplars": []}
  ]
}
{
  "schema": "adres.metrics.v1",
  "sequence": 0,
  "uptime_ms": 0,
  "metrics": [
  ],
  "summaries": [
  ],
  "histograms": [
  ]
}
)json";
constexpr const char* kCampaign = R"json({
  "schema": "adres.campaign.v1",
  "specHash": "dee18f7bf6bf431d",
  "cells": [
    {"key": "b223f3aed80a5822", "label": "qam64 s2 t1 cfo10 snr18 flat", "mod": 3, "numSymbols": 2, "taps": 1, "delaySpread": 0.45000000000000001, "cfoPpm": 10, "snrDb": 18,
     "trials": 38, "bits": 14592, "bitErrors": 5, "packetErrors": 1, "lostPackets": 0, "cycles": 2545126, "discardedTrials": 1, "stopReason": "ci",
     "energyNj": 6666.6666666666661, "per": 0.026315789473684209, "ber": 0.00034265350877192981, "perCiLo": 0.0046605876857687689, "perCiHi": 0.13494876115952126, "energyPerBitNj": 0.45687134502923971},
    {"key": "dfe27864c761c7cb", "label": "qam64 s2 t1 cfo10 snr30.5 flat", "mod": 3, "numSymbols": 2, "taps": 1, "delaySpread": 0.45000000000000001, "cfoPpm": 10, "snrDb": 30.5,
     "trials": 39, "bits": 14976, "bitErrors": 10, "packetErrors": 2, "lostPackets": 1, "cycles": 2612103, "discardedTrials": 2, "stopReason": "errorBudget",
     "energyNj": 10000, "per": 0.05128205128205128, "ber": 0.00066773504273504275, "perCiLo": 0.014177955415274127, "perCiHi": 0.16885640047613609, "energyPerBitNj": 0.66773504273504269}
  ]
}
{
  "schema": "adres.campaign.v1",
  "specHash": "dee18f7bf6bf431d",
  "cells": [
  ]
}
)json";
constexpr const char* kCell = R"json({
  "schema": "adres.cell.v1",
  "scenarioHash": "a482efc11b952615",
  "seed": 42,
  "servers": 2,
  "durationUs": 15000,
  "mod": 2, "numSymbols": 2,
  "flows": 3, "packets": 7,
  "offered": 0, "delivered": 0, "errors": 0, "missedLate": 0, "missedExpired": 0, "missedOverrun": 0,
  "missRate": 0, "goodputMbps": 0, "makespanUs": 0, "utilization": 0,
  "latencyP50Us": 0, "latencyP99Us": 0,
  "perFlow": [
    {"flow": 0, "class": "video", "distanceM": 18.612097182041992, "snrDb": 32.064503146738062, "deadlineUs": 4000,
     "offered": 0, "delivered": 0, "errors": 0, "missedLate": 0, "missedExpired": 0, "missedOverrun": 0, "bitErrors": 0,
     "missRate": 0, "goodputBits": 0, "latencySumNs": 0, "latencyP50Us": 0, "latencyP99Us": 0},
    {"flow": 1, "class": "video", "distanceM": 64.474195909412515, "snrDb": 20.193509440214189, "deadlineUs": 4000,
     "offered": 0, "delivered": 0, "errors": 0, "missedLate": 0, "missedExpired": 0, "missedOverrun": 0, "bitErrors": 0,
     "missRate": 0, "goodputBits": 0, "latencySumNs": 0, "latencyP50Us": 0, "latencyP99Us": 0},
    {"flow": 2, "class": "voice", "distanceM": 34.641016151377542, "snrDb": 26.129006293476131, "deadlineUs": 4000,
     "offered": 0, "delivered": 0, "errors": 0, "missedLate": 0, "missedExpired": 0, "missedOverrun": 0, "bitErrors": 0,
     "missRate": 0, "goodputBits": 0, "latencySumNs": 0, "latencyP50Us": 0, "latencyP99Us": 0}
  ]
}
)json";
constexpr const char* kPostmortem = R"json({
  "schema": "adres.postmortem.v1",
  "trigger": "divergence",
  "reason": "bits differ at \"payload\" byte 3\\4",
  "job_id": 17,
  "tag": 2,
  "worker": 3,
  "trace_id": "fedcba9876543210",
  "config": {
    "modulation": 6,
    "num_symbols": 4,
    "exec_tier": "native",
    "shadow_tier": "reference",
    "max_cycles": 2000000,
    "fault_inject_seed": "0000000000000abc"
  },
  "rx": [
    [1,-2,300,-32768],
    []
  ],
  "primary": {
    "detected": true,
    "ltf_start": 160,
    "stop": "halt",
    "cycles": 125081,
    "total_ops": 990001,
    "bits": "1011",
    "regions": [
      {"id": 0, "cycles": 100, "vliw_cycles": 60, "cga_cycles": 40, "ops": 500, "vliw_ops": 200, "cga_ops": 300, "entries": 1},
      {"id": 5, "cycles": 7, "vliw_cycles": 7, "cga_cycles": 0, "ops": 3, "vliw_ops": 3, "cga_ops": 0, "entries": 2}
    ]
  },
  "shadow": null,
  "spans": [
    {"kind": "packet", "name": "packet", "start_us": 0.3333333333, "dur_us": 1234.56789, "start_cycle": 0, "cycles": 52000, "ops": 0},
    {"kind": "region", "name": "eq \"zf\"\tstage", "start_us": 0.6666666667, "dur_us": 1e-07, "start_cycle": 128, "cycles": 4096, "ops": 777}
  ],
  "ring": {
    "capacity": 4,
    "accepted": 6,
    "dropped": 2,
    "events": [
      {"cycle": 12, "dur": 0, "kind": "vliw_op", "track": 2, "a": 7, "b": 0},
      {"cycle": 40, "dur": 96, "kind": "kernel", "track": 0, "a": 1, "b": 3},
      {"cycle": 41, "dur": 95, "kind": "fu_active", "track": 15, "a": 1, "b": 0},
      {"cycle": 230, "dur": 0, "kind": "l1_conflict", "track": 3, "a": 2176, "b": 4}
    ]
  },
  "buildinfo": @BUILDINFO@
}
{
  "schema": "adres.postmortem.v1",
  "trigger": "divergence",
  "reason": "bits differ at \"payload\" byte 3\\4",
  "job_id": 17,
  "tag": 2,
  "worker": 3,
  "trace_id": "fedcba9876543210",
  "config": {
    "modulation": 6,
    "num_symbols": 4,
    "exec_tier": "native",
    "shadow_tier": "reference",
    "max_cycles": 2000000,
    "fault_inject_seed": "0000000000000abc"
  },
  "rx": [
    [1,-2,300,-32768],
    []
  ],
  "primary": {
    "detected": true,
    "ltf_start": 160,
    "stop": "halt",
    "cycles": 125081,
    "total_ops": 990001,
    "bits": "1011",
    "regions": [
      {"id": 0, "cycles": 100, "vliw_cycles": 60, "cga_cycles": 40, "ops": 500, "vliw_ops": 200, "cga_ops": 300, "entries": 1},
      {"id": 5, "cycles": 7, "vliw_cycles": 7, "cga_cycles": 0, "ops": 3, "vliw_ops": 3, "cga_ops": 0, "entries": 2}
    ]
  },
  "shadow": {
    "detected": false,
    "ltf_start": 160,
    "stop": "halt",
    "cycles": 125081,
    "total_ops": 990001,
    "bits": "1011",
    "regions": [
    ]
  },
  "spans": [
  ],
  "ring": {
    "capacity": 4,
    "accepted": 6,
    "dropped": 2,
    "events": [
    ]
  },
  "buildinfo": @BUILDINFO@,
  "metrics": {
  "schema": "adres.metrics.v1",
  "sequence": 1,
  "uptime_ms": 0,
  "metrics": [
    {"name": "adres_farm_divergences_total", "type": "counter", "labels": {}, "value": 1}
  ],
  "summaries": [
  ],
  "histograms": [
  ]
}
}
)json";
constexpr const char* kSlo = R"json({
  "schema": "adres.slo.v1",
  "evaluations": 1,
  "slos": [
    {"name": "p99 \"tail\"", "spec": "p99 \"tail\": p99_latency_us < 33.33333333", "metric": "p99_latency_us", "threshold": 33.33333333, "for": 1, "value": 3.0075, "have_value": true, "breaching": false, "fired": false, "consecutive": 0, "breaches": 0, "burn_rate": 0.090225},
    {"name": "integrity", "spec": "integrity: divergences < 1 for 2", "metric": "divergences", "threshold": 1, "for": 2, "value": 2, "have_value": true, "breaching": true, "fired": false, "consecutive": 1, "breaches": 0, "burn_rate": 2}
  ]
}
)json";
constexpr const char* kExemplar = R"json({
  "schema": "adres.exemplar.v1",
  "trace_id": "00c0ffee12345678",
  "job_id": 9,
  "worker": 1,
  "tag": 4,
  "latency_us": 1234.56789,
  "queue_wait_us": 0.1428571429,
  "sim_cycles": 52000,
  "spans": [
    {"kind": "packet", "name": "packet", "start_us": 0.3333333333, "dur_us": 1234.56789, "start_cycle": 0, "cycles": 52000, "ops": 0},
    {"kind": "region", "name": "eq \"zf\"\tstage", "start_us": 0.6666666667, "dur_us": 1e-07, "start_cycle": 128, "cycles": 4096, "ops": 777}
  ],
  "ring": {
    "capacity": 4,
    "accepted": 6,
    "dropped": 2,
    "events": [
      {"cycle": 12, "dur": 0, "kind": "vliw_op", "track": 2, "a": 7, "b": 0},
      {"cycle": 40, "dur": 96, "kind": "kernel", "track": 0, "a": 1, "b": 3},
      {"cycle": 41, "dur": 95, "kind": "fu_active", "track": 15, "a": 1, "b": 0},
      {"cycle": 230, "dur": 0, "kind": "l1_conflict", "track": 3, "a": 2176, "b": 4}
    ]
  }
}
)json";
constexpr const char* kChrome = R"json({"displayTimeUnit":"ns","traceEvents":[
{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"core"}},
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"vliw.slot0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"vliw.slot1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"vliw.slot2"}},
{"name":"thread_name","ph":"M","pid":1,"tid":10,"args":{"name":"cga.fu00"}},
{"name":"thread_name","ph":"M","pid":1,"tid":11,"args":{"name":"cga.fu01"}},
{"name":"thread_name","ph":"M","pid":1,"tid":12,"args":{"name":"cga.fu02"}},
{"name":"thread_name","ph":"M","pid":1,"tid":13,"args":{"name":"cga.fu03"}},
{"name":"thread_name","ph":"M","pid":1,"tid":14,"args":{"name":"cga.fu04"}},
{"name":"thread_name","ph":"M","pid":1,"tid":15,"args":{"name":"cga.fu05"}},
{"name":"thread_name","ph":"M","pid":1,"tid":16,"args":{"name":"cga.fu06"}},
{"name":"thread_name","ph":"M","pid":1,"tid":17,"args":{"name":"cga.fu07"}},
{"name":"thread_name","ph":"M","pid":1,"tid":18,"args":{"name":"cga.fu08"}},
{"name":"thread_name","ph":"M","pid":1,"tid":19,"args":{"name":"cga.fu09"}},
{"name":"thread_name","ph":"M","pid":1,"tid":20,"args":{"name":"cga.fu10"}},
{"name":"thread_name","ph":"M","pid":1,"tid":21,"args":{"name":"cga.fu11"}},
{"name":"thread_name","ph":"M","pid":1,"tid":22,"args":{"name":"cga.fu12"}},
{"name":"thread_name","ph":"M","pid":1,"tid":23,"args":{"name":"cga.fu13"}},
{"name":"thread_name","ph":"M","pid":1,"tid":24,"args":{"name":"cga.fu14"}},
{"name":"thread_name","ph":"M","pid":1,"tid":25,"args":{"name":"cga.fu15"}},
{"name":"thread_name","ph":"M","pid":1,"tid":40,"args":{"name":"l1.bank0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":41,"args":{"name":"l1.bank1"}},
{"name":"thread_name","ph":"M","pid":1,"tid":42,"args":{"name":"l1.bank2"}},
{"name":"thread_name","ph":"M","pid":1,"tid":43,"args":{"name":"l1.bank3"}},
{"name":"thread_name","ph":"M","pid":1,"tid":50,"args":{"name":"icache"}},
{"name":"thread_name","ph":"M","pid":1,"tid":51,"args":{"name":"dma"}},
{"name":"thread_name","ph":"M","pid":1,"tid":52,"args":{"name":"ahb"}},
{"name":"fft \"radix-4\"","ph":"X","ts":0.25,"dur":0.1,"pid":1,"tid":0,"args":{"cycle":100,"dur_cycles":40,"kind":"kernel","a":0,"b":123}},
{"name":"vliw->cga","ph":"i","ts":0.25,"s":"t","pid":1,"tid":0,"args":{"cycle":100,"dur_cycles":0,"kind":"mode_switch","a":0,"b":0}},
{"name":"MOVI","ph":"i","ts":0.275,"s":"t","pid":1,"tid":3,"args":{"cycle":110,"dur_cycles":0,"kind":"vliw_op","a":5,"b":0}},
{"name":"demod","ph":"X","ts":0.3,"dur":0.11,"pid":1,"tid":17,"args":{"cycle":120,"dur_cycles":44,"kind":"fu_active","a":1,"b":9}},
{"name":"I$ miss","ph":"X","ts":3.085,"dur":0.05,"pid":1,"tid":50,"args":{"cycle":1234,"dur_cycles":20,"kind":"icache_miss","a":64,"b":0}},
{"name":"bank conflict","ph":"i","ts":5.0025,"s":"t","pid":1,"tid":43,"args":{"cycle":2001,"dur_cycles":0,"kind":"l1_conflict","a":2176,"b":4}},
{"name":"dma","ph":"X","ts":7.5,"dur":0.0225,"pid":1,"tid":51,"args":{"cycle":3000,"dur_cycles":9,"kind":"dma_transfer","a":64,"b":1}},
{"name":"stall:hazard","ph":"X","ts":8.3325,"dur":0.0075,"pid":1,"tid":0,"args":{"cycle":3333,"dur_cycles":3,"kind":"vliw_stall","a":0,"b":0}},
{"name":"eq\\zf","ph":"X","ts":12.5,"dur":11.5,"pid":1,"tid":0,"args":{"cycle":5000,"dur_cycles":4600,"kind":"region","a":1,"b":0}},
{"name":"halt","ph":"i","ts":995,"s":"t","pid":1,"tid":0,"args":{"cycle":398000,"dur_cycles":0,"kind":"halt","a":0,"b":0}}
]}
)json";
constexpr const char* kSpansChrome = R"json({"traceEvents":[
{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"adres packet farm"}},
{"name":"thread_name","ph":"M","pid":2,"tid":0,"args":{"name":"worker 0"}},
{"name":"thread_name","ph":"M","pid":2,"tid":2,"args":{"name":"worker 2"}},
{"name":"packet","cat":"packet","ph":"X","pid":2,"tid":2,"ts":1.5,"dur":250.25,"args":{"trace_id":"0000000000001234","job":3,"tag":1,"cycles":9000,"ops":0}},
{"name":"eq \"zf\"","cat":"region","ph":"X","pid":2,"tid":2,"ts":10.125,"dur":0.5,"args":{"trace_id":"0000000000001234","job":3,"tag":1,"cycles":128,"ops":99}},
{"name":"decode","cat":"decode","ph":"X","pid":2,"tid":0,"ts":1000.5,"dur":12345.6,"args":{"trace_id":"ffffffffffffffff","job":4,"tag":0,"cycles":1,"ops":2}}
]}
)json";

TEST(JsonGolden, Counters) { EXPECT_EQ(countersDoc(), kCounters); }
TEST(JsonGolden, Profile) { EXPECT_EQ(profileDoc(), kProfile); }
TEST(JsonGolden, Metrics) { EXPECT_EQ(metricsDoc(), kMetrics); }
TEST(JsonGolden, Campaign) { EXPECT_EQ(campaignDoc(), kCampaign); }
TEST(JsonGolden, Cell) { EXPECT_EQ(cellDoc(), kCell); }
TEST(JsonGolden, BuildInfo) { EXPECT_EQ(buildInfoDoc(), expectedBuildInfo()); }
TEST(JsonGolden, Postmortem) {
  // The build identity is embedded verbatim, flush left, minus its final
  // newline.
  std::string bi = expectedBuildInfo();
  bi.pop_back();
  std::string expected = kPostmortem;
  for (std::size_t at; (at = expected.find("@BUILDINFO@")) != std::string::npos;)
    expected.replace(at, 11, bi);
  EXPECT_EQ(postmortemDoc(), expected);
}
TEST(JsonGolden, Slo) { EXPECT_EQ(sloDoc(), kSlo); }
TEST(JsonGolden, Exemplar) { EXPECT_EQ(exemplarDoc(), kExemplar); }
TEST(JsonGolden, ChromeTrace) { EXPECT_EQ(chromeDoc(), kChrome); }
TEST(JsonGolden, SpansChromeTrace) { EXPECT_EQ(spansChromeDoc(), kSpansChrome); }

}  // namespace
}  // namespace adres
