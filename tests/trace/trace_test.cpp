// Trace & telemetry layer: ring-buffer flight recorder, the Chrome
// exporter (validated with the shared common/json_min.hpp parser),
// the processor counter table, and the processor integration (events emitted during a
// real program run, zero perturbation when the sink is detached).
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/processor.hpp"
#include "sched/progbuilder.hpp"
#include "common/json_min.hpp"
#include "trace/counters.hpp"
#include "trace/export.hpp"

namespace adres {
namespace {

using json::JsonParser;
using json::JsonValue;

TraceEvent ev(u64 cycle, TraceEventKind kind, u8 track = 0, u32 a = 0,
              u32 b = 0, u64 dur = 0) {
  return {cycle, dur, kind, track, a, b};
}

// ---------------------------------------------------------------------------
// RingBufferSink

TEST(RingBufferSink, RetainsEverythingBelowCapacity) {
  RingBufferSink ring(8);
  for (u64 i = 0; i < 5; ++i)
    ring.event(ev(i, TraceEventKind::kVliwOp, static_cast<u8>(i)));
  EXPECT_EQ(ring.accepted(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  const auto evs = ring.events();
  ASSERT_EQ(evs.size(), 5u);
  for (u64 i = 0; i < 5; ++i) EXPECT_EQ(evs[i].cycle, i);
}

TEST(RingBufferSink, OverwritesOldestAndCountsDrops) {
  RingBufferSink ring(4);
  for (u64 i = 0; i < 10; ++i) ring.event(ev(i, TraceEventKind::kVliwOp));
  EXPECT_EQ(ring.accepted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u) << "capacity 4, 10 emitted";
  EXPECT_EQ(ring.size(), 4u);
  const auto evs = ring.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest-first: the survivors are the last four events, in order.
  for (u64 i = 0; i < 4; ++i) EXPECT_EQ(evs[i].cycle, 6 + i);
}

TEST(RingBufferSink, ClearResetsEverything) {
  RingBufferSink ring(2);
  for (u64 i = 0; i < 5; ++i) ring.event(ev(i, TraceEventKind::kHalt));
  ring.clear();
  EXPECT_EQ(ring.accepted(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.events().empty());
  ring.event(ev(42, TraceEventKind::kHalt));
  ASSERT_EQ(ring.events().size(), 1u);
  EXPECT_EQ(ring.events()[0].cycle, 42u);
}

// ---------------------------------------------------------------------------
// Chrome trace exporter

TEST(ChromeExport, EmitsValidJsonWithRequiredFields) {
  std::vector<TraceEvent> events = {
      ev(100, TraceEventKind::kKernel, 0, 0, 123, 40),          // span
      ev(100, TraceEventKind::kModeSwitch, 0, 0),               // instant
      ev(110, TraceEventKind::kVliwOp, 2, 0),                   // slot 2 track
      ev(120, TraceEventKind::kFuActive, 7, 0, 9, 40),          // FU 7 track
  };
  trace::TraceNames names;
  names.kernels.push_back("fft_stage");
  std::ostringstream os;
  trace::writeChromeTrace(events, os, names);

  JsonValue root = JsonParser(os.str()).parse();
  ASSERT_EQ(root.type, JsonValue::kObject);
  ASSERT_TRUE(root.hasKey("traceEvents"));
  const JsonValue& arr = root.at("traceEvents");
  ASSERT_EQ(arr.type, JsonValue::kArray);

  int metadata = 0, spans = 0, instants = 0;
  for (const JsonValue& e : arr.array) {
    ASSERT_EQ(e.type, JsonValue::kObject);
    // Every record carries the Chrome trace-event required fields.
    ASSERT_TRUE(e.hasKey("name"));
    ASSERT_TRUE(e.hasKey("ph"));
    ASSERT_TRUE(e.hasKey("pid"));
    ASSERT_TRUE(e.hasKey("tid"));
    const std::string ph = e.at("ph").str;
    if (ph == "M") {
      ++metadata;
      continue;
    }
    ASSERT_TRUE(e.hasKey("ts"));
    if (ph == "X") {
      ++spans;
      ASSERT_TRUE(e.hasKey("dur"));
      EXPECT_GT(e.at("dur").number, 0.0);
    } else {
      ASSERT_EQ(ph, "i");
      ++instants;
    }
  }
  EXPECT_GE(metadata, 1 + 3 + 16) << "core + VLIW slots + CGA FUs named";
  EXPECT_EQ(spans, 2) << "kernel + FU-activity spans";
  EXPECT_EQ(instants, 2) << "mode switch + VLIW op";
}

TEST(ChromeExport, TimestampsScaleByClockPeriodAndNamesResolve) {
  std::vector<TraceEvent> events = {
      ev(400, TraceEventKind::kKernel, 0, 0, 5, 800),
  };
  trace::TraceNames names;
  names.kernels.push_back("xcorr");
  std::ostringstream os;
  trace::writeChromeTrace(events, os, names);  // default: 400 MHz
  JsonValue root = JsonParser(os.str()).parse();
  const JsonValue* kernel = nullptr;
  for (const JsonValue& e : root.at("traceEvents").array)
    if (e.at("ph").str == "X") kernel = &e;
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->at("name").str, "xcorr");
  EXPECT_DOUBLE_EQ(kernel->at("ts").number, 1.0) << "400 cycles @ 400 MHz = 1 us";
  EXPECT_DOUBLE_EQ(kernel->at("dur").number, 2.0);
  EXPECT_EQ(kernel->at("args").at("cycle").number, 400.0);
}

TEST(ChromeExport, EscapesSpecialCharactersInNames) {
  std::vector<TraceEvent> events = {ev(0, TraceEventKind::kRegionExit, 0, 0, 0, 7)};
  trace::TraceNames names;
  names.regions.push_back("equalize \"coeff\" calc.\n");
  std::ostringstream os;
  trace::writeChromeTrace(events, os, names);
  JsonValue root = JsonParser(os.str()).parse();  // must not throw
  bool found = false;
  for (const JsonValue& e : root.at("traceEvents").array)
    if (e.at("ph").str == "X" &&
        e.at("name").str == "equalize \"coeff\" calc.\n")
      found = true;
  EXPECT_TRUE(found);
}

TEST(ChromeExport, TimestampsKeepCycleResolutionPast400kCycles) {
  // Past 1000 us at 400 MHz a six-significant-digit timestamp merges
  // neighbouring cycles; the telemetry form keeps one cycle apart.
  std::vector<TraceEvent> events = {ev(400000, TraceEventKind::kVliwOp, 0, 0),
                                    ev(400001, TraceEventKind::kVliwOp, 0, 0),
                                    ev(4000001, TraceEventKind::kKernel, 0, 0,
                                       0, 3)};
  std::ostringstream os;
  trace::writeChromeTrace(events, os);
  const JsonValue root = JsonParser(os.str()).parse();
  std::vector<double> ts, dur;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("ph").str == "M") continue;
    ts.push_back(e.at("ts").number);
    if (e.hasKey("dur")) dur.push_back(e.at("dur").number);
  }
  ASSERT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts[0], 1000.0);
  EXPECT_DOUBLE_EQ(ts[1], 1000.0025);
  EXPECT_DOUBLE_EQ(ts[2], 10000.0025);
  ASSERT_EQ(dur.size(), 1u);
  EXPECT_DOUBLE_EQ(dur[0], 0.0075);
}

// ---------------------------------------------------------------------------
// Processor integration

KernelConfig accumulatorKernel() {
  KernelConfig k;
  k.name = "acc";
  k.ii = 1;
  k.schedLength = 1;
  k.contexts.resize(1);
  FuOp& f = k.contexts[0].fu[5];
  f.op = Opcode::ADD;
  f.src1 = SrcSel::localRf(0);
  f.src2 = SrcSel::imm();
  f.imm = 1;
  f.dst.toLocalRf = true;
  f.dst.localAddr = 0;
  k.preloads.push_back({5, 0, 10});
  k.writebacks.push_back({11, 5, 0});
  return k;
}

Program tracedProgram() {
  ProgramBuilder b("traced");
  const int kid = b.addKernel(accumulatorKernel());
  b.marker("warmup");
  b.li(10, 0);
  b.li(12, 20);
  b.markerEnd();
  b.marker("kernel region");
  b.cga(kid, 12);
  b.markerEnd();
  b.halt();
  return b.build();
}

int countKind(const std::vector<TraceEvent>& evs, TraceEventKind k) {
  int n = 0;
  for (const TraceEvent& e : evs)
    if (e.kind == k) ++n;
  return n;
}

TEST(ProcessorTracing, EmitsModeKernelRegionAndFetchEvents) {
  Processor p;
  RingBufferSink ring(1 << 14);
  p.setTrace(&ring);
  p.load(tracedProgram());
  EXPECT_EQ(p.run(), StopReason::kHalt);
  EXPECT_EQ(p.regs().peek(11), 20u) << "tracing must not change semantics";

  const auto evs = ring.events();
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(countKind(evs, TraceEventKind::kModeSwitch), 2);
  EXPECT_EQ(countKind(evs, TraceEventKind::kKernel), 1);
  EXPECT_EQ(countKind(evs, TraceEventKind::kHalt), 1);
  EXPECT_GT(countKind(evs, TraceEventKind::kVliwOp), 0);
  EXPECT_GT(countKind(evs, TraceEventKind::kICacheMiss), 0) << "cold I$";
  EXPECT_GT(countKind(evs, TraceEventKind::kFuActive), 0);
  EXPECT_EQ(countKind(evs, TraceEventKind::kRegionEnter),
            countKind(evs, TraceEventKind::kRegionExit))
      << "every region enter has a matching exit span";
  EXPECT_GE(countKind(evs, TraceEventKind::kRegionEnter), 2);

  // The kernel span covers the launch and carries the op count.
  for (const TraceEvent& e : evs)
    if (e.kind == TraceEventKind::kKernel) {
      EXPECT_GT(e.dur, 20u) << "20 trips + mode-switch overhead";
      EXPECT_GT(e.b, 0u) << "ops executed inside the kernel";
    }
  // FU-activity spans land inside [0, final cycle] on FU tracks.
  for (const TraceEvent& e : evs)
    if (e.kind == TraceEventKind::kFuActive) {
      EXPECT_LT(e.track, kCgaFus);
      EXPECT_GT(e.dur, 0u);
    }
}

TEST(ProcessorTracing, DetachedSinkDoesNotPerturbTiming) {
  Processor traced;
  RingBufferSink ring;
  traced.setTrace(&ring);
  traced.load(tracedProgram());
  traced.run();

  Processor plain;
  plain.load(tracedProgram());
  plain.run();

  EXPECT_EQ(traced.cycles(), plain.cycles())
      << "tracing is observation only — identical cycle-accurate behaviour";
  EXPECT_EQ(traced.regs().peek(11), plain.regs().peek(11));
  EXPECT_GT(ring.accepted(), 0u);
}

TEST(ProcessorTracing, RegionNamesResolveInChromeExport) {
  Processor p;
  RingBufferSink ring;
  p.setTrace(&ring);
  p.load(tracedProgram());
  p.run();
  trace::TraceNames names;
  for (const KernelConfig& k : p.program().kernels)
    names.kernels.push_back(k.name);
  names.regions = p.program().regionNames;
  std::ostringstream os;
  trace::writeChromeTrace(ring.events(), os, names);
  JsonValue root = JsonParser(os.str()).parse();
  bool kernelRegion = false, accKernel = false;
  for (const JsonValue& e : root.at("traceEvents").array) {
    if (e.at("ph").str == "M") continue;
    if (e.at("name").str == "kernel region") kernelRegion = true;
    if (e.at("name").str == "acc") accKernel = true;
  }
  EXPECT_TRUE(kernelRegion) << "region marker name resolved";
  EXPECT_TRUE(accKernel) << "kernel name resolved";
}

TEST(ProcessorCounters, RegistryCoversEverySubsystemAndResets) {
  // The static table is the counter registry: unique names in sorted
  // (std::map) order, so folds and dumps line up index by index.
  std::set<std::string> names;
  for (std::size_t i = 0; i < trace::kProcessorCounterCount; ++i) {
    const std::string name = trace::kProcessorCounters[i].name;
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
    if (i > 0) {
      EXPECT_LT(trace::kProcessorCounters[i - 1].name, name);
    }
  }

  // The acceptance contract: core/VLIW/CGA/stall/sleep cycles, I$, L1
  // banks, CDRF/PRF ports, DMA all present under stable names.
  for (const char* key :
       {"core.cycles", "vliw.cycles", "vliw.stall_cycles", "cga.cycles",
        "cga.stall_cycles", "sleep.cycles", "mode.switches",
        "icache.accesses", "icache.misses", "l1.reads", "l1.writes",
        "l1.bank_conflicts", "l1.bank_conflict_cycles", "cdrf.reads",
        "cdrf.writes", "cprf.reads", "cprf.writes", "lrf.reads",
        "lrf.writes", "dma.transfers", "dma.words"})
    EXPECT_TRUE(names.count(key)) << key;

  Processor p;
  p.load(tracedProgram());
  p.run();
  trace::ProcessorCounterValues v{};
  trace::foldProcessorCounters(p, v);
  const auto value = [&](const std::string& name) {
    return v[static_cast<std::size_t>(
        std::distance(names.begin(), names.find(name)))];
  };
  for (const char* key :
       {"core.cycles", "vliw.cycles", "vliw.ops", "cga.cycles", "cga.ops",
        "icache.accesses", "icache.misses", "cdrf.reads", "cdrf.writes",
        "lrf.reads", "lrf.writes", "cfgmem.context_fetches"})
    EXPECT_GT(value(key), 0u) << key;
  EXPECT_EQ(value("mode.switches"), 2u);

  std::ostringstream os;
  trace::writeCountersJson(p, os);
  JsonValue root = JsonParser(os.str()).parse();
  EXPECT_EQ(root.at("schema").str, "adres.counters.v1");
  EXPECT_EQ(root.at("counters").object.size(), trace::kProcessorCounterCount);
  EXPECT_EQ(root.at("counters").at("core.cycles").number,
            static_cast<double>(value("core.cycles")));
  EXPECT_EQ(root.at("groups").at("region").at("kernel region.entries").number,
            1.0);

  // DMA stats deliberately survive resetStats (they account program-load
  // transfers); every other counter returns to zero.
  p.resetStats();
  for (const trace::ProcessorCounter& c : trace::kProcessorCounters) {
    if (std::string(c.name).rfind("dma.", 0) == 0) continue;
    EXPECT_EQ(c.read(p), 0u) << c.name << " after resetStats";
  }
}

}  // namespace
}  // namespace adres
