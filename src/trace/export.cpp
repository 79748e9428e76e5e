#include "trace/export.hpp"

#include <string>

#include "common/check.hpp"
#include "isa/opcodes.hpp"

namespace adres {

const char* traceEventKindName(TraceEventKind k) {
  switch (k) {
    case TraceEventKind::kModeSwitch: return "mode_switch";
    case TraceEventKind::kKernel: return "kernel";
    case TraceEventKind::kFuActive: return "fu_active";
    case TraceEventKind::kVliwOp: return "vliw_op";
    case TraceEventKind::kVliwStall: return "vliw_stall";
    case TraceEventKind::kCgaStall: return "cga_stall";
    case TraceEventKind::kICacheMiss: return "icache_miss";
    case TraceEventKind::kL1Conflict: return "l1_conflict";
    case TraceEventKind::kDmaTransfer: return "dma_transfer";
    case TraceEventKind::kAhbRead: return "ahb_read";
    case TraceEventKind::kAhbWrite: return "ahb_write";
    case TraceEventKind::kRegionEnter: return "region_enter";
    case TraceEventKind::kRegionExit: return "region";
    case TraceEventKind::kHalt: return "halt";
    case TraceEventKind::kResume: return "resume";
  }
  return "?";
}

const char* stallCauseName(StallCause c) {
  switch (c) {
    case StallCause::kHazard: return "hazard";
    case StallCause::kICacheMiss: return "icache_miss";
    case StallCause::kDrain: return "drain";
    case StallCause::kL1Contention: return "l1_contention";
  }
  return "?";
}

}  // namespace adres

namespace adres::trace {
namespace {

std::string lookup(const std::vector<std::string>& names, u32 idx,
                   const char* fallbackPrefix) {
  if (idx < names.size() && !names[idx].empty()) return names[idx];
  return std::string(fallbackPrefix) + std::to_string(idx);
}

int tidOf(const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kVliwOp:
    case TraceEventKind::kVliwStall:
      return e.kind == TraceEventKind::kVliwOp ? tid::kVliwSlot0 + e.track
                                               : tid::kCore;
    case TraceEventKind::kFuActive:
      return tid::kCgaFu0 + e.track;
    case TraceEventKind::kL1Conflict:
      return tid::kL1Bank0 + e.track;
    case TraceEventKind::kICacheMiss:
      return tid::kICache;
    case TraceEventKind::kDmaTransfer:
      return tid::kDma;
    case TraceEventKind::kAhbRead:
    case TraceEventKind::kAhbWrite:
      return tid::kAhb;
    default:
      return tid::kCore;
  }
}

std::string nameOf(const TraceEvent& e, const TraceNames& names) {
  switch (e.kind) {
    case TraceEventKind::kModeSwitch:
      return e.a == 0 ? "vliw->cga" : "cga->vliw";
    case TraceEventKind::kKernel:
      return lookup(names.kernels, e.a, "kernel");
    case TraceEventKind::kFuActive:
      return lookup(names.kernels, e.a, "kernel");
    case TraceEventKind::kVliwOp:
      if (e.a < static_cast<u32>(kOpcodeCount))
        return std::string(opInfo(static_cast<Opcode>(e.a)).name);
      return "op" + std::to_string(e.a);
    case TraceEventKind::kVliwStall:
    case TraceEventKind::kCgaStall:
      return std::string("stall:") +
             stallCauseName(static_cast<StallCause>(e.a));
    case TraceEventKind::kICacheMiss:
      return "I$ miss";
    case TraceEventKind::kL1Conflict:
      return "bank conflict";
    case TraceEventKind::kDmaTransfer:
      return "dma";
    case TraceEventKind::kAhbRead:
      return "ahb read";
    case TraceEventKind::kAhbWrite:
      return "ahb write";
    case TraceEventKind::kRegionEnter:
      return "enter " + lookup(names.regions, e.a, "region");
    case TraceEventKind::kRegionExit:
      return lookup(names.regions, e.a, "region");
    case TraceEventKind::kHalt:
      return "halt";
    case TraceEventKind::kResume:
      return "resume";
  }
  return "?";
}

constexpr auto kCompact = JsonWriter::kCompact;

void writeThreadName(JsonWriter& w, int tidNum, const std::string& name) {
  w.lineBreak().beginObject(kCompact).field("name", "thread_name");
  w.field("ph", "M").field("pid", 1).field("tid", tidNum);
  w.key("args").beginObject(kCompact).field("name", name).end().end();
}

}  // namespace

void writeChromeTrace(const std::vector<TraceEvent>& events, std::ostream& os,
                      const TraceNames& names, double cyclePeriodUs) {
  JsonWriter w(os);
  w.beginObject(kCompact).field("displayTimeUnit", "ns");
  w.key("traceEvents").beginArray(kCompact);
  writeThreadName(w, tid::kCore, "core");
  for (int s = 0; s < 3; ++s)
    writeThreadName(w, tid::kVliwSlot0 + s, "vliw.slot" + std::to_string(s));
  for (int fu = 0; fu < 16; ++fu)
    writeThreadName(w, tid::kCgaFu0 + fu,
                    "cga.fu" + std::string(fu < 10 ? "0" : "") +
                        std::to_string(fu));
  for (int b = 0; b < 4; ++b)
    writeThreadName(w, tid::kL1Bank0 + b, "l1.bank" + std::to_string(b));
  writeThreadName(w, tid::kICache, "icache");
  writeThreadName(w, tid::kDma, "dma");
  writeThreadName(w, tid::kAhb, "ahb");

  for (const TraceEvent& e : events) {
    const bool span = e.dur > 0;
    w.lineBreak().beginObject(kCompact).field("name", nameOf(e, names));
    w.field("ph", span ? "X" : "i");
    w.field("ts", static_cast<double>(e.cycle) * cyclePeriodUs);
    if (span) w.field("dur", static_cast<double>(e.dur) * cyclePeriodUs);
    if (!span) w.field("s", "t");  // thread-scoped instant
    w.field("pid", 1).field("tid", tidOf(e)).key("args").beginObject(kCompact);
    w.field("cycle", e.cycle).field("dur_cycles", e.dur);
    w.field("kind", traceEventKindName(e.kind));
    w.field("a", e.a).field("b", e.b).end().end();
  }
  w.lineBreak().end().end();
}

void writeSpansJson(JsonWriter& w, const std::vector<Span>& spans) {
  w.beginArray();
  for (const Span& s : spans) {
    w.beginObject(JsonWriter::kInline);
    w.field("kind", spanKindName(s.kind)).field("name", s.name);
    w.field("start_us", s.startUs).field("dur_us", s.durUs);
    w.field("start_cycle", s.startCycle).field("cycles", s.cycles);
    w.field("ops", s.ops).end();
  }
  w.end();
}

void writeTraceEventsJson(JsonWriter& w, const std::vector<TraceEvent>& ring) {
  w.beginArray();
  for (const TraceEvent& e : ring) {
    w.beginObject(JsonWriter::kInline);
    w.field("cycle", e.cycle).field("dur", e.dur);
    w.field("kind", traceEventKindName(e.kind)).field("track", e.track);
    w.field("a", e.a).field("b", e.b).end();
  }
  w.end();
}

SpanKind spanKindFromName(std::string_view name) {
  for (int k = 0; k <= static_cast<int>(SpanKind::kRegion); ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    if (name == spanKindName(kind)) return kind;
  }
  ADRES_CHECK(false, "unknown span kind '" << std::string(name) << '\'');
}

TraceEventKind traceEventKindFromName(std::string_view name) {
  for (int k = 0; k <= static_cast<int>(TraceEventKind::kResume); ++k) {
    const TraceEventKind kind = static_cast<TraceEventKind>(k);
    if (name == traceEventKindName(kind)) return kind;
  }
  ADRES_CHECK(false, "unknown trace event kind '" << std::string(name) << '\'');
}

}  // namespace adres::trace
