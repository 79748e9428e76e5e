#include "trace/counters.hpp"

#include <algorithm>
#include <string_view>

#include "common/json_write.hpp"
#include "core/processor.hpp"

namespace adres::trace {
namespace {

using P = const Processor&;

std::string regionName(const std::vector<std::string>& names, int id) {
  if (id >= 0 && static_cast<std::size_t>(id) < names.size())
    return names[static_cast<std::size_t>(id)];
  return "region" + std::to_string(id);
}

}  // namespace

constexpr std::array<ProcessorCounter, kProcessorCounterCount>
    kProcessorCounters = {{
        {"cdrf.cga_accesses", [](P p) { return p.activity().cdrfCgaAccesses; }},
        {"cdrf.reads", [](P p) { return p.regs().stats().reads; }},
        {"cdrf.writes", [](P p) { return p.regs().stats().writes; }},
        {"cfgmem.context_fetches",
         [](P p) { return p.configMem().stats().contextFetches; }},
        {"cfgmem.dma_bytes", [](P p) { return p.configMem().stats().dmaBytes; }},
        {"cga.cycles", [](P p) { return p.activity().cgaCycles; }},
        {"cga.ops", [](P p) { return p.activity().cgaOps; }},
        {"cga.route_moves", [](P p) { return p.activity().cgaRouteMoves; }},
        {"cga.stall_cycles", [](P p) { return p.activity().cgaStallCycles; }},
        {"core.cycles", [](P p) { return p.activity().totalCycles(); }},
        {"cprf.reads", [](P p) { return p.regs().predStats().reads; }},
        {"cprf.writes", [](P p) { return p.regs().predStats().writes; }},
        {"dma.core_cycles", [](P p) { return p.dma().stats().coreCycles; }},
        {"dma.transfers", [](P p) { return p.dma().stats().transfers; }},
        {"dma.words", [](P p) { return p.dma().stats().wordsMoved; }},
        {"icache.accesses", [](P p) { return p.icache().stats().accesses; }},
        {"icache.misses", [](P p) { return p.icache().stats().misses; }},
        {"l1.bank_conflict_cycles",
         [](P p) { return p.l1().stats().conflictCycles; }},
        {"l1.bank_conflicts", [](P p) { return p.l1().stats().conflicts; }},
        {"l1.cga_accesses", [](P p) { return p.activity().l1CgaAccesses; }},
        {"l1.reads", [](P p) { return p.l1().stats().reads; }},
        {"l1.writes", [](P p) { return p.l1().stats().writes; }},
        {"lrf.reads", [](P p) { return p.cga().localRfTotals().reads; }},
        {"lrf.writes", [](P p) { return p.cga().localRfTotals().writes; }},
        {"mode.switches", [](P p) { return p.activity().modeSwitches; }},
        {"ops16", [](P p) { return p.activity().ops16; }},
        {"simd.ops", [](P p) { return p.activity().simdOps; }},
        {"sleep.cycles", [](P p) { return p.activity().sleepCycles; }},
        {"transports", [](P p) { return p.activity().transports; }},
        {"vliw.cycles", [](P p) { return p.activity().vliwCycles; }},
        {"vliw.ops", [](P p) { return p.activity().vliwOps; }},
        {"vliw.stall_cycles", [](P p) { return p.activity().vliwStallCycles; }},
    }};

static_assert(std::is_sorted(kProcessorCounters.begin(),
                             kProcessorCounters.end(),
                             [](const ProcessorCounter& a,
                                const ProcessorCounter& b) {
                               return std::string_view(a.name) <
                                      std::string_view(b.name);
                             }),
              "kProcessorCounters must stay sorted by name");

void foldProcessorCounters(const Processor& proc,
                           ProcessorCounterValues& into) {
  for (std::size_t i = 0; i < kProcessorCounterCount; ++i)
    into[i] += kProcessorCounters[i].read(proc);
}

std::map<std::string, u64> regionBlock(
    const std::map<int, RegionProfile>& profiles,
    const std::vector<std::string>& names) {
  std::map<std::string, u64> block;
  for (const auto& [id, prof] : profiles) {
    const std::string base = regionName(names, id);
    block[base + ".cycles"] += prof.cycles;
    block[base + ".ops"] += prof.ops;
    block[base + ".vliw_cycles"] += prof.vliwCycles;
    block[base + ".cga_cycles"] += prof.cgaCycles;
    block[base + ".entries"] += prof.entries;
  }
  return block;
}

void writeCountersJson(
    std::ostream& os, const std::map<std::string, u64>& counters,
    const std::map<std::string, std::map<std::string, u64>>& groups,
    int workers) {
  JsonWriter w(os);
  w.beginObject().field("schema", "adres.counters.v1");
  if (workers > 0) w.field("workers", workers);
  w.key("counters").beginObject();
  for (const auto& [name, value] : counters) w.field(name, value);
  w.end().key("groups").beginObject();
  for (const auto& [prefix, block] : groups) {
    w.key(prefix).beginObject();
    for (const auto& [suffix, value] : block) w.field(suffix, value);
    w.end();
  }
  w.end().end();
}

void writeCountersJson(const Processor& proc, std::ostream& os) {
  std::map<std::string, u64> counters;
  for (const ProcessorCounter& c : kProcessorCounters)
    counters.emplace(c.name, c.read(proc));
  writeCountersJson(
      os, counters,
      {{"region", regionBlock(proc.profiles(), proc.program().regionNames)}});
}

void printRegionTable(const Processor& proc, std::FILE* out) {
  std::fprintf(out, "%-26s %8s %10s %7s %6s  %s\n", "region", "entries",
               "cycles", "ops/e", "IPC", "mode");
  std::fprintf(out,
               "----------------------------------------------------------"
               "--------\n");
  u64 total = 0;
  for (const auto& [id, prof] : proc.profiles()) {
    total += prof.cycles;
    std::fprintf(out, "%-26s %8llu %10llu %7llu %6.2f  %s\n",
                 regionName(proc.program().regionNames, id).c_str(),
                 static_cast<unsigned long long>(prof.entries),
                 static_cast<unsigned long long>(prof.cycles),
                 static_cast<unsigned long long>(
                     prof.entries ? prof.ops / prof.entries : 0),
                 prof.ipc(), prof.mode().c_str());
  }
  std::fprintf(out,
               "----------------------------------------------------------"
               "--------\n");
  std::fprintf(out, "%-26s %8s %10llu\n", "total profiled", "",
               static_cast<unsigned long long>(total));
}

}  // namespace adres::trace
