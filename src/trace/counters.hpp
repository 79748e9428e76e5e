// Processor counters: the stable `adres.counters.v1` schema over the
// simulator's scattered statistics (ActivityCounters, L1/I$/config-memory/
// RF/DMA stats, region profiles), plus its one JSON serializer.
//
// Naming scheme (DESIGN.md "Observability"): dot-separated
// `<component>.<metric>` keys, lower_snake metrics — e.g. `cga.cycles`,
// `l1.bank_conflicts`, `cdrf.reads`.  The static key set is one name-sorted
// table of plain reads of a Processor, so dumps from different runs diff
// cleanly and a fold over it is N direct calls.  The dynamic `region` group
// adds one key block per visited region.
//
// Every read is of live, unsynchronized component statistics: read on the
// thread that drives the Processor.  Cross-thread consumers (the packet
// farm's live metrics) read published SessionStats copies instead.
#pragma once

#include <array>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace adres {
class Processor;
struct RegionProfile;
}

namespace adres::trace {

/// One static counter: its schema name and a plain read of the processor.
struct ProcessorCounter {
  const char* name;
  u64 (*read)(const Processor&);
};

inline constexpr std::size_t kProcessorCounterCount = 32;
using ProcessorCounterValues = std::array<u64, kProcessorCounterCount>;

/// Every static processor counter, sorted by name (std::map order, so a
/// values array and a name-keyed map line up index by index).
extern const std::array<ProcessorCounter, kProcessorCounterCount>
    kProcessorCounters;

/// Adds every static counter's current value into `into`, index by index.
void foldProcessorCounters(const Processor& proc,
                           ProcessorCounterValues& into);

/// The `region` group block: `<name>.{cycles,ops,vliw_cycles,cga_cycles,
/// entries}` per region id, named from `names` (`region<id>` when the id
/// has no name).
std::map<std::string, u64> regionBlock(
    const std::map<int, RegionProfile>& profiles,
    const std::vector<std::string>& names);

/// Writes the adres.counters.v1 JSON for already-materialized values:
/// {"schema":"adres.counters.v1","counters":{...},"groups":{prefix:{...}}}.
/// When `workers` > 0 the dump is an aggregate merged across that many
/// parallel workers and carries the schema's `workers` extension field
/// (the counter values are then sums over every worker).
void writeCountersJson(
    std::ostream& os, const std::map<std::string, u64>& counters,
    const std::map<std::string, std::map<std::string, u64>>& groups,
    int workers = 0);

/// One-shot counters dump of `proc`'s current statistics.
void writeCountersJson(const Processor& proc, std::ostream& os);

/// Per-region summary table (name, entries, cycles, mode, IPC) to `out`.
void printRegionTable(const Processor& proc, std::FILE* out = stdout);

}  // namespace adres::trace
