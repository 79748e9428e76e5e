#include "platform/rx_session.hpp"

#include <mutex>
#include <utility>

namespace adres::platform {
namespace {

struct ProgramCache {
  std::mutex mu;
  // The process-wide mapped kernel set, mapped on the first miss: every
  // cached program is built from it, so N configurations cost one mapping.
  std::shared_ptr<const sdr::ModemKernels> kernels;
  // Key: (modulation, numSymbols) — the full build input.  The cached
  // ModemOnProcessor carries the per-tier plan cache, so every session
  // sharing a program also shares one pre-decoded plan set per exec tier
  // (Processor::load adopts it instead of re-decoding per worker).
  std::map<std::pair<int, int>, std::shared_ptr<const sdr::ModemOnProcessor>>
      byConfig;
};

ProgramCache& cache() {
  static ProgramCache c;
  return c;
}

}  // namespace

std::shared_ptr<const sdr::ModemOnProcessor> modemProgramFor(
    const dsp::ModemConfig& cfg) {
  const auto key = std::make_pair(static_cast<int>(cfg.mod), cfg.numSymbols);
  ProgramCache& c = cache();
  std::lock_guard<std::mutex> lk(c.mu);
  auto it = c.byConfig.find(key);
  if (it == c.byConfig.end()) {
    if (!c.kernels) c.kernels = sdr::mapModemKernels();
    it = c.byConfig
             .emplace(key, std::make_shared<const sdr::ModemOnProcessor>(
                               sdr::buildModemProgram(cfg, c.kernels)))
             .first;
  }
  return it->second;
}

void clearModemProgramCache() {
  ProgramCache& c = cache();
  std::lock_guard<std::mutex> lk(c.mu);
  c.byConfig.clear();
  c.kernels.reset();
}

void SessionStats::merge(const SessionStats& other) {
  packets += other.packets;
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [prefix, block] : other.groups) {
    auto& mine = groups[prefix];
    for (const auto& [suffix, value] : block) mine[suffix] += value;
  }
  profile.merge(other.profile);
}

RxSession::RxSession(const dsp::ModemConfig& cfg, sdr::RxRunOptions opts)
    : modem_(modemProgramFor(cfg)), opts_(std::move(opts)) {
  // Resolve the exec policy's plan set once per session: every decode then
  // loads with the shared per-tier plans instead of consulting the cache.
  if (!opts_.exec.plans) opts_.exec.plans = modem_->plansFor(opts_.exec.tier);
  // The resident program is shared-const and never mutates between decodes,
  // so the session satisfies ExecPolicy::warmReload's immutability contract:
  // from the second decode on, load() only replays the DMA and state reset.
  opts_.exec.warmReload = true;
}

sdr::ProcessorRxResult RxSession::decode(
    const std::array<std::vector<cint16>, 2>& rx) {
  sdr::ProcessorRxResult res;
  decodeInto(rx, res);
  return res;
}

void RxSession::decodeInto(const std::array<std::vector<cint16>, 2>& rx,
                           sdr::ProcessorRxResult& out,
                           u64 maxCyclesOverride) {
  // DMA stats deliberately survive Processor::resetStats() (they account
  // the program-load transfers); clear them here so every decode's stats —
  // and the power model reading them — cover exactly one packet, as on a
  // freshly constructed processor.
  proc_.dma().resetStats();
  // A per-job budget tightens (never loosens) the session budget for this
  // decode only.  Swap-in/swap-out keeps the hot path allocation-free — no
  // RxRunOptions copy, and sessions are single-threaded by contract.
  const u64 sessionBudget = opts_.maxCycles;
  if (maxCyclesOverride != 0 && maxCyclesOverride < sessionBudget)
    opts_.maxCycles = maxCyclesOverride;
  sdr::runModemOnProcessor(proc_, *modem_, rx, opts_, out);
  opts_.maxCycles = sessionBudget;
  // Stats reset on the next load; fold this packet's into the session total
  // numerically (counters by table index, region profiles by id) — stats()
  // builds the string-keyed maps on demand, off the hot path.
  ++stats_.packets;
  if (opts_.profile) stats_.profile.addProcessor(proc_);
  trace::foldProcessorCounters(proc_, counterTotals_);
  for (const auto& [id, rp] : proc_.profiles()) {
    RegionProfile& t = regionTotals_[id];
    t.cycles += rp.cycles;
    t.vliwCycles += rp.vliwCycles;
    t.cgaCycles += rp.cgaCycles;
    t.ops += rp.ops;
    t.vliwOps += rp.vliwOps;
    t.cgaOps += rp.cgaOps;
    t.entries += rp.entries;
  }
  statsDirty_ = true;
}

const SessionStats& RxSession::stats() {
  if (statsDirty_) {
    // The map's keys are exactly the table's names in the same (sorted)
    // order once built, so later calls overwrite values in step.
    if (stats_.counters.empty()) {
      for (std::size_t i = 0; i < trace::kProcessorCounterCount; ++i)
        stats_.counters.emplace(trace::kProcessorCounters[i].name,
                                counterTotals_[i]);
    } else {
      auto it = stats_.counters.begin();
      for (const u64 v : counterTotals_) (it++)->second = v;
    }
    stats_.groups["region"] =
        trace::regionBlock(regionTotals_, modem_->program.regionNames);
    statsDirty_ = false;
  }
  return stats_;
}

}  // namespace adres::platform
