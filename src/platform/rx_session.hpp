// RxSession: a reusable receive context — one Processor plus the modem
// program for its ModemConfig, built ONCE and shared through a process-wide
// cache keyed by the configuration.  The DRESC-style kernel mapping that
// dominates set-up runs once per process: every cached program is built
// from one shared mapped kernel set.  decode() then
// only pays waveform DMA + execution + result decode per packet, which is
// what a deployed platform re-running the resident program would do.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sdr/modem_program.hpp"
#include "trace/counters.hpp"
#include "trace/profile.hpp"

namespace adres::platform {

/// Returns the shared mapped modem program for `cfg`, building it on the
/// first request for that configuration from the process-wide mapped
/// kernel set (mapped on the first request of all).  Thread-safe; identical
/// configs always yield the same object.
std::shared_ptr<const sdr::ModemOnProcessor> modemProgramFor(
    const dsp::ModemConfig& cfg);

/// Drops every cached program and the mapped kernel set, so the next
/// modemProgramFor maps from scratch (test/benchmark hook; outstanding
/// shared_ptrs stay valid).
void clearModemProgramCache();

/// Counter totals accumulated across the packets a session decoded.
/// Processor stats reset on every program load, so the session sums each
/// packet's snapshot; FarmStats merges these across workers.
struct SessionStats {
  u64 packets = 0;
  std::map<std::string, u64> counters;
  std::map<std::string, std::map<std::string, u64>> groups;
  /// Cycle-attribution summary; populated only when the session's run
  /// options enable kernel profiling.
  trace::ProfileSummary profile;

  void merge(const SessionStats& other);
};

class RxSession {
 public:
  explicit RxSession(const dsp::ModemConfig& cfg, sdr::RxRunOptions opts = {});

  /// Decodes one packet with the resident program.
  sdr::ProcessorRxResult decode(const std::array<std::vector<cint16>, 2>& rx);

  /// Allocation-free variant: decodes into `out`, reusing its capacity.
  /// Combined with the session's warm program reload and the lazily
  /// materialized stats fold, a steady-state call performs no heap
  /// allocation (tools/alloc_gate asserts this) — the packet-farm hot path.
  /// `maxCyclesOverride` != 0 caps this one decode at
  /// min(override, session maxCycles) simulated cycles (RxJob::maxCycles,
  /// the cell layer's per-packet deadline budget); the session budget is
  /// restored afterwards.
  void decodeInto(const std::array<std::vector<cint16>, 2>& rx,
                  sdr::ProcessorRxResult& out, u64 maxCyclesOverride = 0);

  const dsp::ModemConfig& config() const { return modem_->config; }
  const sdr::ModemOnProcessor& modem() const { return *modem_; }
  Processor& processor() { return proc_; }
  const Processor& processor() const { return proc_; }
  /// Session totals.  Non-const: the per-packet fold keeps counters and
  /// region profiles numerically and this call materializes the
  /// string-keyed maps on demand, so the hot path never touches a string.
  const SessionStats& stats();

 private:
  std::shared_ptr<const sdr::ModemOnProcessor> modem_;
  sdr::RxRunOptions opts_;
  Processor proc_;
  SessionStats stats_;
  /// Numeric totals folded per packet: the static processor counters by
  /// table index and region profiles by id.  stats() turns them into the
  /// string-keyed `counters` map and `groups["region"]` block on demand.
  trace::ProcessorCounterValues counterTotals_{};
  std::map<int, RegionProfile> regionTotals_;
  bool statsDirty_ = false;
};

}  // namespace adres::platform
