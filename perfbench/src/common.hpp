// Shared plumbing of the three workloads: run options, the result record
// (metrics, correctness, failure accounting), timing helpers and the layer
// probes every workload runs in its traced run.
#pragma once

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cga/exec_tier.hpp"
#include "common/types.hpp"
#include "dsp/channel.hpp"
#include "dsp/modem.hpp"
#include "platform/packet_farm.hpp"
#include "probe.hpp"
#include "spans.hpp"

namespace perfbench {

using adres::u64;

/// The tier every workload runs.  Pinned instead of defaultExecTier(),
/// which follows ADRES_EXEC_TIER from the environment.
inline constexpr adres::ExecTier kTier = adres::ExecTier::kNative;
/// Host farm workers: on a 4-vCPU KVM guest two workers already scaled
/// only 1.0-1.26x, so more would add contention, not throughput.
inline constexpr int kWorkers = 2;
/// Offered packets per second per user in cell-sweep (simulated time);
/// also the rate behind the capacity bound the other workloads report as
/// sustained_users.
inline constexpr double kUserPps = 200.0;
/// Simulated servers per cell (cell-sweep and the capacity bound).
inline constexpr int kServers = 2;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setupOnly = false;  ///< run set-up, report setup_s, exit
  bool tiny = false;       ///< smoke-test sizes
  std::string outDir;      ///< where spans and cross-run fixtures go
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload run reports.  `e2e` metrics come from untraced passes,
/// `layer` metrics from the traced run.
struct Result {
  bool correct = true;
  u64 attempted = 0;  ///< decodes attempted in timed passes + checks made
  u64 failed = 0;     ///< unrequested non-halt stops + failed checks
  double setupS = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      correct = false;
      ++failed;
      std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
    }
  }
  void addE2e(std::string name, double v, std::string unit) {
    e2e.push_back({std::move(name), v, std::move(unit)});
  }
  void addLayer(std::string name, double v, std::string unit) {
    layer.push_back({std::move(name), v, std::move(unit)});
  }
};

/// Everything a workload needs from main().
struct Context {
  Options opt;
  SpanRecorder spans{false};
  SpeedProbe probe;  ///< runs from process start to exit
  SpeedProbe::Mark start = probe.mark();  ///< process start
  std::string fingerprintJson;
};

inline double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Set-up time so far at the reference speed: wall time since process
/// start over the probe's slowdown since then.  Prints both.
double scaledSetupS(const Context& ctx);

/// Simulated-time figures of one fixed set of decodes; every one is a
/// deterministic function of the workload's inputs.
struct SimTotals {
  u64 packets = 0;     ///< decodes
  u64 perPackets = 0;  ///< packets the PER is taken over
  u64 cycles = 0;
  u64 payloadBits = 0;  ///< bits the packets carry (delivered or not)
  u64 packetErrors = 0;  ///< packets with any bit error or lost
  double energyNj = 0;   ///< activity-model decode energy
  bool operator==(const SimTotals&) const = default;
};

/// Decode energy in nanojoules at the 400 MHz clock (the campaign runner's
/// formula).
inline double decodeEnergyNj(double avgPowerMw, u64 cycles) {
  return avgPowerMw * static_cast<double>(cycles) / 400.0;
}

/// Host-time figures of the timed passes.  Wall figures are as measured;
/// scaled ones are at the reference host speed: rates multiplied and times
/// divided by the speed probe's slowdown over the same window (probe.hpp).
struct HostTotals {
  std::vector<double> passRate;        ///< packets per wall second, per pass
  std::vector<double> scaledPassRate;  ///< the same at the reference speed
  std::vector<double> passSlowdown;    ///< probe slowdown over each pass
  std::vector<double> decodeMs;        ///< per-decode wall ms (RxOutcome::hostUs)
  std::vector<double> scaledDecodeMs;  ///< decodeMs at the reference speed
};

/// One timed window of a pass.
class PassTimer {
 public:
  PassTimer(const SpeedProbe& probe, HostTotals& host);
  /// Closes the window and returns the probe's slowdown over it.  Records
  /// the pass rate of `packets` (wall and scaled) unless it is 0, and
  /// scales the decode samples added to host.decodeMs since construction.
  double finish(u64 packets);

 private:
  const SpeedProbe& probe_;
  HostTotals& host_;
  SpeedProbe::Mark start_;
  std::size_t decodes0_;
};

/// Passes every workload runs at least.  Peak RSS is read after pass 1 and
/// after this pass, so peak_rss_mb covers a fixed amount of work whatever
/// --seconds is, and growth across passes shows in it.
inline constexpr int kRssPasses = 3;

/// Peak resident set readings of the timed passes.
struct PassRss {
  double afterFirstMb = 0;  ///< after set-up and pass 1
  double afterFixedMb = 0;  ///< after pass kRssPasses: peak_rss_mb
  double growthMbPerPass() const {
    return (afterFixedMb - afterFirstMb) / (kRssPasses - 1);
  }
};

/// Adds the end-to-end metrics every workload reports.  The scaled decode
/// p50 is passed in because cell-sweep reads it from the farm histogram.
/// The decode tail is left to the per-layer set (host.wall_decode_ms_p95,
/// platform.decode_ms_p99): a host stall lengthens a few percent of the
/// decodes, which is the tail itself, so no scaling takes the host out of
/// it.
void addEndToEnd(Result& r, const SimTotals& sim, const HostTotals& host,
                 double scaledDecodeMsP50, const PassRss& rss, double sustainedUsers);

/// Users/cell the workload's packets could sustain on kServers simulated
/// 400 MHz servers at kUserPps per user (utilisation 1): the capacity bound
/// reported as sustained_users where no cell DES runs.
double capacityUsers(double simCyclesPerPkt);

/// Peak resident set of this process, MB.
double peakRssMb();

/// Runs a pass function until `seconds` of host time have elapsed (at
/// least kRssPasses passes) and returns the peak RSS readings.  In a traced
/// run passes alternate untraced / traced (the recorder is switched per
/// pass), so both halves see the same host conditions; `traced` tells the
/// pass which half it is in.
PassRss runPasses(Context& ctx, double seconds,
                  const std::function<void(bool traced)>& pass);

/// Table 2 model accuracy: decodes the paper's profiling packet (QAM-64,
/// 16 symbols, flat channel, 40 dB, 6 ppm) and splits region cycles into
/// preamble and per-symbol-pair data totals the way
/// bench_table2_profiling does.  Prints the errors against the paper and,
/// in a traced run, adds them as sdr.table2_err_pct.{preamble,data}.
void table2Accuracy(Context& ctx, Result& r);

/// Layer probes of the traced run, each replaying the workload's own
/// inputs through one layer's public entry point under spans:
///   sched  — scheduleKernel on the 17 Table 2 fixture DFGs
///   sdr    — cold buildModemProgram for each config
///   cga    — cold plansFor(native); native CgaArray::run on the fixtures
///   core   — RxSession::decodeInto and warm Processor::load over `inputs`
/// and the simulated counters per packet of those decodes.
struct ProbeInput {
  adres::dsp::ModemConfig modem;
  adres::dsp::ChannelConfig channel;  ///< carries the packet's channel seed
  u64 txSeed = 0;                     ///< payload stream seed
  u64 maxCycles = 0;  ///< per-decode budget (0 = session default)
};
void layerProbes(Context& ctx, Result& r,
                 const std::vector<adres::dsp::ModemConfig>& configs,
                 const std::vector<ProbeInput>& inputs);

/// Per-layer platform metrics from the packet spans of the traced passes
/// ("packet" > "platform.queue_wait", "core.decode") and the pass spans,
/// including the decode p99 that the end-to-end set leaves out (its
/// run-to-run spread on a noisy host is wider than any usable bound).
void platformFromSpans(Context& ctx, Result& r, const char* passSpan,
                       double backpressureNs);

/// Adds obs.health_events, platform.rss_growth_mb_per_pass,
/// trace_overhead_pct (untraced vs traced scaled pass rate; host[0] holds
/// the untraced passes, host[1] the traced ones), the untraced passes' wall
/// figures host.wall_pkts_per_s and host.wall_decode_ms_p50/p95 (cell-sweep
/// reads them from its histogram), and their median probe slowdown.
void addRunLayers(Result& r, const HostTotals host[2], u64 healthEvents,
                  const PassRss& rss, std::pair<double, double> wallDecodeMs);

/// Wall decode p50 and p95 (blocked, kTailBlock) of host.decodeMs.
std::pair<double, double> wallDecodeMs(const HostTotals& host);

/// Records one farm outcome as a packet span under `parent`: the queue wait
/// and the decode, placed from the submit instant `submitUs`.
void addPacketSpans(SpanRecorder& rec, std::uint32_t parent,
                    const adres::platform::RxOutcome& o, double submitUs);

/// Number of watchdog health events of `farm` of one kind.  Where the
/// outcomes are out of reach (cell-sweep), kCancelled events count the
/// decodes that stopped for a reason the workload did not ask for.
u64 healthEventsOf(const adres::platform::PacketFarm& farm,
                   adres::obs::HealthEvent::Kind kind);

/// Cross-run determinism check: writes `bytes` to a file in the output
/// directory named after `kind`, `inputsKey` (a hash of everything the
/// bytes depend on) and the identity of this build when absent, else
/// compares.  Returns false on a mismatch.  Keying on the build means a
/// fixture written by one version of the code is never held against
/// another, whose simulated cycles may legitimately differ.
bool matchOrRecord(const Context& ctx, const std::string& kind, u64 inputsKey,
                   const std::string& bytes);

/// The users/cell values cell-sweep runs (names cell.miss_rate.<users>).
std::vector<int> cellUsersList();

/// The workloads.
Result runDecodeLong(Context& ctx);
Result runCampaignSweep(Context& ctx);
Result runCellSweep(Context& ctx);

}  // namespace perfbench
