// cell-sweep: CellScheduler over a fixed list of users/cell at 2 simulated
// 400 MHz servers — QAM-16, 4 symbols, half the users Poisson and half CBR,
// SNR set by distance, 2 host workers.  Open loop in simulated time
// (arrivals against 4 ms frame deadlines); in host time each scenario feeds
// the farm in batches of 32, and each packet's transmit and channel run
// inline on the submitting thread.  The host work is therefore short
// (preamble-heavy) full-length decodes, serial per-packet generation and
// batch barriers; the result is the users/cell axis (sustained_users: the
// most users with <= 5% deadline misses).
//
// Not in this traffic, and printed by every run so it stays checked: the
// per-job cycle budget (the 4 ms deadline, 1.6 M cycles) never stops a
// decode of about 67 k cycles, the receive program runs to the end whether
// detection failed or not, and the scheduler decodes expired packets too.
//
// The scheduler consumes the farm's outcomes itself, so per-decode host
// times come from the farm's latency histogram (same hostUs values,
// log-linear buckets, interpolated by rank).
#include <memory>
#include <sstream>

#include "cell/scheduler.hpp"
#include "common.hpp"
#include "dsp/channel.hpp"
#include "platform/rx_session.hpp"
#include "power/energy_model.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace adres;

namespace {

constexpr double kTargetMiss = 0.05;
constexpr double kDeadlineUs = 4000.0;

cell::CellScenario scenarioFor(const Options& opt, int users) {
  cell::CellScenario sc;
  sc.seed = opt.seed;
  sc.modem.mod = dsp::Modulation::kQam16;
  sc.modem.numSymbols = 4;
  sc.numServers = kServers;
  sc.durationUs = opt.tiny ? 5'000.0 : 40'000.0;
  cell::FlowClass poisson;
  poisson.name = "poisson";
  poisson.users = (users + 1) / 2;
  poisson.arrival = cell::ArrivalKind::kPoisson;
  poisson.packetsPerSec = kUserPps;
  poisson.deadlineUs = kDeadlineUs;
  cell::FlowClass cbr = poisson;
  cbr.name = "cbr";
  cbr.users = users / 2;
  cbr.arrival = cell::ArrivalKind::kCbr;
  sc.classes = {poisson, cbr};
  return sc;
}

/// Users/cell at the kTargetMiss deadline-miss rate: linear interpolation
/// between the last list point at or under the target and the next one
/// (the largest point when none exceeds it, 0 when the first already does).
double sustainedUsers(const std::vector<int>& users,
                      const std::vector<cell::CellTotals>& totals) {
  if (totals.front().missRate() > kTargetMiss) return 0;
  for (std::size_t i = 1; i < users.size(); ++i) {
    const double hi = totals[i].missRate();
    if (hi <= kTargetMiss) continue;
    const double lo = totals[i - 1].missRate();
    return users[i - 1] +
           (users[i] - users[i - 1]) * (kTargetMiss - lo) / (hi - lo);
  }
  return users.back();
}

}  // namespace

std::vector<int> cellUsersList() { return {16, 32, 48, 56, 64, 72, 80}; }

Result runCellSweep(Context& ctx) {
  Result r;
  SpanRecorder& rec = ctx.spans;
  const std::vector<int> usersList = cellUsersList();
  const cell::CellScenario base = scenarioFor(ctx.opt, usersList.front());

  // ---- set-up ----
  platform::clearModemProgramCache();
  {
    ScopedSpan s(rec, "sdr.modemProgramFor");
    const auto m = platform::modemProgramFor(base.modem);
    ScopedSpan p(rec, "cga.plansFor");
    (void)m->plansFor(kTier);
  }
  platform::FarmConfig fc;
  fc.modem = base.modem;
  fc.numWorkers = kWorkers;
  fc.queueCapacity = 2 * kWorkers;
  fc.ordered = true;  // the DES folds outcomes in schedule order
  fc.run.exec.tier = kTier;
  std::unique_ptr<platform::PacketFarm> farm;
  {
    ScopedSpan s(rec, "platform.PacketFarm");
    farm = std::make_unique<platform::PacketFarm>(fc);
  }
  {
    // Warm-up: the first packets of the smallest scenario, one per worker.
    const std::vector<cell::UserFlow> flows = cell::expandFlows(base);
    const std::vector<cell::PacketEvent> evs = cell::buildSchedule(base, flows);
    for (int i = 0; i < kWorkers && i < static_cast<int>(evs.size()); ++i) {
      const cell::PacketEvent& ev = evs[static_cast<std::size_t>(i)];
      Rng tx(cell::packetSeed(base, ev.flowId, ev.seq, cell::kTxStream));
      const dsp::TxPacket pkt = dsp::transmit(base.modem, tx);
      dsp::MimoChannel ch(cell::packetChannel(base, flows[ev.flowId], ev));
      (void)farm->submit(ch.run(pkt.waveform));
    }
    for (const platform::RxOutcome& o : farm->collect())
      r.check(o.result.stop == StopReason::kHalt ||
                  o.result.stop == StopReason::kMaxCycles,
              "cell-sweep warm-up decodes end as requested");
  }
  r.setupS = scaledSetupS(ctx);
  if (ctx.opt.setupOnly) return r;

  // ---- timed passes: every users/cell scenario through the shared farm ----
  const auto latStart = farm->latencySnapshot();
  const auto wait0 = farm->queueWaitSnapshot();
  const u64 bp0 = farm->submitBackpressureNs();
  const auto timedStart = std::chrono::steady_clock::now();
  std::vector<std::string> firstSummaries;
  std::vector<cell::CellTotals> firstTotals;
  SimTotals sim;
  HostTotals host[2];
  // Per-pass wall decode p50 and p95 (untraced, traced passes); each pass is
  // a block of >= kTailBlock decodes, as blockedPercentile takes them.
  std::vector<double> passP50Ms[2], passP95Ms[2];
  u64 timedDecodes = 0;
  const PassRss rss = runPasses(ctx, ctx.opt.seconds, [&](bool traced) {
    const bool firstPass = firstSummaries.empty();
    ScopedSpan pass(rec, "cell.pass");
    PassTimer timer(ctx.probe, host[traced]);
    const auto cyc0 = farm->cycleSnapshot();
    const auto lat0 = farm->latencySnapshot();
    u64 decodes = 0;
    for (std::size_t i = 0; i < usersList.size(); ++i) {
      const cell::CellScenario sc = scenarioFor(ctx.opt, usersList[i]);
      cell::CellScheduler sched(sc);
      cell::CellTotals totals;
      {
        ScopedSpan s(rec, "cell.run");
        totals = sched.run(*farm);
      }
      std::string why;
      r.check(sched.selfCheck(&why), "cell-sweep accounting self-check: " + why);
      std::ostringstream os;
      sched.writeSummary(os);
      decodes += totals.offered;
      if (firstPass) {
        firstSummaries.push_back(os.str());
        firstTotals.push_back(totals);
        sim.perPackets += totals.delivered + totals.errors;
        sim.packetErrors += totals.errors;
        sim.payloadBits += totals.offered *
                           static_cast<u64>(dsp::bitsPerOfdmSymbol(sc.modem) *
                                            sc.modem.numSymbols);
      } else {
        r.check(os.str() == firstSummaries[i],
                "cell-sweep adres.cell.v1 summary repeats pass 1 byte for byte");
      }
    }
    timer.finish(decodes);
    const auto cyc = histogramDelta(cyc0, farm->cycleSnapshot());
    r.check(cyc.count == decodes, "cell-sweep farm decoded every offered packet");
    if (firstPass) {
      sim.packets = cyc.count;
      sim.cycles = cyc.sum;
    } else {
      r.check(cyc.sum == sim.cycles, "cell-sweep pass repeats pass 1's cycles");
    }
    r.attempted += decodes;
    timedDecodes += decodes;
    const auto passLat = histogramDelta(lat0, farm->latencySnapshot());
    passP50Ms[traced].push_back(interpolatedQuantile(passLat, 0.5) / 1e6);
    passP95Ms[traced].push_back(interpolatedQuantile(passLat, 0.95) / 1e6);
  });
  const double timedWallNs = secondsSince(timedStart) * 1e9;
  const auto lat = histogramDelta(latStart, farm->latencySnapshot());
  const auto wait = histogramDelta(wait0, farm->queueWaitSnapshot());
  const double backpressureNs = static_cast<double>(farm->submitBackpressureNs() - bp0);
  (void)farm->finish();
  const u64 health = farm->healthEvents().size();
  r.failed += healthEventsOf(*farm, obs::HealthEvent::Kind::kCancelled);
  const u64 budgetStops = healthEventsOf(*farm, obs::HealthEvent::Kind::kBudgetExhausted);

  std::string all;
  u64 key = 0;
  for (std::size_t i = 0; i < usersList.size(); ++i) {
    all += firstSummaries[i];
    key = hashCombine(key, cell::stableHash(scenarioFor(ctx.opt, usersList[i])));
  }
  r.check(matchOrRecord(ctx, "cell", key, all),
          "cell-sweep adres.cell.v1 summaries match earlier runs of these scenarios");

  // Sustained users and the decode sample: the scheduler keeps per-decode
  // power and detection private, so energy and the undetected share come
  // from single-session decodes of the largest scenario's first packets,
  // with their cycle budgets.
  const double sustained = sustainedUsers(usersList, firstTotals);
  const cell::CellScenario big = scenarioFor(ctx.opt, usersList.back());
  const std::vector<cell::UserFlow> flows = cell::expandFlows(big);
  const std::vector<cell::PacketEvent> evs = cell::buildSchedule(big, flows);
  std::vector<ProbeInput> inputs;
  for (std::size_t i = 0; i < evs.size() && i < (ctx.opt.tiny ? 2u : 128u); ++i) {
    ProbeInput in;
    in.modem = big.modem;
    in.channel = cell::packetChannel(big, flows[evs[i].flowId], evs[i]);
    in.txSeed = cell::packetSeed(big, evs[i].flowId, evs[i].seq, cell::kTxStream);
    in.maxCycles = cell::usToCycles(flows[evs[i].flowId].deadlineUs);
    inputs.push_back(in);
  }
  {
    platform::RxSession session(big.modem, [] {
      sdr::RxRunOptions o;
      o.exec.tier = kTier;
      return o;
    }());
    double nj = 0;
    u64 bits = 0, undetected = 0;
    sdr::ProcessorRxResult out;
    for (const ProbeInput& in : inputs) {
      Rng tx(in.txSeed);
      const dsp::TxPacket pkt = dsp::transmit(in.modem, tx);
      dsp::MimoChannel ch(in.channel);
      session.decodeInto(ch.run(pkt.waveform), out, in.maxCycles);
      nj += decodeEnergyNj(power::averageActiveMw(session.processor()), out.cycles);
      bits += pkt.bits.size();
      undetected += out.detected ? 0 : 1;
    }
    sim.energyNj = nj * static_cast<double>(sim.payloadBits) / static_cast<double>(bits);
    std::printf("cell-sweep traffic: %llu of %llu timed decodes stopped by their "
                "cycle budget; %llu of %llu sampled %d-user packets undetected "
                "(decoded full length all the same)\n",
                static_cast<unsigned long long>(budgetStops),
                static_cast<unsigned long long>(timedDecodes),
                static_cast<unsigned long long>(undetected),
                static_cast<unsigned long long>(inputs.size()), usersList.back());
  }

  table2Accuracy(ctx, r);
  // Decode p50 at the reference speed: each pass's over its slowdown.
  std::vector<double> scaledP50;
  for (std::size_t i = 0; i < passP50Ms[0].size(); ++i)
    scaledP50.push_back(passP50Ms[0][i] / host[0].passSlowdown[i]);
  addEndToEnd(r, sim, host[0], median(scaledP50), rss, sustained);
  if (ctx.opt.trace) {
    layerProbes(ctx, r, {base.modem}, inputs);
    r.addLayer("platform.queue_wait_ms_p50", interpolatedQuantile(wait, 0.5) / 1e6, "ms");
    r.addLayer("platform.queue_wait_ms_p99", interpolatedQuantile(wait, 0.99) / 1e6, "ms");
    r.addLayer("platform.decode_ms_p99", interpolatedQuantile(lat, 0.99) / 1e6, "ms");
    r.addLayer("platform.busy_share",
               static_cast<double>(lat.sum) / (kWorkers * timedWallNs), "share");
    r.addLayer("platform.backpressure_share", backpressureNs / timedWallNs, "share");
    u64 offered = 0, expired = 0;
    for (std::size_t i = 0; i < usersList.size(); ++i) {
      offered += firstTotals[i].offered;
      expired += firstTotals[i].missedExpired;
      r.addLayer("cell.miss_rate." + std::to_string(usersList[i]),
                 firstTotals[i].missRate(), "share");
    }
    r.addLayer("cell.decoded_share",
               static_cast<double>(offered - expired) / static_cast<double>(offered),
               "share");
    addRunLayers(r, host, health, rss,
                 {median(passP50Ms[0]), median(passP95Ms[0])});
  }
  return r;
}

}  // namespace perfbench
