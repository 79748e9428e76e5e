// campaign-sweep: CampaignRunner over 4 configs (QAM-16/QAM-64 x 4/8
// symbols) on a 3-tap fading channel at two SNRs, with the error-budget
// stopping rule, 2 workers and 1 inline producer.  Four cold program builds
// make set-up about 4x decode-long's, and short packets make the preamble
// kernels, the per-packet reload and inline trial generation a larger
// share of the timed phase.
//
// CampaignRunner keeps its farms and outcomes private, so each pass is
// followed by a replay: the same trials, generated from the same
// counter-derived seeds and decoded through the same farm shape in the
// runner's batch rhythm.  The replay yields the per-decode host times
// (RxOutcome::hostUs) and must fold to exactly the runner's per-cell
// results.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "campaign/checkpoint.hpp"
#include "campaign/runner.hpp"
#include "common.hpp"
#include "dsp/frontend.hpp"
#include "platform/rx_session.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace adres;

namespace {

campaign::SweepSpec sweepFor(const Options& opt) {
  campaign::SweepSpec spec;
  spec.seed = opt.seed;
  spec.mods = {dsp::Modulation::kQam16, dsp::Modulation::kQam64};
  spec.numSymbols = {4, 8};
  spec.taps = {3};
  spec.cfoPpm = {10.0};
  spec.snrDb = {30.0, 40.0};
  spec.batchSize = 16;
  spec.stop.minTrials = opt.tiny ? 16 : 32;
  spec.stop.maxTrials = opt.tiny ? 16 : 128;
  spec.stop.errorBudget = 40;
  spec.stop.ciHalfWidth = 0.05;
  return spec;
}

platform::FarmConfig farmFor(const dsp::ModemConfig& modem) {
  platform::FarmConfig fc;
  fc.modem = modem;
  fc.numWorkers = kWorkers;
  fc.queueCapacity = 2 * kWorkers;
  fc.ordered = true;
  fc.run.exec.tier = kTier;
  return fc;
}

struct Replay {
  campaign::CellResult fold;  ///< the runner's fold over the same trials
  u64 decodes = 0;
  u64 failed = 0;        ///< decodes that stopped without halting
  u64 healthEvents = 0;  ///< every watchdog event of the replay farm
  double backpressureNs = 0;
};

/// Replays the first `trials` trials of `cell` through a fresh farm in the
/// runner's batch rhythm (generate a batch inline, submit, collect, fold).
Replay replayCell(Context& ctx, const campaign::SweepSpec& spec,
                  const campaign::CellSpec& cell, u64 trials, HostTotals& host) {
  SpanRecorder& rec = ctx.spans;
  Replay out;
  platform::FarmConfig fc = farmFor(cell.modem);
  platform::PacketFarm farm(fc);
  dsp::TrialScratch scratch;
  std::vector<std::vector<u8>> txBits(spec.batchSize);
  std::vector<double> submitUs(spec.batchSize);
  std::vector<platform::RxOutcome> outs;
  for (u64 first = 0; first < trials; first += spec.batchSize) {
    const u64 batch = std::min(spec.batchSize, spec.stop.maxTrials - first);
    for (u64 k = 0; k < batch; ++k) {
      const u64 t = first + k;
      Rng tx(cell.trialSeed(t, campaign::CellSpec::kTxStream));
      dsp::ChannelConfig cc = cell.channel;
      cc.seed = cell.trialSeed(t, campaign::CellSpec::kChannelStream);
      platform::RxJob job;
      job.id = t;
      job.rx[0] = farm.acquireSampleBuffer();
      job.rx[1] = farm.acquireSampleBuffer();
      {
        ScopedSpan s(rec, "dsp.generateTrial", t);
        dsp::generateTrial(cell.modem, cc, tx, txBits[k], job.rx, scratch);
      }
      submitUs[k] = rec.nowUs();
      ScopedSpan s(rec, "platform.submit", t);
      farm.submit(std::move(job));
    }
    {
      ScopedSpan s(rec, "platform.collect");
      farm.collectInto(outs);
    }
    for (const platform::RxOutcome& o : outs) {
      const u64 k = o.id - first;
      ++out.decodes;
      out.failed += o.result.halted() ? 0 : 1;
      host.decodeMs.push_back(o.hostUs / 1000.0);
      addPacketSpans(rec, rec.current(), o, submitUs[k]);
      if (o.id >= trials) continue;  // the runner discards these
      const std::vector<u8>& bits = txBits[k];
      const bool lost = !o.result.detected || o.result.bits.size() != bits.size();
      const u64 errs =
          lost ? bits.size() : static_cast<u64>(dsp::bitErrors(o.result.bits, bits));
      campaign::CellResult& f = out.fold;
      f.trials += 1;
      f.bits += bits.size();
      f.bitErrors += errs;
      f.packetErrors += errs > 0 ? 1 : 0;
      f.lostPackets += lost ? 1 : 0;
      f.cycles += o.result.cycles;
      f.energyNj += decodeEnergyNj(o.avgPowerMw, o.result.cycles);
    }
    farm.recycleOutcomes(outs);
  }
  out.backpressureNs = static_cast<double>(farm.submitBackpressureNs());
  (void)farm.finish();
  out.healthEvents = farm.healthEvents().size();
  return out;
}

/// Geometric mean over configs of each config's median decode time.
double geomeanOfMedians(const std::vector<std::vector<double>>& byConfig) {
  double logSum = 0;
  for (const std::vector<double>& ms : byConfig) logSum += std::log(median(ms));
  return std::exp(logSum / static_cast<double>(byConfig.size()));
}

bool sameFold(const campaign::CellResult& a, const campaign::CellResult& b) {
  return a.trials == b.trials && a.bits == b.bits && a.bitErrors == b.bitErrors &&
         a.packetErrors == b.packetErrors && a.lostPackets == b.lostPackets &&
         a.cycles == b.cycles && a.energyNj == b.energyNj;
}

}  // namespace

Result runCampaignSweep(Context& ctx) {
  Result r;
  SpanRecorder& rec = ctx.spans;
  const campaign::SweepSpec spec = sweepFor(ctx.opt);
  const std::vector<campaign::CellSpec> cells = campaign::expand(spec);
  std::vector<dsp::ModemConfig> configs;
  for (const campaign::CellSpec& c : cells)
    if (std::find(configs.begin(), configs.end(), c.modem) == configs.end())
      configs.push_back(c.modem);

  // ---- set-up: cold program + plan build for every config, then one
  // warm-up farm per config decoding a trial per worker ----
  platform::clearModemProgramCache();
  for (const dsp::ModemConfig& cfg : configs) {
    ScopedSpan s(rec, "sdr.modemProgramFor");
    const auto m = platform::modemProgramFor(cfg);
    ScopedSpan p(rec, "cga.plansFor");
    (void)m->plansFor(kTier);
  }
  for (const dsp::ModemConfig& cfg : configs) {
    const auto cell = std::find_if(cells.begin(), cells.end(),
                                   [&](const auto& c) { return c.modem == cfg; });
    campaign::SweepSpec warmSpec = spec;
    warmSpec.batchSize = kWorkers;
    HostTotals ignored;
    const Replay warm = replayCell(ctx, warmSpec, *cell, kWorkers, ignored);
    r.check(warm.failed == 0, "campaign-sweep warm-up decodes halt");
  }
  r.setupS = scaledSetupS(ctx);
  if (ctx.opt.setupOnly) return r;

  // ---- timed passes: one full runner sweep, then its replay ----
  campaign::CampaignResult firstRes;
  bool haveFirst = false;
  HostTotals host[2];
  // Scaled decode times by config (untraced, traced passes).  The trial
  // mix follows the seed through the stopping rule, and the configs' decode
  // times are apart, so a median over all decodes would move with the mix.
  std::vector<std::vector<double>> scaledMsByConfig[2] = {
      std::vector<std::vector<double>>(configs.size()),
      std::vector<std::vector<double>>(configs.size())};
  double backpressureNs = 0;
  u64 health = 0;
  const PassRss rss = runPasses(ctx, ctx.opt.seconds, [&](bool traced) {
    campaign::CampaignConfig cc;
    cc.sweep = spec;
    cc.workers = kWorkers;
    cc.queueCapacity = 2 * kWorkers;
    cc.producers = 1;
    cc.run.exec.tier = kTier;
    campaign::CampaignResult res;
    PassTimer timer(ctx.probe, host[traced]);
    {
      ScopedSpan run(rec, "campaign.run");
      double cellStart = rec.nowUs();
      cc.log = [&](const std::string&) {  // one call per completed cell
        const double now = rec.nowUs();
        rec.add("campaign.cell", run.id(), SpanRecorder::kNoJob, cellStart, now);
        cellStart = now;
      };
      campaign::CampaignRunner runner(cc);
      res = runner.run();
    }
    timer.finish(res.trialsRun);
    r.check(res.completed && res.results.size() == cells.size(),
            "campaign-sweep completes every cell");
    r.attempted += res.trialsRun;
    if (!haveFirst) {
      firstRes = res;
      haveFirst = true;
    } else {
      r.check(res.results == firstRes.results,
              "campaign-sweep pass repeats pass 1's per-cell results");
    }

    ScopedSpan replay(rec, "campaign.replay");
    for (std::size_t i = 0; i < cells.size(); ++i) {
      ScopedSpan cell(rec, "campaign.replay_cell");
      const std::size_t from = host[traced].scaledDecodeMs.size();
      PassTimer cellTimer(ctx.probe, host[traced]);
      const Replay rp =
          replayCell(ctx, spec, cells[i], res.results[i].trials, host[traced]);
      cellTimer.finish(0);
      std::vector<double>& same = scaledMsByConfig[traced][static_cast<std::size_t>(
          std::find(configs.begin(), configs.end(), cells[i].modem) - configs.begin())];
      same.insert(same.end(), host[traced].scaledDecodeMs.begin() +
                                  static_cast<std::ptrdiff_t>(from),
                  host[traced].scaledDecodeMs.end());
      r.check(sameFold(rp.fold, res.results[i]),
              "campaign-sweep replay folds to the runner's result for cell " +
                  campaign::cellLabel(cells[i]));
      r.attempted += rp.decodes;
      r.failed += rp.failed;
      health += rp.healthEvents;
      if (traced) backpressureNs += rp.backpressureNs;
    }
  });

  SimTotals sim;
  for (const campaign::CellResult& c : firstRes.results) {
    sim.packets += c.trials;
    sim.perPackets += c.trials;
    sim.cycles += c.cycles;
    sim.payloadBits += c.bits;
    sim.packetErrors += c.packetErrors;
    sim.energyNj += c.energyNj;
  }
  std::ostringstream ckpt;
  campaign::writeCheckpoint(ckpt, spec, cells, firstRes.results);
  r.check(matchOrRecord(ctx, "campaign", campaign::stableHash(spec), ckpt.str()),
          "campaign-sweep per-cell results match earlier runs of this seed");

  table2Accuracy(ctx, r);
  addEndToEnd(r, sim, host[0], geomeanOfMedians(scaledMsByConfig[0]), rss,
              capacityUsers(static_cast<double>(sim.cycles) /
                            static_cast<double>(sim.packets)));
  if (ctx.opt.trace) {
    std::vector<ProbeInput> inputs;
    const u64 perCell = ctx.opt.tiny ? 1 : 4;
    for (const campaign::CellSpec& c : cells)
      for (u64 t = 0; t < perCell; ++t) {
        ProbeInput in;
        in.modem = c.modem;
        in.channel = c.channel;
        in.channel.seed = c.trialSeed(t, campaign::CellSpec::kChannelStream);
        in.txSeed = c.trialSeed(t, campaign::CellSpec::kTxStream);
        inputs.push_back(in);
      }
    layerProbes(ctx, r, configs, inputs);
    platformFromSpans(ctx, r, "campaign.replay", backpressureNs);
    r.addLayer("campaign.useful_ratio",
               static_cast<double>(firstRes.trialsRun - firstRes.trialsDiscarded) /
                   static_cast<double>(firstRes.trialsRun),
               "share");
    addRunLayers(r, host, health, rss, wallDecodeMs(host[0]));
  }
  return r;
}

}  // namespace perfbench
