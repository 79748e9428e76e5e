// decode-long: the paper's 100 Mbps+ operating point with one ModemConfig
// (QAM-64, 16 data symbols, flat channel, 40 dB SNR, 6 ppm CFO).  A seeded
// waveform pool is generated during set-up and decoded over and over by an
// ordered 2-worker PacketFarm, so the timed phase is almost all CGA native
// kernels plus VLIW glue; trial generation, campaign and cell are absent.
#include <memory>

#include "common.hpp"
#include "dsp/frontend.hpp"
#include "platform/rx_session.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace adres;

namespace {

struct PoolPacket {
  ProbeInput spec;
  std::vector<u8> bits;
  std::array<std::vector<cint16>, 2> rx;
};

dsp::ModemConfig decodeLongConfig() {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 16;
  return cfg;
}

platform::RxJob jobFor(platform::PacketFarm& farm, const PoolPacket& p, u64 id) {
  platform::RxJob job;
  job.id = id;
  for (int a = 0; a < 2; ++a) {
    job.rx[a] = farm.acquireSampleBuffer();
    job.rx[a].assign(p.rx[a].begin(), p.rx[a].end());
  }
  return job;
}

}  // namespace

Result runDecodeLong(Context& ctx) {
  Result r;
  SpanRecorder& rec = ctx.spans;
  const dsp::ModemConfig cfg = decodeLongConfig();
  const std::size_t poolSize = ctx.opt.tiny ? 4 : 48;

  // ---- set-up (cold: empty program cache) ----
  platform::clearModemProgramCache();
  std::vector<PoolPacket> pool(poolSize);
  dsp::TrialScratch scratch;
  for (std::size_t i = 0; i < poolSize; ++i) {
    PoolPacket& p = pool[i];
    p.spec.modem = cfg;
    p.spec.txSeed = hashCombine(ctx.opt.seed, 2 * i);
    p.spec.channel.flat = true;
    p.spec.channel.snrDb = 40;
    p.spec.channel.cfoPpm = 6;
    p.spec.channel.seed = hashCombine(ctx.opt.seed, 2 * i + 1);
    Rng tx(p.spec.txSeed);
    ScopedSpan s(rec, "dsp.generateTrial");
    dsp::generateTrial(cfg, p.spec.channel, tx, p.bits, p.rx, scratch);
  }
  {
    ScopedSpan s(rec, "sdr.modemProgramFor");
    const auto m = platform::modemProgramFor(cfg);
    ScopedSpan p(rec, "cga.plansFor");
    (void)m->plansFor(kTier);
  }
  platform::FarmConfig fc;
  fc.modem = cfg;
  fc.numWorkers = kWorkers;
  fc.queueCapacity = 2 * kWorkers;
  fc.ordered = true;
  fc.run.exec.tier = kTier;
  std::unique_ptr<platform::PacketFarm> farm;
  {
    ScopedSpan s(rec, "platform.PacketFarm");
    farm = std::make_unique<platform::PacketFarm>(fc);
  }
  u64 nextId = 0;
  std::vector<platform::RxOutcome> outs;
  for (int i = 0; i < 2 * kWorkers; ++i)
    farm->submit(jobFor(*farm, pool[static_cast<std::size_t>(i) % poolSize], nextId++));
  farm->collectInto(outs);
  for (const platform::RxOutcome& o : outs)
    r.check(o.result.halted(), "decode-long warm-up decode halts");
  farm->recycleOutcomes(outs);
  r.setupS = scaledSetupS(ctx);
  if (ctx.opt.setupOnly) return r;

  // ---- timed passes: the whole pool through the farm per pass ----
  SimTotals first;
  bool haveFirst = false;
  HostTotals host[2];
  double backpressureNs = 0;
  std::vector<double> submitUs(poolSize);
  const PassRss rss = runPasses(ctx, ctx.opt.seconds, [&](bool traced) {
    ScopedSpan pass(rec, "platform.pass");
    PassTimer timer(ctx.probe, host[traced]);
    const u64 bp0 = farm->submitBackpressureNs();
    const u64 base = nextId;
    for (std::size_t i = 0; i < poolSize; ++i) {
      platform::RxJob job = jobFor(*farm, pool[i], nextId++);
      submitUs[i] = rec.nowUs();
      ScopedSpan s(rec, "platform.submit", job.id);
      farm->submit(std::move(job));
    }
    {
      ScopedSpan s(rec, "platform.collect");
      farm->collectInto(outs);
    }
    if (traced) backpressureNs += static_cast<double>(farm->submitBackpressureNs() - bp0);
    r.check(outs.size() == poolSize, "decode-long collects every packet");
    SimTotals st;
    for (const platform::RxOutcome& o : outs) {
      const std::size_t i = static_cast<std::size_t>(o.id - base);
      const bool exact = o.result.halted() && o.result.bits == pool[i].bits;
      r.check(exact, "decode-long packet " + std::to_string(i) + " halts bit-exact");
      st.packets += 1;
      st.perPackets += 1;
      st.cycles += o.result.cycles;
      st.payloadBits += pool[i].bits.size();
      st.packetErrors += exact ? 0 : 1;
      st.energyNj += decodeEnergyNj(o.avgPowerMw, o.result.cycles);
      host[traced].decodeMs.push_back(o.hostUs / 1000.0);
      if (traced) addPacketSpans(rec, pass.id(), o, submitUs[i]);
    }
    timer.finish(poolSize);
    if (!haveFirst) {
      first = st;
      haveFirst = true;
    } else {
      r.check(st == first, "decode-long pass repeats pass 1's simulated totals");
    }
    farm->recycleOutcomes(outs);
  });
  (void)farm->finish();
  const u64 health = farm->healthEvents().size();

  table2Accuracy(ctx, r);
  addEndToEnd(r, first, host[0], percentile(host[0].scaledDecodeMs, 0.5), rss,
              capacityUsers(static_cast<double>(first.cycles) /
                            static_cast<double>(first.packets)));
  if (ctx.opt.trace) {
    std::vector<ProbeInput> inputs;
    for (const PoolPacket& p : pool) inputs.push_back(p.spec);
    layerProbes(ctx, r, {cfg}, inputs);
    platformFromSpans(ctx, r, "platform.pass", backpressureNs);
    addRunLayers(r, host, health, rss, wallDecodeMs(host[0]));
  }
  return r;
}

}  // namespace perfbench
