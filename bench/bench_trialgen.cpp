// Trial-generation pipeline: the scalar reference functions vs the
// vectorized SoA frontend (src/dsp/frontend, DESIGN.md §15), per stage,
// plus the shipped configuration end to end.
//
// Stage rows time the TX synthesis (transmit vs transmitInto), the channel
// (MimoChannel::run vs runInto) and the full trial (transmit + run vs
// generateTrial) over the same counter-derived seeds, verifying the
// vectorized bytes match the scalar reference as they go.  The e2e row
// runs a fixed-trial QAM-64 waterfall cell through the whole campaign
// engine (producer -> farm -> fold) and reports campaign trials/s.  Emits
// a machine-readable BENCH_trialgen.json.
//
//   $ ./bench_trialgen [stageTrials] [e2eTrials] [workers] [jsonPath] \
//         [--producers N] [--snr DB]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_args.hpp"
#include "campaign/runner.hpp"
#include "common/json_write.hpp"
#include "dsp/frontend.hpp"
#include "platform/rx_session.hpp"

using namespace adres;

namespace {

struct StageRow {
  const char* stage;
  double scalarUs = 0, vectorUs = 0;  ///< per trial
  double speedup = 0;
  bool identical = true;  ///< vectorized bytes == scalar reference
};

double msSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// The committed waterfall cell: QAM-64, 4 OFDM symbols, 3-tap channel,
/// 10 ppm CFO, mid-waterfall SNR.
campaign::SweepSpec waterfallCell(double snrDb, u64 trials, u64 batch) {
  campaign::SweepSpec s;
  s.mods = {dsp::Modulation::kQam64};
  s.snrDb = {snrDb};
  s.cfoPpm = {10};
  s.taps = {3};
  s.numSymbols = {4};
  s.seed = 1;
  s.batchSize = batch;
  s.stop.minTrials = trials;
  s.stop.maxTrials = trials;  // fixed workload: stop rule can't fire early
  s.stop.errorBudget = trials + 1;
  s.stop.ciHalfWidth = 0.0;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  int stageTrials = 512;
  int e2eTrials = 128;
  int workers = 1;
  std::string jsonPath = "BENCH_trialgen.json";
  int producers = 1;
  double snrDb = 26;

  bench::Args args("bench_trialgen",
                   "scalar vs vectorized trial-generation pipeline");
  args.positional("stageTrials", "trials per stage microbench", &stageTrials);
  args.positional("e2eTrials", "trials in the e2e campaign cell", &e2eTrials);
  args.positional("workers", "farm workers for the e2e rows", &workers);
  args.positional("jsonPath", "BENCH_trialgen.json path ('-' = skip)",
                  &jsonPath);
  args.flag("producers", "N", "producer shards for the e2e row", &producers);
  args.flag("snr", "DB", "waterfall-cell SNR", &snrDb);
  if (!args.parse(argc, argv)) return args.parseError() ? 1 : 0;

  dsp::ModemConfig modem;
  modem.mod = dsp::Modulation::kQam64;
  modem.numSymbols = 4;
  dsp::ChannelConfig chBase;
  chBase.taps = 3;
  chBase.snrDb = snrDb;
  chBase.cfoPpm = 10;

  printf("=== trial generation: %d stage trials, %d-trial e2e cell "
         "(qam64 s4 t3 cfo10 snr%g), %d worker(s) ===\n",
         stageTrials, e2eTrials, snrDb, workers);

  std::vector<StageRow> stages;

  // --- TX synthesis -------------------------------------------------------
  {
    StageRow r{"tx"};
    dsp::TxScratch scratch;
    std::vector<u8> bits;
    std::array<std::vector<cint16>, dsp::kNumTx> wave;
    auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < stageTrials; ++t) {
      Rng rng(100 + static_cast<u64>(t));
      const dsp::TxPacket pkt = dsp::transmit(modem, rng);
      (void)pkt;
    }
    r.scalarUs = msSince(t0) * 1000.0 / stageTrials;
    t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < stageTrials; ++t) {
      Rng rng(100 + static_cast<u64>(t));
      dsp::transmitInto(modem, rng, bits, wave, scratch);
    }
    r.vectorUs = msSince(t0) * 1000.0 / stageTrials;
    {  // byte identity, outside the timed loops
      Rng ra(7), rb(7);
      const dsp::TxPacket pkt = dsp::transmit(modem, ra);
      dsp::transmitInto(modem, rb, bits, wave, scratch);
      r.identical = pkt.bits == bits && pkt.waveform == wave;
    }
    stages.push_back(r);
  }

  // --- Channel (taps + CFO + AWGN) ---------------------------------------
  {
    StageRow r{"channel"};
    Rng rng(42);
    const dsp::TxPacket pkt = dsp::transmit(modem, rng);
    dsp::ChannelScratch scratch;
    std::array<std::vector<cint16>, dsp::kNumRx> rx;
    auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < stageTrials; ++t) {
      dsp::ChannelConfig cc = chBase;
      cc.seed = 1000 + static_cast<u64>(t);
      dsp::MimoChannel ch(cc);
      (void)ch.run(pkt.waveform);
    }
    r.scalarUs = msSince(t0) * 1000.0 / stageTrials;
    t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < stageTrials; ++t) {
      dsp::ChannelConfig cc = chBase;
      cc.seed = 1000 + static_cast<u64>(t);
      dsp::MimoChannel ch(cc);
      ch.runInto(pkt.waveform, rx, scratch);
    }
    r.vectorUs = msSince(t0) * 1000.0 / stageTrials;
    {
      dsp::ChannelConfig cc = chBase;
      cc.seed = 77;
      dsp::MimoChannel a(cc), b(cc);
      r.identical = a.run(pkt.waveform) == (b.runInto(pkt.waveform, rx, scratch), rx);
    }
    stages.push_back(r);
  }

  // --- Full trial (TX + channel, the producer's unit of work) -------------
  {
    StageRow r{"trial"};
    dsp::TrialScratch scratch;
    std::vector<u8> bits;
    std::array<std::vector<cint16>, dsp::kNumRx> rx;
    auto t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < stageTrials; ++t) {
      Rng txRng(500 + static_cast<u64>(t));
      dsp::ChannelConfig cc = chBase;
      cc.seed = 9000 + static_cast<u64>(t);
      const dsp::TxPacket pkt = dsp::transmit(modem, txRng);
      dsp::MimoChannel ch(cc);
      (void)ch.run(pkt.waveform);
    }
    r.scalarUs = msSince(t0) * 1000.0 / stageTrials;
    t0 = std::chrono::steady_clock::now();
    for (int t = 0; t < stageTrials; ++t) {
      Rng txRng(500 + static_cast<u64>(t));
      dsp::ChannelConfig cc = chBase;
      cc.seed = 9000 + static_cast<u64>(t);
      dsp::generateTrial(modem, cc, txRng, bits, rx, scratch);
    }
    r.vectorUs = msSince(t0) * 1000.0 / stageTrials;
    {
      Rng ra(31), rb(31);
      dsp::ChannelConfig cc = chBase;
      cc.seed = 13;
      const dsp::TxPacket pkt = dsp::transmit(modem, ra);
      dsp::MimoChannel ch(cc);
      const auto rxRef = ch.run(pkt.waveform);
      dsp::generateTrial(modem, cc, rb, bits, rx, scratch);
      r.identical = pkt.bits == bits && rxRef == rx;
    }
    stages.push_back(r);
  }

  bool allIdentical = true;
  for (StageRow& r : stages) {
    r.speedup = r.vectorUs > 0 ? r.scalarUs / r.vectorUs : 0;
    allIdentical = allIdentical && r.identical;
    printf("stage %-8s scalar %8.2f us/trial   vectorized %8.2f us/trial   "
           "%.2fx  %s\n",
           r.stage, r.scalarUs, r.vectorUs, r.speedup,
           r.identical ? "bit-identical" : "MISMATCH");
  }

  // --- End-to-end: the campaign engine on the waterfall cell --------------
  // Pay the one-time program build AND the exec-tier plan build before the
  // timed run: a short untimed campaign warms every shared cache.
  (void)platform::modemProgramFor(modem);
  {
    campaign::CampaignConfig cfg;
    cfg.sweep = waterfallCell(snrDb, 8, 8);
    campaign::CampaignRunner(cfg).run();
  }
  double e2eWallMs = 0, e2eTrialsPerSec = 0;
  {
    campaign::CampaignConfig cfg;
    cfg.sweep = waterfallCell(snrDb, static_cast<u64>(e2eTrials), 16);
    cfg.workers = workers;
    cfg.producers = producers;
    campaign::CampaignRunner runner(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const campaign::CampaignResult res = runner.run();
    e2eWallMs = msSince(t0);
    e2eTrialsPerSec =
        static_cast<double>(res.trialsRun) / (e2eWallMs / 1000.0);
    printf("e2e shipped configuration, producers %d: %8.1f ms  %7.1f "
           "trials/s\n",
           producers, e2eWallMs, e2eTrialsPerSec);
  }

  if (jsonPath != "-") {
    std::ofstream os(jsonPath);
    JsonWriter w(os);
    w.beginObject().field("schema", "adres.bench_trialgen.v1");
    w.field("cell", "qam64 s4 t3 cfo10 snr" + telemetryNumber(snrDb));
    w.field("stage_trials", stageTrials).field("e2e_trials", e2eTrials);
    w.field("workers", workers).key("stages").beginArray();
    for (const StageRow& r : stages) {
      w.beginObject(JsonWriter::kInline).field("stage", r.stage);
      w.field("scalar_us_per_trial", r.scalarUs);
      w.field("vectorized_us_per_trial", r.vectorUs);
      w.field("speedup", r.speedup).field("bit_identical", r.identical).end();
    }
    w.end().key("e2e").beginObject(JsonWriter::kInline);
    w.field("producers", producers);
    w.field("wall_ms", e2eWallMs).field("trials_per_sec", e2eTrialsPerSec);
    w.end().end();
    printf("wrote %s\n", jsonPath.c_str());
  }

  return allIdentical ? 0 : 1;
}
