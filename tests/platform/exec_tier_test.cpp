// Exec-tier equivalence at the platform layer (DESIGN.md §14): a packet
// farm run at either ExecTier must produce bit- and cycle-exact outcomes,
// identical merged adres.counters.v1 totals and an identical
// adres.profile.v1 cycle-attribution partition — the tiers differ only in
// host speed.  Also pins that a traced decode writes the same trace and
// counter bytes on both tiers, that a tier/plan mismatch fails loudly at
// load, and that a bad ADRES_EXEC_TIER stops any binary with one error line.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "dsp/channel.hpp"
#include "platform/packet_farm.hpp"
#include "trace/export.hpp"
#include "trace/counters.hpp"

namespace adres::platform {
namespace {

dsp::ModemConfig smallConfig() {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 2;
  return cfg;
}

std::array<std::vector<cint16>, 2> makeWave(const dsp::ModemConfig& cfg,
                                            int index) {
  Rng rng(100 + static_cast<u64>(index));
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.cfoPpm = 6;
  cc.seed = static_cast<u64>(index + 1);
  dsp::MimoChannel ch(cc);
  return ch.run(pkt.waveform);
}

struct TierRun {
  std::vector<RxOutcome> outs;
  FarmStats stats;
  std::string profileJson;
};

TierRun runFarmAt(ExecTier tier,
                  const std::vector<std::array<std::vector<cint16>, 2>>& waves) {
  FarmConfig fc;
  fc.modem = smallConfig();
  fc.numWorkers = 2;
  fc.ordered = true;
  fc.kernelProfile = true;
  fc.run.exec.tier = tier;
  PacketFarm farm(fc);
  for (const auto& rx : waves) (void)farm.submit(rx);
  TierRun r;
  r.outs = farm.finish();
  r.stats = farm.stats();
  std::ostringstream os;
  r.stats.profile.writeJson(os);
  r.profileJson = os.str();
  return r;
}

TEST(ExecTierFarm, AllTiersAreBitAndCycleExact) {
  const dsp::ModemConfig cfg = smallConfig();
  std::vector<std::array<std::vector<cint16>, 2>> waves;
  for (int i = 0; i < 4; ++i) waves.push_back(makeWave(cfg, i));

  const TierRun ref = runFarmAt(ExecTier::kReference, waves);
  const TierRun native = runFarmAt(ExecTier::kNative, waves);

  ASSERT_EQ(ref.outs.size(), waves.size());
  ASSERT_EQ(native.outs.size(), ref.outs.size());
  for (std::size_t i = 0; i < ref.outs.size(); ++i) {
    const RxOutcome& a = ref.outs[i];
    const RxOutcome& b = native.outs[i];
    SCOPED_TRACE("packet " + std::to_string(i));
    EXPECT_TRUE(b.result.halted());
    EXPECT_EQ(a.result.detected, b.result.detected);
    EXPECT_EQ(a.result.ltfStart, b.result.ltfStart);
    EXPECT_EQ(a.result.bits, b.result.bits);
    EXPECT_EQ(a.result.cycles, b.result.cycles);
  }
  // Merged adres.counters.v1 totals (activity, memory, RF, icache,
  // config-memory stats across every worker) are identical.
  EXPECT_EQ(ref.stats.counters, native.stats.counters);
  EXPECT_EQ(ref.stats.groups, native.stats.groups);
  // The adres.profile.v1 cycle-attribution partition — per-region and
  // per-(region, kernel) issue/idle/stall/overhead splits — is identical
  // down to the serialized document.
  EXPECT_EQ(ref.profileJson, native.profileJson);
}

struct TracedDecode {
  std::string chrome, ring, counters;
  u64 dropped = 0;
};

// One traced 8-symbol QAM-64 decode at `tier`, serialized through every
// trace/counter writer.
TracedDecode tracedDecodeAt(ExecTier tier) {
  dsp::ModemConfig cfg = smallConfig();
  cfg.numSymbols = 8;
  const auto rx = makeWave(cfg, 0);
  const auto modem = modemProgramFor(cfg);
  Processor proc;
  RingBufferSink ring(1u << 16);
  sdr::RxRunOptions opts;
  opts.exec.tier = tier;
  opts.trace = &ring;
  const sdr::ProcessorRxResult res =
      sdr::runModemOnProcessor(proc, *modem, rx, opts);
  EXPECT_TRUE(res.halted());

  trace::TraceNames names;
  for (const KernelConfig& k : proc.program().kernels)
    names.kernels.push_back(k.name);
  names.regions = proc.program().regionNames;
  const std::vector<TraceEvent> events = ring.events();
  TracedDecode d;
  std::ostringstream chrome, ringJson, counters;
  trace::writeChromeTrace(events, chrome, names);
  JsonWriter w(ringJson);
  trace::writeTraceEventsJson(w, events);
  trace::writeCountersJson(proc, counters);
  d.chrome = chrome.str();
  d.ring = ringJson.str();
  d.counters = counters.str();
  d.dropped = ring.dropped();
  return d;
}

// A traced native run must emit exactly the reference loop's event stream
// and counters: the Chrome trace, the ring-event array postmortem bundles
// carry (which keeps each event's track, dropped by the Chrome tid of
// VLIW-stall, I$, DMA, AHB and core events) and the counter dump are
// byte-identical.
TEST(ExecTierTrace, TracedDecodeBytesMatchAcrossTiers) {
  const TracedDecode ref = tracedDecodeAt(ExecTier::kReference);
  const TracedDecode native = tracedDecodeAt(ExecTier::kNative);
  EXPECT_EQ(ref.dropped, 0u);
  EXPECT_NE(ref.ring, "[\n]\n");
  EXPECT_TRUE(ref.chrome == native.chrome) << "Chrome trace bytes differ";
  EXPECT_TRUE(ref.ring == native.ring) << "ring event bytes differ";
  EXPECT_TRUE(ref.counters == native.counters) << "counter dump bytes differ";
}

TEST(ExecTierFarm, MismatchedPolicyTierFailsLoudlyAtLoad) {
  const dsp::ModemConfig cfg = smallConfig();
  const auto modem = modemProgramFor(cfg);
  Processor proc;
  ExecPolicy pol;
  pol.tier = ExecTier::kNative;
  pol.plans = modem->plansFor(ExecTier::kReference);
  EXPECT_THROW(proc.load(modem->program, pol), SimError);
}

TEST(ExecTierEnv, BadTierExitsWithOneErrorLine) {
  // The variable is first read from default member initializers and flag
  // set-up that run before any main can catch, so the check lives in
  // defaultExecTier itself: exit 2, one `error:` line, no abort.
  for (const std::string& cmd :
       {std::string(ADRES_TRACE_MODEM) + " 2",
        std::string(ADRES_BENCH_SIMSPEED) + " - 2",
        std::string(ADRES_BENCH_FARM) + " 2 2 1 -"}) {
    FILE* p = popen(("ADRES_EXEC_TIER=bogus " + cmd + " 2>&1").c_str(), "r");
    ASSERT_NE(p, nullptr) << cmd;
    std::string out;
    char buf[256];
    while (std::fgets(buf, sizeof buf, p)) out += buf;
    const int status = pclose(p);
    ASSERT_TRUE(WIFEXITED(status)) << cmd << ": " << out;
    EXPECT_EQ(WEXITSTATUS(status), 2) << cmd << ": " << out;
    const std::size_t at = out.find("error: unknown exec tier 'bogus'");
    EXPECT_NE(at, std::string::npos) << cmd << ": " << out;
    EXPECT_EQ(out.find("error:", at + 1), std::string::npos)
        << "one error line: " << cmd << ": " << out;
    EXPECT_EQ(out.find("terminate called"), std::string::npos) << cmd;
  }
}

}  // namespace
}  // namespace adres::platform
