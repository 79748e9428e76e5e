// Property test: randomly generated kernel dataflow graphs, scheduled and
// routed onto the array, must compute exactly what the reference
// interpreter says — across trip counts, op mixes, loads/stores, carried
// values and immediates.  This exercises the scheduler's placement,
// routing windows, LD_I/LD_IH pairing, preload seeding and the array's
// modulo sequencing far beyond the hand-written kernels.  The same kernels
// also pin the two exec tiers (DESIGN.md §14) to each other on cycles,
// activity counters, memory and the whole register fabric (central RF,
// FU output registers, every local-RF entry).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "support/random_dfg.hpp"
#include "support/schedule_golden_common.hpp"
#include "testutil.hpp"

namespace adres {
namespace {

using namespace testsupport;

class RandomDfg : public ::testing::TestWithParam<u64> {};

const std::vector<std::pair<int, Word>> kLiveIns = {
    {R_IDX, 0}, {R_IN, 0x800}, {R_OUT, 0x1800}, {R_ACC, 0}};
constexpr u32 kInputAddr = 0x800;
constexpr u32 kCompareBytes = 0x2200;

std::vector<u8> randomInput(u64 seed) {
  Rng rng(seed * 77 + 1);
  std::vector<u8> input(1024);
  for (auto& v : input) v = static_cast<u8>(rng.next());
  return input;
}

TEST_P(RandomDfg, ScheduledExecutionMatchesInterpreter) {
  const u64 seed = GetParam();
  const RandomKernel rk = buildRandom(seed);
  const std::vector<u8> input = randomInput(seed);

  for (u32 trips : {1u, 2u, 9u}) {
    testutil::checkKernelAgainstReference(rk.dfg, trips, kLiveIns,
                                          {{kInputAddr, input}},
                                          kCompareBytes);
  }
}

/// Everything one launch leaves behind on a fresh fabric.
struct TierOutcome {
  CgaRunResult r;
  ActivityCounters act;
  std::vector<u32> l1;
  std::vector<Word> crf;
  std::vector<Word> outRegs;  ///< the 16 FU output registers
  std::vector<Word> lrfs;     ///< every local-RF entry, FU-major
};

TierOutcome runAtTier(const KernelConfig& k, ExecTier tier, u32 trips,
                      const std::vector<u8>& input) {
  CentralRegFile crf;
  Scratchpad l1;
  ConfigMemory cfg;
  TierOutcome o;
  CgaArray array(crf, l1, cfg, o.act);
  l1.loadBytes(kInputAddr, input);
  for (const auto& [reg, v] : kLiveIns) crf.poke(reg, v);
  o.r = array.run(buildKernelPlan(k, tier), trips);
  for (u32 a = 0; a < kCompareBytes; a += 4) o.l1.push_back(l1.peek32(a));
  for (int r = 0; r < kCdrfRegs; ++r) o.crf.push_back(crf.peek(r));
  for (int fu = 0; fu < kCgaFus; ++fu) {
    o.outRegs.push_back(array.outputReg(fu));
    for (int r = 0; r < kLocalRfRegs; ++r)
      o.lrfs.push_back(array.localRf(fu).peek(r));
  }
  return o;
}

// Tier differential: the scheduled kernel runs on the reference loop and on
// the native loop, each on a fresh fabric, and every observable must agree.
TEST_P(RandomDfg, ScheduledKernelMatchesAcrossTiers) {
  const u64 seed = GetParam();
  const RandomKernel rk = buildRandom(seed);
  const std::vector<u8> input = randomInput(seed);
  const KernelConfig k =
      decodeKernel(encodeKernel(scheduleKernel(rk.dfg).config));

  // 1-3 trips leave the steady window empty or a few cycles long.
  for (u32 trips : {1u, 2u, 3u, 9u, 33u}) {
    SCOPED_TRACE("trips=" + std::to_string(trips));
    const TierOutcome ref = runAtTier(k, ExecTier::kReference, trips, input);
    const TierOutcome nat = runAtTier(k, ExecTier::kNative, trips, input);
    EXPECT_EQ(ref.r.cycles, nat.r.cycles);
    EXPECT_EQ(ref.r.arrayCycles, nat.r.arrayCycles);
    EXPECT_EQ(ref.r.stallCycles, nat.r.stallCycles);
    EXPECT_EQ(ref.r.issueCycles, nat.r.issueCycles);
    EXPECT_EQ(ref.r.ops, nat.r.ops);
    EXPECT_EQ(ref.r.routeMoves, nat.r.routeMoves);
    EXPECT_TRUE(ref.act == nat.act) << "activity counters differ";
    EXPECT_EQ(ref.l1, nat.l1);
    EXPECT_EQ(ref.crf, nat.crf);
    EXPECT_EQ(ref.outRegs, nat.outRegs);
    EXPECT_EQ(ref.lrfs, nat.lrfs);
  }
}

// The random kernel set schedule_golden_test pins.
INSTANTIATE_TEST_SUITE_P(
    Seeds, RandomDfg,
    ::testing::Range<u64>(kScheduleGoldenFirstSeed,
                          kScheduleGoldenFirstSeed + kScheduleGoldenSeedCount));

}  // namespace
}  // namespace adres
