// A/B equivalence of the two execution tiers (DESIGN.md §14): for every
// Table 2 fixture kernel, plans built at kReference and kNative must
// execute identically across trip counts that exercise
// the empty run, prologue/epilogue-only runs (no steady-state window) and
// the canonical steady-state run.  Equivalence means identical
// CgaRunResult, identical activity/memory statistics and an identical
// fabric checksum (output registers, local RFs, CRF, L1 contents).
// Hand-built kernels pin every fallback and boundary of the native tier's
// commit phase the same way.
#include <gtest/gtest.h>

#include <algorithm>

#include "cga/native.hpp"

#include "support/kernel_fixture.hpp"

namespace adres::testsupport {
namespace {

struct AbSnapshot {
  CgaRunResult r;
  ActivityCounters act;
  u64 l1Reads = 0, l1Writes = 0, l1Conflicts = 0, l1ConflictCycles = 0;
  u64 cgaOps = 0, cgaRouteMoves = 0, simdOps = 0, ops16 = 0, transports = 0;
  u64 cdrfCgaAccesses = 0, l1CgaAccesses = 0;
  u64 contextFetches = 0;
  u64 lrfReads = 0, lrfWrites = 0;
  u64 checksum = 0;
};

template <typename RunFn>
AbSnapshot runCase(const KernelCase& c, u32 trips, RunFn&& run) {
  Fabric f;
  prepareFabric(f);
  c.setup(f);
  AbSnapshot s;
  s.r = run(f, trips);
  s.act = f.act;
  s.l1Reads = f.l1.stats().reads;
  s.l1Writes = f.l1.stats().writes;
  s.l1Conflicts = f.l1.stats().conflicts;
  s.l1ConflictCycles = f.l1.stats().conflictCycles;
  s.cgaOps = f.act.cgaOps;
  s.cgaRouteMoves = f.act.cgaRouteMoves;
  s.simdOps = f.act.simdOps;
  s.ops16 = f.act.ops16;
  s.transports = f.act.transports;
  s.cdrfCgaAccesses = f.act.cdrfCgaAccesses;
  s.l1CgaAccesses = f.act.l1CgaAccesses;
  s.contextFetches = f.cfg.stats().contextFetches;
  {
    const RegFileStats lrf = f.array.localRfTotals();
    s.lrfReads = lrf.reads;
    s.lrfWrites = lrf.writes;
  }
  s.checksum = fabricChecksum(f);  // bumps stats; keep last
  return s;
}

void expectEqual(const AbSnapshot& ref, const AbSnapshot& fast) {
  EXPECT_EQ(ref.r.cycles, fast.r.cycles);
  EXPECT_EQ(ref.r.arrayCycles, fast.r.arrayCycles);
  EXPECT_EQ(ref.r.stallCycles, fast.r.stallCycles);
  EXPECT_EQ(ref.r.issueCycles, fast.r.issueCycles);
  EXPECT_EQ(ref.r.ops, fast.r.ops);
  EXPECT_EQ(ref.r.routeMoves, fast.r.routeMoves);
  EXPECT_EQ(ref.l1Reads, fast.l1Reads);
  EXPECT_EQ(ref.l1Writes, fast.l1Writes);
  EXPECT_EQ(ref.l1Conflicts, fast.l1Conflicts);
  EXPECT_EQ(ref.l1ConflictCycles, fast.l1ConflictCycles);
  EXPECT_EQ(ref.cgaOps, fast.cgaOps);
  EXPECT_EQ(ref.cgaRouteMoves, fast.cgaRouteMoves);
  EXPECT_EQ(ref.simdOps, fast.simdOps);
  EXPECT_EQ(ref.ops16, fast.ops16);
  EXPECT_EQ(ref.transports, fast.transports);
  EXPECT_EQ(ref.cdrfCgaAccesses, fast.cdrfCgaAccesses);
  EXPECT_EQ(ref.l1CgaAccesses, fast.l1CgaAccesses);
  EXPECT_EQ(ref.contextFetches, fast.contextFetches);
  EXPECT_EQ(ref.lrfReads, fast.lrfReads);
  EXPECT_EQ(ref.lrfWrites, fast.lrfWrites);
  EXPECT_EQ(ref.checksum, fast.checksum);
  EXPECT_TRUE(ref.act == fast.act) << "activity counters differ";
}

// Runs `c` at both tiers for every trip count and expects equality.
void expectTiersMatch(const KernelCase& c, const KernelPlan& ref,
                      const KernelPlan& native,
                      std::initializer_list<u32> tripCounts) {
  for (u32 trips : tripCounts) {
    SCOPED_TRACE(std::string(c.name) + " trips=" + std::to_string(trips));
    const AbSnapshot a = runCase(c, trips, [&](Fabric& f, u32 t) {
      return f.array.run(ref, t);
    });
    const AbSnapshot n = runCase(c, trips, [&](Fabric& f, u32 t) {
      return f.array.run(native, t);
    });
    expectEqual(a, n);
  }
}

TEST(CgaExecTierAbc, TiersMatchOnEveryFixtureKernel) {
  for (const KernelCase& c : tableTwoKernelCases()) {
    const KernelPlan ref = buildKernelPlan(c.config, ExecTier::kReference);
    const KernelPlan native = buildKernelPlan(c.config, ExecTier::kNative);
    ASSERT_EQ(ref.tier, ExecTier::kReference);
    ASSERT_EQ(native.tier, ExecTier::kNative);
    ASSERT_EQ(ref.native, nullptr);
    ASSERT_NE(native.native, nullptr);
    // 0: nothing runs; 1 and 2: prologue/epilogue overlap, steady-state
    // window empty or tiny; c.trips: the canonical Table 2 launch with a
    // real steady state.
    expectTiersMatch(c, ref, native, {0u, 1u, 2u, c.trips});
  }
}

// -- Commit-phase boundaries on hand-built kernels ---------------------------

FuOp fuOp(Opcode op, u16 t, SrcSel a, SrcSel b = SrcSel::none(), i32 imm = 0,
          DstSel d = {}) {
  FuOp f;
  f.op = op;
  f.schedTime = t;
  f.src1 = a;
  f.src2 = b;
  f.imm = imm;
  f.dst = d;
  return f;
}

DstSel toLrf(u8 r) { return {true, r, false, 0}; }
DstSel toCdrf(u8 r) { return {false, 0, true, r}; }

struct HandKernel {
  KernelCase c;
  u32 commitPhaseOps = 0;   ///< expected native-plan coverage
  u32 commitPhaseMovs = 0;
};

/// A kernel from (FU, op) pairs: each op lands in context schedTime mod II;
/// FUs 0, 1, 4 and 5 get local-RF r0 preloaded from CDRF r1..r4, which the
/// setup seeds with distinct 64-bit values.
HandKernel handKernel(const char* name, int ii,
                      std::vector<std::pair<int, FuOp>> ops, u32 phaseOps,
                      u32 phaseMovs) {
  HandKernel h;
  KernelConfig& k = h.c.config;
  k.name = name;
  k.ii = ii;
  k.contexts.resize(static_cast<std::size_t>(ii));
  int len = ii;
  for (const auto& [fu, f] : ops) {
    k.contexts[f.schedTime % static_cast<u16>(ii)].fu[fu] = f;
    len = std::max(len, f.schedTime + opInfo(f.op).latency);
  }
  k.schedLength = len;
  k.preloads = {{0, 0, 1}, {1, 0, 2}, {4, 0, 3}, {5, 0, 4}};
  k.writebacks = {{30, 0, 0}, {31, 4, 0}};
  h.c.name = name;
  h.c.setup = [](Fabric& f) {
    f.crf.poke(1, 0x0123456789ABCDEFull);
    f.crf.poke(2, 0x7FFF8000FFFF0001ull);
    f.crf.poke(3, 0x00000000DEADBEEFull);
    f.crf.poke(4, 0xFFFFFFFF00000010ull);
  };
  h.commitPhaseOps = phaseOps;
  h.commitPhaseMovs = phaseMovs;
  return h;
}

std::vector<HandKernel> commitPhaseKernels() {
  const SrcSel imm = SrcSel::imm();
  auto out = [](int fu) { return SrcSel::output(fu); };
  const SrcSel lrf0 = SrcSel::localRf(0);
  std::vector<HandKernel> ks;
  // Cycles stay on the wheel: two MOVs swap FU0/FU1's outputs on residue 0,
  // two ADDs read each other's outputs on residue 1; only the XOR reading
  // the cycle is peeled.
  ks.push_back(handKernel("swap", 2,
                          {{0, fuOp(Opcode::ADD, 0, out(1), imm, 3, toLrf(1))},
                           {1, fuOp(Opcode::ADD, 0, out(0), imm, 7)},
                           {0, fuOp(Opcode::MOV, 1, out(1))},
                           {1, fuOp(Opcode::MOV, 1, out(0), {}, 0, toLrf(2))},
                           {4, fuOp(Opcode::XOR, 2, out(0), lrf0)}},
                          1, 0));
  // Destination collisions stay on the wheel: FU5's MOV lands on the same
  // cycle as its own MUL, FU0's MOV writes CDRF r10 on the cycle FU1's load
  // does.  The accumulating ADD and the MOV to both a local-RF and a CDRF
  // slot are peeled.
  ks.push_back(handKernel(
      "collide", 4,
      {{5, fuOp(Opcode::MUL, 0, lrf0, imm, 3)},
       {5, fuOp(Opcode::MOV, 1, out(4))},
       {4, fuOp(Opcode::ADD, 0, lrf0, imm, 1, toLrf(0))},
       {1, fuOp(Opcode::LD_I, 0, imm, imm, 0x40, toCdrf(10))},
       {0, fuOp(Opcode::MOV, 0, out(1), {}, 0, toCdrf(10))},
       {2, fuOp(Opcode::MOV, 4, out(1), {}, 0, {true, 3, true, 20})}},
      2, 1));
  // Read-before-write reordering: on residue 1 the peel order is FU3 (self
  // read), FU5 (reads FU1), FU1 (reads FU0), FU0; on residue 0 FU2 reads
  // FU1's output before FU1's MOV overwrites it.  Spans three iterations.
  ks.push_back(handKernel("order", 3,
                          {{1, fuOp(Opcode::ADD, 0, out(0), lrf0)},
                           {0, fuOp(Opcode::MOV, 0, lrf0)},
                           {5, fuOp(Opcode::SUB, 0, out(1), imm, 2)},
                           {3, fuOp(Opcode::ADD, 0, out(3), imm, 9)},
                           {0, fuOp(Opcode::ADD, 1, out(0), imm, 1, toLrf(0))},
                           {2, fuOp(Opcode::MOV, 2, out(1), {}, 0, toCdrf(5))},
                           {1, fuOp(Opcode::MOV, 5, out(5))}},
                          7, 3));
  // II = 1: every op lands on its own residue; a three-op chain peels in
  // reverse FU order.
  ks.push_back(handKernel("ii1", 1,
                          {{0, fuOp(Opcode::ADD, 0, out(0), imm, 1)},
                           {1, fuOp(Opcode::MOV, 0, out(0))},
                           {2, fuOp(Opcode::MOV, 0, out(1), {}, 0, toCdrf(7))}},
                          3, 2));
  return ks;
}

TEST(CgaExecTierAbc, CommitPhaseFallbacksAndBoundariesMatchReference) {
  for (const HandKernel& h : commitPhaseKernels()) {
    const KernelPlan ref = buildKernelPlan(h.c.config, ExecTier::kReference);
    const KernelPlan native = buildKernelPlan(h.c.config, ExecTier::kNative);
    EXPECT_EQ(native.native->commitPhaseOps, h.commitPhaseOps) << h.c.name;
    EXPECT_EQ(native.native->commitPhaseMovs, h.commitPhaseMovs) << h.c.name;
    // 1-3 trips leave the steady window empty or a cycle or two long.
    expectTiersMatch(h.c, ref, native, {0u, 1u, 2u, 3u, 9u, 33u});
  }
}

// The commit phase must keep covering the modem: a regression in the
// eligibility or ordering rules would quietly send the routing MOVs back
// through the commit wheel.
TEST(CgaExecTierAbc, CommitPhaseCoversModemLatencyOneOps) {
  u64 lat1 = 0, phase = 0, movs = 0, phaseMovs = 0;
  for (const KernelCase& c : tableTwoKernelCases()) {
    const KernelPlan p = buildKernelPlan(c.config, ExecTier::kNative);
    lat1 += p.native->latencyOneOps;
    phase += p.native->commitPhaseOps;
    movs += p.native->perIter.movs;
    phaseMovs += p.native->commitPhaseMovs;
  }
  ASSERT_GT(lat1, 0u);
  ASSERT_GT(movs, 0u);
  EXPECT_GE(100 * phase, 85 * lat1) << phase << "/" << lat1;
  EXPECT_GE(100 * phaseMovs, 85 * movs) << phaseMovs << "/" << movs;
}

// The KernelConfig overloads are thin wrappers over buildKernelPlan + the
// plan overload; pin that they really are the same execution, for both the
// explicit-tier and default-tier flavours.
TEST(CgaExecTierAbc, ConfigOverloadDelegatesToPlan) {
  const std::vector<KernelCase> cases = tableTwoKernelCases();
  const KernelCase& c = cases.front();
  const AbSnapshot viaDefault = runCase(c, c.trips, [&](Fabric& f, u32 t) {
    return f.array.run(c.config, t);
  });
  const AbSnapshot viaTier = runCase(c, c.trips, [&](Fabric& f, u32 t) {
    return f.array.run(c.config, t, defaultExecTier());
  });
  const KernelPlan plan = buildKernelPlan(c.config, defaultExecTier());
  const AbSnapshot viaPlan = runCase(c, c.trips, [&](Fabric& f, u32 t) {
    return f.array.run(plan, t);
  });
  expectEqual(viaDefault, viaTier);
  expectEqual(viaDefault, viaPlan);
}

// Tier selection fails loudly at plan build, never silently at launch.
TEST(CgaExecTierAbc, UnknownTierThrowsAtPlanBuild) {
  const std::vector<KernelCase> cases = tableTwoKernelCases();
  EXPECT_THROW(buildKernelPlan(cases.front().config, static_cast<ExecTier>(7)),
               SimError);
  EXPECT_THROW(parseExecTier("turbo"), SimError);
  // The retired middle tier's name is rejected like any other unknown.
  EXPECT_THROW(parseExecTier("interpreted"), SimError);
  EXPECT_EQ(parseExecTier("reference"), ExecTier::kReference);
  EXPECT_EQ(parseExecTier("native"), ExecTier::kNative);
}

}  // namespace
}  // namespace adres::testsupport
