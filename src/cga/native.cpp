// Native execution tier: plan specialization (buildNativePlan) and the
// specialized launch loop (CgaArray::runNative).  See cga/native.hpp for
// the tier's design and DESIGN.md §14 for the exactness contract.
#include "cga/native.hpp"

#include <algorithm>

#include "cga/array.hpp"
#include "common/check.hpp"
#include "isa/semantics.hpp"
#include "mem/scratchpad.hpp"

namespace adres {

// A result's destinations: the FU output register plus the local-RF and
// CDRF slots, which point at the array's discard word when unselected.
inline void writeDestinations(const NativeResolvedOp& o, Word v) {
  *o.out = v;
  *o.lrfDst = v;
  *o.crfDst = v;
}

namespace {

// Pushes one result onto the flat commit wheel.  The slot holds only
// commits due at a single cycle (every processed cycle drains its slot and
// 2 * maxLatency <= kCgaWheelSlots forbids wrap-around), and the per-cycle
// landing count is bounded by the plan's maxCommitDepth.
inline void pushCommit(const NativeResolvedOp& op, NativeEngine& e, Word v) {
  const u32 slot = static_cast<u32>((e.g + op.lat) & kCgaWheelMask);
  ADRES_DCHECK(e.wheelCount[slot] < e.depth, "commit wheel overflow");
  e.wheel[slot * e.depth + e.wheelCount[slot]++] = NativePending{&op, v};
}

// Compute body, one instantiation per opcode: evalOpInline's switch
// constant-folds away, leaving the opcode's straight-line semantics.
template <Opcode Op>
void execCompute(const NativeResolvedOp& op, NativeEngine& e) {
  pushCommit(op, e, evalOpInline(Op, *op.a, *op.b, op.imm));
}

// Commit-phase compute body: the same evaluation, written straight to the
// destinations at the start of the landing cycle.
template <Opcode Op>
void commitCompute(const NativeResolvedOp& op) {
  writeDestinations(op, evalOpInline(Op, *op.a, *op.b, op.imm));
}

// L1 bank arbitration stays per-access: stalls and conflicts are the only
// genuinely dynamic statistics of a launch.
inline u32 bookPort(const NativeResolvedOp& op, NativeEngine& e) {
  const u32 addr = lo32u(*op.a) + lo32u(*op.b);
  const int extra = e.l1->requestPort(e.traceBase + e.wall, addr);
  if (extra > e.stall) e.stall = extra;
  return addr;
}

template <int Bytes, LoadMode Mode>
void execLoad(const NativeResolvedOp& op, NativeEngine& e) {
  const u32 addr = bookPort(op, e);
  u32 raw;
  if constexpr (Bytes == 1) {
    raw = e.l1->peek8(addr);
  } else if constexpr (Bytes == 2) {
    raw = e.l1->peek16(addr);
  } else {
    raw = e.l1->peek32(addr);
  }
  Word v;
  if constexpr (Mode == LoadMode::kZext) {
    v = static_cast<Word>(raw);
  } else if constexpr (Mode == LoadMode::kSext8) {
    v = static_cast<Word>(static_cast<u32>(static_cast<i32>(static_cast<i8>(raw))));
  } else if constexpr (Mode == LoadMode::kSext16) {
    v = static_cast<Word>(static_cast<u32>(static_cast<i32>(static_cast<i16>(raw))));
  } else {
    v = static_cast<u64>(raw) << 32;  // kHigh: low half merged at commit
  }
  pushCommit(op, e, v);
}

template <int Bytes, bool High>
void execStore(const NativeResolvedOp& op, NativeEngine& e) {
  const u32 addr = bookPort(op, e);
  const Word data = *op.c;
  const u32 v = High ? static_cast<u32>(data >> 32) : lo32u(data);
  if constexpr (Bytes == 1) {
    e.l1->poke8(addr, v & 0xFFu);
  } else if constexpr (Bytes == 2) {
    e.l1->poke16(addr, v & 0xFFFFu);
  } else {
    e.l1->poke32(addr, v);
  }
}

NativeExecFn computeFn(Opcode op) {
  switch (op) {
#define ADRES_NATIVE_COMPUTE(name, group, lat, mask) \
  case Opcode::name:                                 \
    return &execCompute<Opcode::name>;
    ADRES_OPCODE_LIST(ADRES_NATIVE_COMPUTE)
#undef ADRES_NATIVE_COMPUTE
  }
  return nullptr;
}

NativeCommitFn commitFn(Opcode op) {
  switch (op) {
#define ADRES_NATIVE_COMMIT(name, group, lat, mask) \
  case Opcode::name:                                \
    return &commitCompute<Opcode::name>;
    ADRES_OPCODE_LIST(ADRES_NATIVE_COMMIT)
#undef ADRES_NATIVE_COMMIT
  }
  return nullptr;
}

NativeExecFn loadFn(const PlanOp& op) {
  switch (op.memBytes) {
    case 1:
      return op.loadMode == LoadMode::kSext8 ? &execLoad<1, LoadMode::kSext8>
                                             : &execLoad<1, LoadMode::kZext>;
    case 2:
      return op.loadMode == LoadMode::kSext16 ? &execLoad<2, LoadMode::kSext16>
                                              : &execLoad<2, LoadMode::kZext>;
    default:
      return op.loadMode == LoadMode::kHigh ? &execLoad<4, LoadMode::kHigh>
                                            : &execLoad<4, LoadMode::kZext>;
  }
}

NativeExecFn storeFn(const PlanOp& op) {
  switch (op.memBytes) {
    case 1: return &execStore<1, false>;
    case 2: return &execStore<2, false>;
    default: return op.storeHigh ? &execStore<4, true> : &execStore<4, false>;
  }
}

// Register keys of the commit-phase analysis: the 16 FU output registers,
// then the 16 x 16 local-RF slots, then the 64 CDRF slots.
constexpr u16 kNoKey = 0xFFFF;
constexpr u32 kKeyLocalRf = kCgaFus;
constexpr u32 kKeyCdrf = kKeyLocalRf + kCgaFus * kLocalRfRegs;
constexpr u32 kRegKeys = kKeyCdrf + kCdrfRegs;

u16 readKey(const SrcSel& s, u8 fu) {
  switch (s.kind) {
    case SrcKind::kOutput: return s.index;
    case SrcKind::kLocalRf:
      return static_cast<u16>(kKeyLocalRf + fu * kLocalRfRegs + s.index);
    case SrcKind::kGlobalRf: return static_cast<u16>(kKeyCdrf + s.index);
    default: return kNoKey;
  }
}

/// Per-op facts the commit-phase analysis needs beyond the spec.
struct PhaseFacts {
  /// Output-register, local-RF and CDRF keys the commit writes.
  std::array<u16, 3> writes = {kNoKey, kNoKey, kNoKey};
  /// Registers the op reads and does not itself write: only these order
  /// it against other commit-phase ops.
  std::array<u16, 2> reads = {kNoKey, kNoKey};
  u32 landing = 0;         ///< (schedTime + lat) mod II
  bool commits = false;    ///< not a store: its result lands on the wheel
  bool candidate = false;  ///< kCompute, latency 1, MOVs from a register
  bool mov = false;
  bool phase = false;      ///< chosen for the commit phase
};

PhaseFacts phaseFacts(const PlanOp& op, std::size_t ctx, std::size_t ii) {
  PhaseFacts f;
  f.landing = static_cast<u32>((ctx + op.lat) % ii);
  f.commits = op.kind != PlanOpKind::kStore;
  f.mov = op.isMov;
  const SrcKind k = op.src1.kind;
  f.candidate = op.kind == PlanOpKind::kCompute && op.lat == 1 &&
                (!op.isMov || k == SrcKind::kOutput ||
                 k == SrcKind::kLocalRf || k == SrcKind::kGlobalRf);
  if (f.commits) {
    f.writes[0] = op.fu;
    if (op.dst.toLocalRf)
      f.writes[1] = static_cast<u16>(kKeyLocalRf + op.fu * kLocalRfRegs +
                                     op.dst.localAddr);
    if (op.dst.toGlobalRf)
      f.writes[2] = static_cast<u16>(kKeyCdrf + op.dst.globalAddr);
  }
  const std::array<u16, 2> reads = {readKey(op.src1, op.fu),
                                    readKey(op.src2, op.fu)};
  for (std::size_t r = 0; r < reads.size(); ++r)
    if (std::find(f.writes.begin(), f.writes.end(), reads[r]) ==
        f.writes.end())
      f.reads[r] = reads[r];
  return f;
}

// Chooses the commit-phase ops among `landing` (every op whose commit
// lands on one residue) and returns them in read-before-write order.
// `writers`/`readers` are zeroed scratch, left zeroed.
u32 peelCommitPhase(std::vector<PhaseFacts>& facts, const u32* landing,
                    u32 n, std::array<u16, kRegKeys>& writers,
                    std::array<u16, kRegKeys>& readers,
                    std::array<u32, kCgaFus>& order) {
  auto count = [](std::array<u16, kRegKeys>& into,
                  const auto& keys, int delta) {
    for (u16 k : keys)
      if (k != kNoKey) into[k] = static_cast<u16>(into[k] + delta);
  };
  if (std::none_of(landing, landing + n,
                   [&](u32 i) { return facts[i].candidate; }))
    return 0;
  for (u32 j = 0; j < n; ++j) count(writers, facts[landing[j]].writes, 1);

  // Eligible: a candidate whose every destination sees no other landing.
  std::array<u32, kCgaFus> cand;
  u32 nc = 0;
  for (u32 j = 0; j < n; ++j) {
    const PhaseFacts& f = facts[landing[j]];
    if (!f.candidate) continue;
    if (std::any_of(f.writes.begin(), f.writes.end(),
                    [&](u16 w) { return w != kNoKey && writers[w] != 1; }))
      continue;
    ADRES_DCHECK(nc < kCgaFus, "more latency-1 landings than FUs");
    cand[nc++] = landing[j];
    count(readers, f.reads, 1);
  }

  // Peel: an op is ready once no unpeeled candidate reads a register it
  // writes.  Ops left in a cycle stay on the wheel.
  std::array<bool, kCgaFus> peeled = {};
  u32 no = 0;
  for (bool progress = true; progress;) {
    progress = false;
    for (u32 j = 0; j < nc; ++j) {
      PhaseFacts& f = facts[cand[j]];
      if (peeled[j] ||
          std::any_of(f.writes.begin(), f.writes.end(),
                      [&](u16 w) { return w != kNoKey && readers[w] != 0; }))
        continue;
      peeled[j] = true;
      progress = true;
      f.phase = true;
      order[no++] = cand[j];
      count(readers, f.reads, -1);
    }
  }

  for (u32 j = 0; j < nc; ++j)
    if (!peeled[j]) count(readers, facts[cand[j]].reads, -1);
  for (u32 j = 0; j < n; ++j) count(writers, facts[landing[j]].writes, -1);
  return no;
}

}  // namespace

std::shared_ptr<const NativePlan> buildNativePlan(const KernelPlan& plan) {
  auto np = std::make_shared<NativePlan>();
  const std::size_t ii = plan.contexts.size();
  np->contexts.resize(ii);
  NativeIterStats& it = np->perIter;

  // Commits landing at each residue per steady-state iteration.  Guarded
  // prologue/epilogue cycles issue subsets of the steady pattern, so these
  // depths bound every cycle of a launch.
  std::vector<u32> depth(ii, 0);

  // Operand-read accounting, mirroring CgaArray::readSrc: kOutput bumps
  // transports (mesh mux traversal), kLocalRf reads the consuming FU's
  // file, kGlobalRf is a CDRF access + central-file read; immediates and
  // kNone are free.
  auto noteRead = [&](const SrcSel& s, u8 fu) {
    switch (s.kind) {
      case SrcKind::kOutput: ++it.transports; break;
      case SrcKind::kLocalRf: ++it.lrfReads[fu]; break;
      case SrcKind::kGlobalRf: ++it.cdrf; ++it.crfReads; break;
      default: break;
    }
  };

  // Specs in plan order (contexts concatenated, FU-ascending); the commit
  // phase below reorders each context.
  std::size_t nOps = 0;
  for (const ContextPlan& cp : plan.contexts) nOps += cp.ops.size();
  std::vector<NativeOpSpec> ops;
  std::vector<PhaseFacts> facts;
  ops.reserve(nOps);
  facts.reserve(nOps);
  std::vector<u32> ctxBegin(ii + 1, 0);
  for (std::size_t c = 0; c < ii; ++c) {
    ctxBegin[c] = static_cast<u32>(ops.size());
    for (const PlanOp& op : plan.contexts[c].ops) {
      NativeOpSpec s;
      s.fu = op.fu;
      s.lat = op.lat;
      s.schedTime = op.schedTime;
      s.src1 = op.src1;
      s.src2 = op.src2;
      s.src3 = op.src3;
      s.dst = op.dst;
      s.imm = op.imm;
      s.mergeHigh =
          op.kind == PlanOpKind::kLoad && op.loadMode == LoadMode::kHigh;
      // src1/src3 immediates are the raw control field; only src2 carries
      // the pre-scaled memory immediate.
      if (s.src1.kind == SrcKind::kImm) s.imm1 = fromScalar(op.imm);
      if (s.src2.kind == SrcKind::kImm) s.imm2 = op.immOperand;
      if (s.src3.kind == SrcKind::kImm) s.imm3 = fromScalar(op.imm);

      ++it.ops;
      if (op.isMov) ++it.movs;
      if (op.isSimdOp) ++it.simd;
      it.ops16 += op.ops16;
      noteRead(op.src1, op.fu);
      noteRead(op.src2, op.fu);
      switch (op.kind) {
        case PlanOpKind::kCompute:
          s.fn = computeFn(op.op);
          if (op.lat == 1) {
            ++np->latencyOneOps;
            if (!op.isMov) s.commit = commitFn(op.op);
          }
          break;
        case PlanOpKind::kLoad:
          s.fn = loadFn(op);
          ++it.l1Reads;
          ++it.l1Accesses;
          break;
        case PlanOpKind::kStore:
          s.fn = storeFn(op);
          noteRead(op.src3, op.fu);
          ++it.l1Writes;
          ++it.l1Accesses;
          break;
      }
      ADRES_CHECK(s.fn != nullptr, "no native body for opcode "
                                       << opInfo(op.op).name << " in kernel '"
                                       << plan.name << "'");
      if (op.kind != PlanOpKind::kStore) {
        // Commit-side accounting: one result transport into the output
        // register, plus the selected RF writes (commitWrite's pattern).
        ++it.transports;
        if (op.dst.toLocalRf) ++it.lrfWrites[op.fu];
        if (op.dst.toGlobalRf) {
          ++it.cdrf;
          ++it.crfWrites;
        }
        ++depth[(c + op.lat) % ii];
      }
      ops.push_back(s);
      facts.push_back(phaseFacts(op, c, ii));
    }
  }
  ctxBegin[ii] = static_cast<u32>(ops.size());

  np->maxCommitDepth = 1;
  for (u32 d : depth) np->maxCommitDepth = std::max(np->maxCommitDepth, d);

  // Committing ops bucketed by landing residue (a counting sort).
  std::vector<u32> landAt(ii + 1, 0);
  std::vector<u32> byLanding(ops.size());
  for (const PhaseFacts& f : facts)
    if (f.commits) ++landAt[f.landing + 1];
  for (std::size_t r = 0; r < ii; ++r) landAt[r + 1] += landAt[r];
  {
    std::vector<u32> fill(landAt.begin(), landAt.end() - 1);
    for (u32 i = 0; i < ops.size(); ++i)
      if (facts[i].commits) byLanding[fill[facts[i].landing]++] = i;
  }

  // Each context's latency-1 results land on the next residue: emit its
  // issuing ops in plan order, then its commit-phase ops in peel order.
  std::array<u16, kRegKeys> writers = {};
  std::array<u16, kRegKeys> readers = {};
  std::array<u32, kCgaFus> order;
  np->ops.reserve(ops.size());
  for (std::size_t c = 0; c < ii; ++c) {
    const std::size_t r = (c + 1) % ii;
    const u32 no = peelCommitPhase(facts, byLanding.data() + landAt[r],
                                   landAt[r + 1] - landAt[r], writers,
                                   readers, order);
    NativeContextInfo& ci = np->contexts[c];
    ci.begin = static_cast<u32>(np->ops.size());
    for (u32 i = ctxBegin[c]; i < ctxBegin[c + 1]; ++i)
      if (!facts[i].phase) np->ops.push_back(ops[i]);
    ci.issueEnd = static_cast<u32>(np->ops.size());
    for (u32 j = 0; j < no; ++j) {
      np->ops.push_back(ops[order[j]]);
      if (facts[order[j]].mov) ++np->commitPhaseMovs;
    }
    ci.end = static_cast<u32>(np->ops.size());
    ci.opCount = ci.end - ci.begin;
    np->commitPhaseOps += no;
  }

  // No-retire skip runs: a residue is idle iff it issues no op and no
  // commit ever lands on it in steady state.  Consecutive idle residues
  // collapse into one cycle-counter jump.
  std::vector<bool> idle(ii);
  for (std::size_t r = 0; r < ii; ++r)
    idle[r] = np->contexts[r].opCount == 0 && depth[r] == 0;
  for (std::size_t r = 0; r < ii; ++r) {
    if (!idle[r]) continue;
    u32 run = 0;
    while (run < ii && idle[(r + run) % ii]) ++run;
    np->contexts[r].skipRun = run;
  }
  return np;
}

void CgaArray::resolveNative(const KernelPlan& plan) {
  const NativePlan& np = *plan.native;

  // Operand pointer: FU output register, RF slot, or the spec's immediate
  // storage (which also serves kNone as a zero).  Plans are immutable and
  // outlive the launch, so aliasing their immediates is safe.
  auto srcPtr = [&](const SrcSel& s, const Word* immSlot,
                    std::size_t fu) -> const Word* {
    switch (s.kind) {
      case SrcKind::kOutput: return &outRegs_[s.index];
      case SrcKind::kLocalRf: return localRfs_[fu].slotPtr(s.index);
      case SrcKind::kGlobalRf: return crf_.slotPtr(s.index);
      default: return immSlot;
    }
  };

  nativeOps_.resize(np.ops.size());
  for (std::size_t i = 0; i < np.ops.size(); ++i) {
    const NativeOpSpec& s = np.ops[i];
    NativeResolvedOp& r = nativeOps_[i];
    const std::size_t fu = s.fu;
    r.fn = s.fn;
    r.commit = s.commit;
    r.lat = s.lat;
    r.schedTime = s.schedTime;
    r.imm = s.imm;
    r.mergeHigh = s.mergeHigh;
    r.a = srcPtr(s.src1, &s.imm1, fu);
    r.b = srcPtr(s.src2, &s.imm2, fu);
    r.c = srcPtr(s.src3, &s.imm3, fu);
    r.out = &outRegs_[fu];
    r.lrfDst = s.dst.toLocalRf ? localRfs_[fu].slotPtr(s.dst.localAddr)
                               : &nativeDiscard_;
    r.crfDst = s.dst.toGlobalRf ? crf_.slotPtr(s.dst.globalAddr)
                                : &nativeDiscard_;
    // LD_IH merges the current destination's low half (currentDst order:
    // local RF, then CDRF, then the output register).
    r.mergeSrc = s.dst.toLocalRf    ? r.lrfDst
                 : s.dst.toGlobalRf ? static_cast<const Word*>(r.crfDst)
                                    : static_cast<const Word*>(r.out);
  }

  const std::size_t need = kCgaWheelSlots * np.maxCommitDepth;
  if (nativeWheel_.size() < need) nativeWheel_.resize(need);
  nativeWheelCounts_.fill(0);
}

CgaRunResult CgaArray::runNative(const KernelPlan& plan, u32 trips,
                                 u64 traceBase) {
  const NativePlan& np = *plan.native;
  CgaRunResult res;
  // Each kernel launch runs on its own local timeline; clear the bank-port
  // bookings left by previous launches or VLIW-mode accesses.
  l1_.arbiter().reset();

  for (const Preload& p : plan.preloads)
    localRfs_[p.fu].poke(p.localReg, crf_.peek(p.globalReg));
  const u64 preCycles = (plan.preloads.size() + 2) / 3;

  const u64 ii = static_cast<u64>(plan.ii);
  const u64 totalLogical =
      trips == 0 ? 0
                 : (static_cast<u64>(trips) - 1) * ii +
                       static_cast<u64>(plan.schedLength);
  cfg_.noteContextFetches(totalLogical);

  resolveNative(plan);
  NativeEngine e;
  e.l1 = &l1_;
  e.wheel = nativeWheel_.data();
  e.wheelCount = nativeWheelCounts_.data();
  e.depth = np.maxCommitDepth;
  e.traceBase = traceBase;

  // Commits due at cycle `g` (before reads), in issue order.
  auto drainSlot = [&](u64 g) {
    const u32 slot = static_cast<u32>(g & kCgaWheelMask);
    const u32 n = e.wheelCount[slot];
    if (n == 0) return;
    NativePending* p = e.wheel + slot * e.depth;
    for (u32 i = 0; i < n; ++i) {
      const NativeResolvedOp& o = *p[i].op;
      Word v = p[i].value;
      if (o.mergeHigh) v |= *o.mergeSrc & 0xFFFFFFFFull;
      writeDestinations(o, v);
    }
    e.wheelCount[slot] = 0;
  };

  // Commit phase of the residue after context `prev`: the latency-1 ops
  // that context issued one steady cycle ago evaluate now, before the
  // wheel's commits for this cycle (native.hpp).
  auto commitPhase = [&](const NativeContextInfo& prev) {
    for (u32 i = prev.issueEnd; i < prev.end; ++i) {
      const NativeResolvedOp& o = nativeOps_[i];
      if (o.commit) {
        o.commit(o);
      } else {
        writeDestinations(o, *o.a);  // routing MOV: a plain copy
      }
    }
  };

  // Guarded prologue/epilogue: per-op squash checks; all op-derived
  // statistics are already covered by the whole-launch batch below (every
  // op issues exactly `trips` times across the launch).
  auto runGuarded = [&](u64 from, u64 to) {
    for (u64 g = from; g < to; ++g) {
      drainSlot(g);
      const NativeContextInfo& ctx = np.contexts[g % ii];
      e.g = g;
      e.stall = 0;
      bool issued = false;
      for (u32 i = ctx.begin; i < ctx.end; ++i) {
        const NativeResolvedOp& o = nativeOps_[i];
        if (g < o.schedTime) continue;  // prologue squash
        if ((g - o.schedTime) / ii >= trips) continue;  // epilogue squash
        issued = true;
        o.fn(o, e);
      }
      if (issued) ++res.issueCycles;
      e.wall += 1 + static_cast<u64>(e.stall);
      res.stallCycles += static_cast<u64>(e.stall);
    }
  };

  u64 steadyBegin = totalLogical;
  u64 steadyEnd = totalLogical;
  if (totalLogical > 0) {
    steadyBegin = std::min(totalLogical, static_cast<u64>(plan.maxSchedTime));
    steadyEnd = std::min(totalLogical,
                         static_cast<u64>(plan.minSchedTime) +
                             static_cast<u64>(trips) * ii);
    if (steadyEnd < steadyBegin) steadyEnd = steadyBegin;
  }

  runGuarded(0, steadyBegin);

  // Cycle-skip warm-up bound: commits pushed by guarded prologue cycles
  // (g < steadyBegin, latency <= kCgaWheelSlots/2) all retire before
  // steadyBegin + kCgaWheelSlots.  Past that, a pending commit can only
  // come from a steady-state cycle, whose landing residue has depth > 0 —
  // so an idle residue provably has an empty slot and no issue, and the
  // loop may jump the cycle counter across the whole idle run.
  // A steady cycle g runs the commit phase of the ops issued at g - 1 when
  // that cycle was steady too; those issued by the guarded prologue went
  // through the wheel.
  const u64 skipSafe = steadyBegin + kCgaWheelSlots;
  const u32 lastCtx = static_cast<u32>(ii - 1);
  u64 g = steadyBegin;
  u32 r = static_cast<u32>(g % ii);  // running residue g mod II
  while (g < steadyEnd) {
    if (g > steadyBegin) commitPhase(np.contexts[r == 0 ? lastCtx : r - 1]);
    drainSlot(g);
    const NativeContextInfo& ctx = np.contexts[r];
    if (ctx.skipRun != 0 && g >= skipSafe) {
      // An idle residue receives no landing, so the commit phase of the
      // cycle after the jump (whose predecessor was idle) is empty.
      const u32 run = static_cast<u32>(std::min<u64>(ctx.skipRun, steadyEnd - g));
      g += run;
      e.wall += run;
      r += run;
      if (r >= ii) r -= static_cast<u32>(ii);
      continue;
    }
    e.g = g;
    e.stall = 0;
    for (u32 i = ctx.begin; i < ctx.issueEnd; ++i) {
      const NativeResolvedOp& o = nativeOps_[i];
      o.fn(o, e);
    }
    if (ctx.opCount != 0) ++res.issueCycles;
    e.wall += 1 + static_cast<u64>(e.stall);
    res.stallCycles += static_cast<u64>(e.stall);
    ++g;
    if (++r == ii) r = 0;
  }
  if (steadyEnd > steadyBegin)
    commitPhase(np.contexts[r == 0 ? lastCtx : r - 1]);

  runGuarded(steadyEnd, totalLogical);

  // Drain writes still pending past the last logical cycle, in cycle order.
  u64 tail = totalLogical;
  for (u64 c = totalLogical; c < totalLogical + kCgaWheelSlots; ++c) {
    if (e.wheelCount[c & kCgaWheelMask] == 0) continue;
    drainSlot(c);
    tail = c;
  }
  const u64 drainExtra = tail - totalLogical;

  for (const Writeback& wb : plan.writebacks)
    crf_.poke(wb.globalReg, localRfs_[wb.fu].peek(wb.localReg));
  const u64 wbCycles = (plan.writebacks.size() + 2) / 3;

  // Whole-launch batched statistics: every scheduled op issues exactly
  // `trips` times, so op-derived counters are perIter * trips plus the
  // preload/writeback constants.  Only issue/stall/conflict counts (booked
  // live above) and the wall clock are dynamic.
  const u64 t = trips;
  const NativeIterStats& it = np.perIter;
  const u64 nPre = plan.preloads.size();
  const u64 nWb = plan.writebacks.size();

  res.ops = it.ops * t;
  res.routeMoves = it.movs * t;
  res.arrayCycles = totalLogical;
  res.cycles = preCycles + e.wall + drainExtra + wbCycles;

  act_.cgaOps += res.ops;
  act_.cgaRouteMoves += res.routeMoves;
  act_.simdOps += it.simd * t;
  act_.ops16 += it.ops16 * t;
  act_.transports += it.transports * t;
  act_.cdrfCgaAccesses += it.cdrf * t + nPre + nWb;
  act_.l1CgaAccesses += it.l1Accesses * t;
  act_.cgaCycles += res.cycles;
  act_.cgaStallCycles += res.stallCycles;

  ScratchpadStats& l1s = l1_.mutableStats();
  l1s.reads += it.l1Reads * t;
  l1s.writes += it.l1Writes * t;

  RegFileStats& cs = crf_.mutableStats();
  cs.reads += it.crfReads * t + nPre;
  cs.writes += it.crfWrites * t + nWb;

  for (std::size_t fu = 0; fu < static_cast<std::size_t>(kCgaFus); ++fu) {
    RegFileStats& rs = localRfs_[fu].mutableStats();
    rs.reads += it.lrfReads[fu] * t;
    rs.writes += it.lrfWrites[fu] * t;
  }
  for (const Preload& p : plan.preloads) ++localRfs_[p.fu].mutableStats().writes;

  return res;
}

}  // namespace adres
