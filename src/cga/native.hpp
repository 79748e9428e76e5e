// Native execution tier (DESIGN.md §14): the plan-to-native lowering
// behind ExecTier::kNative.
//
// buildNativePlan specializes a decoded KernelPlan at plan-build time:
//  - every op gets a function pointer to a template-instantiated loop body
//    specialized per (dispatch kind, latency class) — realized per opcode,
//    so evalOp's switch constant-folds into the body (compute), and the
//    memory width / extension mode / half-select collapse to straight-line
//    code (loads, stores);
//  - per-iteration statistics (op counts, operand transports, RF and L1
//    traffic, down to per-FU local-RF reads/writes) are pre-summed once.
//    Every scheduled op issues exactly `trips` times per launch, so every
//    op-derived counter of a launch is `perIter * trips` plus the
//    preload/writeback constants — the executing loop touches no counter;
//  - per-residue commit landing depths bound the flat commit wheel, and
//    residues on which no op issues and no result retires are folded into
//    no-retire skip runs the steady loop jumps over in one step;
//  - latency-1 compute ops whose landing is collision-free and orderable
//    become commit-phase ops: in steady state they do not issue at all,
//    but evaluate at the start of the cycle their result lands on and
//    write their destinations directly (a MOV is a plain copy), so the
//    commit wheel carries only multi-cycle results and the few latency-1
//    ops the rules below reject.
//
// Commit phase (DESIGN.md §14).  An op is commit-phase when it is kCompute
// with latency 1 (a MOV also needs a register source) and no other op's
// commit lands on any of its destinations (output register, local-RF
// slot, CDRF slot) on its landing residue (schedTime + 1) mod II.  Per
// landing residue the eligible ops are peeled read-before-write: an op
// that writes a register runs after every other commit-phase op reading
// it; ops left in a cycle (two MOVs swapping registers) stay on the wheel.
// This is exact: an op issued at g reads the state after g's commits, and
// nothing writes a register between then and g+1's commit phase except an
// earlier commit-phase op, which the ordering rules out; with no
// destination collision, commit order within the slot cannot matter.
// Guarded prologue/epilogue cycles issue every op through the wheel; the
// steady loop runs a residue's commit phase only for cycles g with
// g - 1 >= steadyBegin, and once more for steadyEnd after the loop.
//
// At launch, CgaArray resolves each op's operand/destination selectors
// into raw pointers (FU output registers, local/central RF slots, plan
// immediates) once; the steady loop then runs pointer-to-pointer.  Only
// genuinely dynamic quantities remain per-cycle: L1 bank arbitration
// (stalls, conflicts) and the issue-cycle count.  The tier is bit- and
// cycle-exact with the reference loop (tests/cga/fastpath_ab_test).
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "cga/plan.hpp"

namespace adres {

class Scratchpad;

struct NativeResolvedOp;
struct NativeEngine;

/// A specialized steady-loop body: executes one op at the engine's current
/// cycle (reads through resolved pointers, pushes its commit, books L1
/// ports).  Instantiated from templates over (dispatch kind, latency
/// class) — per opcode for compute ops, per (width, mode) for memory ops.
using NativeExecFn = void (*)(const NativeResolvedOp&, NativeEngine&);

/// A commit-phase body: evaluates one latency-1 compute op at the start of
/// its landing cycle and writes its destinations directly.  Instantiated
/// per opcode; null for commit-phase MOVs, which the loop copies inline.
using NativeCommitFn = void (*)(const NativeResolvedOp&);

/// One op with every operand resolved to a raw pointer for one CgaArray
/// instance (filled per launch from the plan's NativeOpSpec).
struct NativeResolvedOp {
  NativeExecFn fn = nullptr;
  NativeCommitFn commit = nullptr; ///< commit-phase body (non-MOV only)
  const Word* a = nullptr;        ///< src1
  const Word* b = nullptr;        ///< src2 (plan immediate when kImm)
  const Word* c = nullptr;        ///< src3 (store data)
  Word* out = nullptr;            ///< the FU's output register
  Word* lrfDst = nullptr;         ///< local-RF slot, or the discard word
  Word* crfDst = nullptr;         ///< CDRF slot, or the discard word
  const Word* mergeSrc = nullptr; ///< LD_IH: current-dst low half at commit
  u32 lat = 1;
  u32 schedTime = 0;              ///< guarded prologue/epilogue squashing
  i32 imm = 0;                    ///< control-field immediate (C4SHUF, MOVI*)
  bool mergeHigh = false;         ///< LD_IH commit merge
};

/// One pending commit: the resolved op carries the destination pointers.
struct NativePending {
  const NativeResolvedOp* op = nullptr;
  Word value = 0;
};

/// Mutable per-launch execution state handed to every NativeExecFn.
struct NativeEngine {
  Scratchpad* l1 = nullptr;
  NativePending* wheel = nullptr;  ///< kCgaWheelSlots x depth, slot-major
  u32* wheelCount = nullptr;       ///< per-slot fill counts
  u32 depth = 1;                   ///< plan's maxCommitDepth
  u64 g = 0;                       ///< current logical cycle
  u64 wall = 0;                    ///< wall cycles elapsed (logical + stalls)
  u64 traceBase = 0;               ///< L1 arbitration timeline anchor
  int stall = 0;                   ///< max port wait this cycle
};

/// Build-time form of one op: everything resolution needs, plus the stable
/// storage the resolved immediate pointers alias (plans are immutable and
/// outlive every launch).
struct NativeOpSpec {
  NativeExecFn fn = nullptr;
  NativeCommitFn commit = nullptr;
  u8 fu = 0;
  u8 lat = 1;
  u16 schedTime = 0;
  SrcSel src1, src2, src3;
  DstSel dst;
  i32 imm = 0;
  /// Operand values when the corresponding src is kImm (0 for kNone);
  /// imm2 is the pre-scaled memory immediate for memory ops.
  Word imm1 = 0, imm2 = 0, imm3 = 0;
  bool mergeHigh = false;
};

struct NativeContextInfo {
  u32 begin = 0;  ///< flat [begin, end) op range of this context slot
  /// [begin, issueEnd) issue in the steady loop; [issueEnd, end) are the
  /// context's commit-phase ops in read-before-write order, run at the
  /// start of the next cycle.  Guarded cycles issue all of [begin, end).
  u32 issueEnd = 0;
  u32 end = 0;
  u32 opCount = 0;
  /// No-retire cycle skip: the number of consecutive steady-state cycles,
  /// starting at this residue, on which no op issues AND no commit retires
  /// (0 when this residue is active).  The steady loop advances the cycle
  /// counter across the whole run in one step.
  u32 skipRun = 0;
};

/// Per-iteration statically-known statistics.  Every scheduled op issues
/// exactly `trips` times per launch, so a launch adds `perIter * trips`
/// (plus the preload/writeback constants) to each counter.
struct NativeIterStats {
  u64 ops = 0;
  u64 movs = 0;
  u64 simd = 0;
  u64 ops16 = 0;
  u64 transports = 0;   ///< kOutput operand reads + one per committed result
  u64 cdrf = 0;         ///< CDRF accesses (kGlobalRf reads + toGlobalRf commits)
  u64 crfReads = 0;
  u64 crfWrites = 0;
  u64 l1Reads = 0;
  u64 l1Writes = 0;
  u64 l1Accesses = 0;
  std::array<u64, kCgaFus> lrfReads = {};
  std::array<u64, kCgaFus> lrfWrites = {};
};

/// The native specialization of one kernel, shared read-only like the plan
/// that owns it.
struct NativePlan {
  std::vector<NativeOpSpec> ops;  ///< contexts concatenated, FU-ascending
  std::vector<NativeContextInfo> contexts;  ///< size == ii
  NativeIterStats perIter;
  /// Max commits retiring on any single cycle (sizes the flat wheel).
  u32 maxCommitDepth = 1;
  /// Commit-phase coverage: latency-1 compute ops, and how many of them
  /// (and of them MOVs) run in the commit phase.
  u32 latencyOneOps = 0;
  u32 commitPhaseOps = 0;
  u32 commitPhaseMovs = 0;
};

/// Specializes `plan` (built with all common sections filled) for the
/// native tier.  Called by buildKernelPlan when tier == kNative.
std::shared_ptr<const NativePlan> buildNativePlan(const KernelPlan& plan);

}  // namespace adres
