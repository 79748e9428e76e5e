// Decoded kernel plans: the per-KernelConfig pre-decode behind the
// simulator's native tier.
//
// The reference array loop re-classifies every FU op on every logical
// cycle (isNop / opInfo / memImmScale / ops16PerInstr switch chains across
// translation units) and re-tests the software-pipeline squash predicates
// per op.  A KernelPlan resolves all of that once per kernel: per-context
// dense lists of the active ops with pre-decoded dispatch kind, latency,
// memory width, load extension mode and immediate operands, which
// buildNativePlan lowers to the native loop.  Executing a plan is
// cycle-exact and bit-exact with executing its KernelConfig
// (tests/cga/fastpath_ab_test).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "cga/context.hpp"
#include "cga/exec_tier.hpp"

namespace adres {

struct NativePlan;  // cga/native.hpp: the native tier's specialized form

/// Dispatch class of an active FU op, resolved at plan-build time.
enum class PlanOpKind : u8 { kCompute, kLoad, kStore };

/// How a load's raw memory word becomes the committed register value
/// (pre-decoded applyLoadResult).
enum class LoadMode : u8 {
  kZext,   ///< LD_UC / LD_UC2 / LD_I: width-masked raw, high half cleared
  kSext8,  ///< LD_C
  kSext16, ///< LD_C2
  kHigh,   ///< LD_IH: raw << 32, low half merged at commit
};

/// One active (non-nop) FU op with every per-cycle classification resolved.
struct PlanOp {
  Opcode op = Opcode::NOP;
  u8 fu = 0;
  PlanOpKind kind = PlanOpKind::kCompute;
  u8 lat = 1;             ///< opInfo(op).latency
  u8 memBytes = 0;        ///< 1/2/4 for loads and stores
  LoadMode loadMode = LoadMode::kZext;
  bool storeHigh = false; ///< ST_IH: store src3's high half
  bool isMov = false;
  bool isSimdOp = false;
  u8 ops16 = 0;           ///< ops16PerInstr(op)
  u16 schedTime = 0;
  SrcSel src1, src2, src3;
  DstSel dst;
  i32 imm = 0;
  /// Pre-resolved src2 immediate operand: fromScalar(imm) for compute ops,
  /// fromScalar(imm << memImmScale(op)) for memory ops.
  Word immOperand = 0;
};

/// The active ops of one context slot.
struct ContextPlan {
  std::vector<PlanOp> ops;  ///< FU-ascending (the reference execution order)
};

/// Commit-wheel geometry of the native loop.  Correctness needs
/// 2 * maxLatency <= kCgaWheelSlots (a slot is always drained before any
/// push can wrap onto it); buildKernelPlan checks every op against it.
inline constexpr u64 kCgaWheelSlots = 16;
inline constexpr u64 kCgaWheelMask = kCgaWheelSlots - 1;

/// Per-iteration op count of one (dispatch kind, latency) class across the
/// whole kernel.  Every scheduled op executes exactly once per trip, so a
/// launch's per-class op totals are `ops * trips` — the profiler attributes
/// steady-state work without touching the hot loop.
struct PlanClassCount {
  PlanOpKind kind = PlanOpKind::kCompute;
  u8 lat = 1;
  u32 ops = 0;  ///< scheduled ops of this class per iteration
};

/// A fully pre-decoded kernel: everything CgaArray::run needs, in dense
/// per-context form.  A plan is built FOR an execution tier (DESIGN.md
/// §14); CgaArray::run dispatches on it.  Both tiers carry the decoded
/// sections below; kNative plans additionally carry the specialized
/// NativePlan, and the source KernelConfig is retained so the kReference
/// tier (and any traced launch) runs the original per-cycle loop through
/// the same entry point.
struct KernelPlan {
  std::string name;
  ExecTier tier = ExecTier::kNative;
  int ii = 1;
  int schedLength = 1;
  /// Steady-state window: logical cycle g has no squashed op iff
  /// g >= maxSchedTime and g < minSchedTime + trips * ii.
  u32 maxSchedTime = 0;
  u32 minSchedTime = 0;
  std::vector<ContextPlan> contexts;  ///< size == ii
  std::vector<Preload> preloads;
  std::vector<Writeback> writebacks;
  std::vector<PlanClassCount> classes;  ///< (kind, lat)-ascending
  KernelConfig source;  ///< the validated decode the plan was built from
  /// Specialized native form; non-null iff tier == kNative.
  std::shared_ptr<const NativePlan> native;
};

/// Pre-decodes `k` for `tier` (validating it, as the reference path does).
/// An out-of-range tier throws SimError — tier selection fails loudly at
/// plan build, never silently at launch.
KernelPlan buildKernelPlan(const KernelConfig& k, ExecTier tier);

/// Decoded plans of a whole program's kernel table, shared read-only
/// between processors (the packet farm's workers share one instance the
/// same way they share the mapped program).
struct ProgramPlans {
  ExecTier tier = ExecTier::kNative;  ///< tier every plan was built for
  std::vector<KernelPlan> kernels;
};

/// Builds plans for a kernel table.  Each kernel is first round-tripped
/// through encodeKernel/decodeKernel so the plan describes exactly what the
/// sequencer reads back out of configuration memory after Processor::load
/// (idempotent for kernels that already went through the binary path).
std::shared_ptr<const ProgramPlans> buildProgramPlans(
    const std::vector<KernelConfig>& kernels, ExecTier tier);

/// How a processor executes kernel launches: the tier plus an optional
/// pre-built plan-cache handle (the packet farm shares one read-only
/// ProgramPlans across workers).  Owned by sdr::RxRunOptions and passed to
/// Processor::load — this replaces the former ad-hoc plan threading
/// through ModemOnProcessor.  When `plans` is set its tier must equal
/// `tier`; when null, the loader builds plans at `tier`.
struct ExecPolicy {
  ExecTier tier = defaultExecTier();
  std::shared_ptr<const ProgramPlans> plans;
  /// Allow the warm-reload fast path: when the SAME Program object (by
  /// address) is re-loaded with the same shared plans and tier, the loader
  /// skips re-validating and re-encoding the unchanged image and only
  /// replays the load-time DMA transfers (identical bookings, identical
  /// memory bytes) and the state reset.  Callers must guarantee the Program
  /// is immutable between loads — RxSession's resident modem program is;
  /// default off for ad-hoc loads where the object may have been edited.
  bool warmReload = false;
};

}  // namespace adres
