#include "cga/plan.hpp"

#include <algorithm>

#include "cga/native.hpp"
#include "common/check.hpp"
#include "isa/semantics.hpp"

namespace adres {

KernelPlan buildKernelPlan(const KernelConfig& k, ExecTier tier) {
  ADRES_CHECK(tier == ExecTier::kReference || tier == ExecTier::kNative,
              "unknown exec tier " << static_cast<int>(tier)
                                   << " for kernel '" << k.name << "'");
  k.validate();
  KernelPlan p;
  p.name = k.name;
  p.tier = tier;
  p.source = k;
  p.ii = k.ii;
  p.schedLength = k.schedLength;
  p.preloads = k.preloads;
  p.writebacks = k.writebacks;
  p.contexts.resize(k.contexts.size());

  u32 minSched = ~0u;
  u32 maxSched = 0;
  for (std::size_t c = 0; c < k.contexts.size(); ++c) {
    ContextPlan& cp = p.contexts[c];
    for (int fu = 0; fu < kCgaFus; ++fu) {
      const FuOp& f = k.contexts[c].fu[fu];
      if (f.isNop()) continue;
      PlanOp op;
      op.op = f.op;
      op.fu = static_cast<u8>(fu);
      op.lat = static_cast<u8>(opInfo(f.op).latency);
      ADRES_CHECK(2 * static_cast<u64>(op.lat) <= kCgaWheelSlots,
                  "op latency " << static_cast<int>(op.lat)
                                << " exceeds the commit-wheel bound");
      op.isMov = f.op == Opcode::MOV;
      op.isSimdOp = isSimd(f.op);
      op.ops16 = static_cast<u8>(ops16PerInstr(f.op));
      op.schedTime = f.schedTime;
      op.src1 = f.src1;
      op.src2 = f.src2;
      op.src3 = f.src3;
      op.dst = f.dst;
      op.imm = f.imm;
      if (isStore(f.op) || isLoad(f.op)) {
        op.kind = isStore(f.op) ? PlanOpKind::kStore : PlanOpKind::kLoad;
        op.memBytes = static_cast<u8>(memAccessBytes(f.op));
        op.immOperand = fromScalar(f.imm << memImmScale(f.op));
        op.storeHigh = f.op == Opcode::ST_IH;
        switch (f.op) {
          case Opcode::LD_C: op.loadMode = LoadMode::kSext8; break;
          case Opcode::LD_C2: op.loadMode = LoadMode::kSext16; break;
          case Opcode::LD_IH: op.loadMode = LoadMode::kHigh; break;
          default: op.loadMode = LoadMode::kZext; break;
        }
      } else {
        op.kind = PlanOpKind::kCompute;
        op.immOperand = fromScalar(f.imm);
      }
      minSched = std::min(minSched, static_cast<u32>(f.schedTime));
      maxSched = std::max(maxSched, static_cast<u32>(f.schedTime));
      cp.ops.push_back(op);
    }
  }
  p.minSchedTime = minSched == ~0u ? 0 : minSched;
  p.maxSchedTime = maxSched;

  // Per-iteration (kind, latency) class counts for the cycle-attribution
  // profiler: every scheduled op fires exactly `trips` times per launch.
  for (const ContextPlan& cp : p.contexts) {
    for (const PlanOp& op : cp.ops) {
      auto it = std::find_if(p.classes.begin(), p.classes.end(),
                             [&](const PlanClassCount& c) {
                               return c.kind == op.kind && c.lat == op.lat;
                             });
      if (it == p.classes.end()) {
        p.classes.push_back({op.kind, op.lat, 1});
      } else {
        ++it->ops;
      }
    }
  }
  std::sort(p.classes.begin(), p.classes.end(),
            [](const PlanClassCount& a, const PlanClassCount& b) {
              return a.kind != b.kind ? a.kind < b.kind : a.lat < b.lat;
            });
  if (tier == ExecTier::kNative) p.native = buildNativePlan(p);
  return p;
}

std::shared_ptr<const ProgramPlans> buildProgramPlans(
    const std::vector<KernelConfig>& kernels, ExecTier tier) {
  auto plans = std::make_shared<ProgramPlans>();
  plans->tier = tier;
  plans->kernels.reserve(kernels.size());
  for (const KernelConfig& k : kernels)
    plans->kernels.push_back(
        buildKernelPlan(decodeKernel(encodeKernel(k)), tier));
  return plans;
}

}  // namespace adres
