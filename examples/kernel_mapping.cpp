// Kernel-mapping example: explores how the DRESC-style modulo scheduler
// maps a dataflow loop onto the 4x4 array — II lower bounds, routing
// moves, live-in preloads, and the generated configuration contexts —
// then shows how many latency-1 ops (and routing MOVs) of each modem
// kernel the native tier runs in its commit phase (DESIGN.md §14).
//
//   $ ./examples/kernel_mapping
#include <cstdio>

#include "cga/native.hpp"
#include "cga/topology.hpp"
#include "sched/modulo.hpp"
#include "sdr/modem_program.hpp"

using namespace adres;

namespace {

/// A complex dot-product kernel: acc += x[i] * conj(y[i]) on packed pairs.
KernelDfg cdotKernel() {
  KernelBuilder b("cdot");
  auto acc = b.carried(1);
  auto xPtr = b.carried(2);
  auto yPtr = b.carried(3);
  auto splat = b.liveIn(4);  // [8192 x4] rounding multiplier
  auto xlo = b.loadImm(Opcode::LD_I, xPtr, 0);
  auto x = b.loadHighImm(xlo, xPtr, 1);
  auto ylo = b.loadImm(Opcode::LD_I, yPtr, 0);
  auto y = b.loadHighImm(ylo, yPtr, 1);
  auto yn = b.op(Opcode::C4NEG, y);
  auto yc = b.op(Opcode::C4MIX, y, yn);           // conj
  auto d = b.op(Opcode::D4PROD, x, yc);
  auto c = b.op(Opcode::C4PROD, x, yc);
  auto re = b.op(Opcode::C4PSUB, d);
  auto im = b.op(Opcode::C4PADD, c);
  auto p = b.op(Opcode::C4MIX, re, im);
  auto pr = b.op(Opcode::D4PROD, p, splat);       // rounded >> 2
  b.defineCarried(acc, b.op(Opcode::C4ADD, acc, pr));
  b.defineCarried(xPtr, b.opImm(Opcode::ADD, xPtr, 8));
  b.defineCarried(yPtr, b.opImm(Opcode::ADD, yPtr, 8));
  b.liveOut(16, acc);
  return b.build();
}

/// Prints the native plan's commit-phase coverage of one kernel.
void printCommitPhase(const KernelConfig& k) {
  const KernelPlan plan = buildKernelPlan(k, ExecTier::kNative);
  const NativePlan& np = *plan.native;
  printf("  %-12s commit-phase %3u/%-3u  (MOVs %3u/%-3u)\n", k.name.c_str(),
         np.commitPhaseOps, np.latencyOneOps, np.commitPhaseMovs,
         static_cast<unsigned>(np.perIter.movs));
}

}  // namespace

int main() {
  const KernelDfg g = cdotKernel();
  printf("dataflow graph: %d machine ops\n", g.opNodeCount());
  printf("lower bounds: ResMII=%d (memory ports / FU count), RecMII=%d "
         "(loop-carried chains)\n", resourceMii(g), recurrenceMii(g));

  ScheduleDiagnostics diag;
  ScheduleOptions opts;
  opts.diag = &diag;
  const ScheduledKernel sk = scheduleKernel(g, opts);
  printf("\nmapping: II=%d, schedule length %d, %d routing moves, "
         "%.0f%% slot utilization\n", sk.ii, sk.schedLength, sk.routeMoves,
         100.0 * sk.slotUtilization());
  printf("\nscheduler diagnostics (%d attempt(s)):\n%s", diag.totalAttempts(),
         diag.summary().c_str());
  printf("live-in preloads: %zu, live-out writebacks: %zu\n",
         sk.config.preloads.size(), sk.config.writebacks.size());

  printf("\nconfiguration contexts (one row per cycle slot, '.' = idle):\n");
  printf("         ");
  for (int fu = 0; fu < kCgaFus; ++fu) printf("FU%-8d", fu);
  printf("\n");
  for (int s = 0; s < sk.ii; ++s) {
    printf("cycle %2d ", s);
    for (int fu = 0; fu < kCgaFus; ++fu) {
      const FuOp& f = sk.config.contexts[static_cast<std::size_t>(s)].fu[fu];
      printf("%-10s", f.isNop() ? "." : std::string(opInfo(f.op).name).c_str());
    }
    printf("\n");
  }
  const std::vector<u8> image = encodeKernel(sk.config);
  printf("\nconfiguration image: %zu bytes (%d-bit ultra-wide word per "
         "context)\n", image.size(), contextWordBits());

  // Native tier: latency-1 ops that evaluate in the commit phase of their
  // landing cycle instead of travelling through the commit wheel.
  printf("\nnative commit phase (latency-1 ops, of them routing MOVs):\n");
  printCommitPhase(sk.config);
  dsp::ModemConfig modemCfg;
  modemCfg.mod = dsp::Modulation::kQam64;
  const sdr::ModemOnProcessor modem = sdr::buildModemProgram(modemCfg);
  for (const KernelConfig& k : modem.program.kernels) printCommitPhase(k);
  return 0;
}
