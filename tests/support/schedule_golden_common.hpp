// Collector shared by the schedule-golden regression test and the
// schedule_golden_dump generator: maps every kernel DFG the modem uses
// plus a fixed set of seeded random DFGs, and reduces each mapping to a
// comparable row (FNV-1a over the encodeKernel image, II, routing moves,
// schedule length).  Any scheduler change that alters one emitted bit of
// any of these mappings changes a row.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "cga/context.hpp"
#include "sched/modulo.hpp"
#include "sdr/kernels.hpp"
#include "sdr/tables.hpp"
#include "support/random_dfg.hpp"

namespace adres::testsupport {

struct ScheduleGoldenRow {
  std::string name;
  u64 imageHash = 0;  ///< FNV-1a over encodeKernel(config) bytes
  int ii = 0;
  int routeMoves = 0;
  int schedLength = 0;
};

/// Seeds of the random DFGs pinned by the golden (buildRandom(seed)).
inline constexpr u64 kScheduleGoldenFirstSeed = 1;
inline constexpr u64 kScheduleGoldenSeedCount = 64;

/// Every DFG the modem program maps: the 17 Table 2 kernels (FFT stages at
/// the modem's real halfBytes) and the QAM-16 demod variant.
inline std::vector<std::pair<std::string, KernelDfg>> modemKernelDfgs() {
  using namespace sdr;
  std::vector<std::pair<std::string, KernelDfg>> d;
  d.emplace_back("acorr", AcorrKernel::build());
  d.emplace_back("cfo", CfoCorrKernel::build());
  d.emplace_back("fshift", FshiftKernel::build());
  d.emplace_back("xcorr", XcorrKernel::build());
  d.emplace_back("bitrev", BitrevKernel::build());
  d.emplace_back("fft stage1", FftStage1Kernel::build());
  for (int s = 2; s <= 6; ++s)
    d.emplace_back("fft stage" + std::to_string(s),
                   FftStageKernel::build(fftStageTables(s, 4).halfBytes,
                                         /*scaleX8=*/s == 6));
  d.emplace_back("interleave", InterleaveKernel::build());
  d.emplace_back("chest", ChestKernel::build());
  d.emplace_back("eqnorm", EqCoeffKernel::buildNorm());
  d.emplace_back("eqapply", EqCoeffKernel::buildApply());
  d.emplace_back("comp", CompKernel::build());
  d.emplace_back("demod", DemodKernel::build());
  d.emplace_back("demod16", DemodKernel::build16());
  return d;
}

inline ScheduleGoldenRow scheduleGoldenRow(std::string name,
                                           const KernelDfg& g) {
  const ScheduledKernel sk = scheduleKernel(g);
  u64 h = 1469598103934665603ull;
  for (u8 b : encodeKernel(sk.config)) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return {std::move(name), h, sk.ii, sk.routeMoves, sk.schedLength};
}

/// One row per modem kernel, then one per random seed, in a fixed order.
inline std::vector<ScheduleGoldenRow> collectScheduleGolden() {
  std::vector<ScheduleGoldenRow> rows;
  for (const auto& [name, dfg] : modemKernelDfgs())
    rows.push_back(scheduleGoldenRow(name, dfg));
  for (u64 s = kScheduleGoldenFirstSeed;
       s < kScheduleGoldenFirstSeed + kScheduleGoldenSeedCount; ++s) {
    const RandomKernel rk = buildRandom(s);
    rows.push_back(scheduleGoldenRow(rk.dfg.name, rk.dfg));
  }
  return rows;
}

}  // namespace adres::testsupport
