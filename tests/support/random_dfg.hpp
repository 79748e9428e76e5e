// Seeded random kernel DFGs shared by the scheduler property test
// (random_dfg_test) and the schedule golden (schedule_golden_test): a
// carried index and accumulator, a random mix of loads (some LD_I/LD_IH
// pairs), unary/immediate/binary ops, and one or two stores.  The same seed
// always yields the same graph.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sched/dfg.hpp"

namespace adres::testsupport {

inline constexpr int R_IDX = 1;
inline constexpr int R_IN = 2;
inline constexpr int R_OUT = 3;
inline constexpr int R_ACC = 4;
inline constexpr int R_ACCOUT = 16;
inline constexpr int R_IDXOUT = 17;

/// Ops safe for random wiring (binary, full-word semantics).
inline const Opcode kBinaryOps[] = {
    Opcode::ADD,    Opcode::SUB,     Opcode::AND,      Opcode::OR,
    Opcode::XOR,    Opcode::C4ADD,   Opcode::C4SUB,    Opcode::C4MAX,
    Opcode::C4MIN,  Opcode::D4PROD,  Opcode::C4PROD,   Opcode::C4MIX,
    Opcode::C4HILO, Opcode::C4PADD,  Opcode::C4PSUB,   Opcode::MUL,
};

struct RandomKernel {
  KernelDfg dfg;
  int loadCount = 0;
  int storeCount = 0;
};

inline RandomKernel buildRandom(u64 seed) {
  Rng rng(seed);
  KernelBuilder b("random_" + std::to_string(seed));
  RandomKernel out;

  auto idx = b.carried(R_IDX);
  auto inBase = b.liveIn(R_IN);
  auto outBase = b.liveIn(R_OUT);
  auto acc = b.carried(R_ACC);

  std::vector<ValueId> values;
  values.push_back(idx);
  values.push_back(inBase);
  auto pick = [&]() {
    return values[static_cast<std::size_t>(rng.below(values.size()))];
  };

  const int nOps = 4 + static_cast<int>(rng.below(14));
  ValueId lastLoad{};
  for (int i = 0; i < nOps; ++i) {
    const u64 kind = rng.below(10);
    if (kind < 2 && out.loadCount < 4) {
      // A load from the input buffer (index-strided, within bounds).
      auto addr = b.op(Opcode::ADD, inBase, idx);
      auto v = b.loadImm(Opcode::LD_I, addr,
                         static_cast<i32>(rng.below(8)));
      if (rng.bit()) {
        v = b.loadHighImm(v, addr, static_cast<i32>(8 + rng.below(8)));
      }
      values.push_back(v);
      lastLoad = v;
      ++out.loadCount;
    } else if (kind < 3) {
      values.push_back(b.op(rng.bit() ? Opcode::C4ABS : Opcode::C4NEG, pick()));
    } else if (kind < 5) {
      // Immediate form.
      values.push_back(b.opImm(
          rng.bit() ? Opcode::ADD : Opcode::C4SHIFTR, pick(),
          static_cast<i32>(rng.below(7)) + 1));
    } else {
      values.push_back(
          b.op(kBinaryOps[rng.below(sizeof(kBinaryOps) / sizeof(Opcode))],
               pick(), pick()));
    }
  }

  // One or two stores to the output buffer.
  const int nStores = 1 + static_cast<int>(rng.below(2));
  for (int i = 0; i < nStores; ++i) {
    auto so = b.op(Opcode::ADD, outBase, idx);
    b.storeImm(Opcode::ST_I, so, static_cast<i32>(4 * i), pick());
    ++out.storeCount;
  }

  // Carried accumulator over some computed value.
  b.defineCarried(acc, b.op(Opcode::C4ADD, acc, pick()));
  b.defineCarried(idx, b.opImm(Opcode::ADD, idx, 64));
  b.liveOut(R_ACCOUT, acc);
  b.liveOut(R_IDXOUT, idx);
  out.dfg = b.build();
  return out;
}

}  // namespace adres::testsupport
