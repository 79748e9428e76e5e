// Architecture activity counters.
//
// The simulator books micro-architectural events here while executing; the
// power model (src/power) converts events to energy with per-event
// coefficients (DESIGN.md §6).  Component-local stats (RF ports, L1, I$,
// config memory) live with their components; this struct holds the
// cross-cutting counts that have no single owner.
#pragma once

#include "common/types.hpp"

namespace adres {

struct ActivityCounters {
  // Mode occupancy (core cycles).
  u64 vliwCycles = 0;      ///< cycles in non-kernel (VLIW) mode
  u64 cgaCycles = 0;       ///< cycles in kernel (CGA) mode
  u64 vliwStallCycles = 0; ///< VLIW-mode stalls (I$ miss, hazards) — subset of vliwCycles
  u64 cgaStallCycles = 0;  ///< CGA-mode stalls (L1 contention) — subset of cgaCycles
  u64 sleepCycles = 0;     ///< halt-until-resume cycles
  u64 modeSwitches = 0;    ///< VLIW <-> CGA transitions

  // Operation issue.
  u64 vliwOps = 0;         ///< non-nop ops issued by the VLIW slots
  u64 cgaOps = 0;          ///< non-nop ops executed by array FUs
  u64 cgaRouteMoves = 0;   ///< subset of cgaOps that are routing MOVs
  u64 simdOps = 0;         ///< SIMD1/SIMD2 ops (both modes), for GOPS
  u64 ops16 = 0;           ///< total 16-bit-equivalent operations, for GOPS

  // Interconnect transports: operand fetches through the inter-FU muxing
  // network (neighbor reads, column-bus reads) and result transports into
  // pipeline registers.  Dominant power contributor per Fig 6.
  u64 transports = 0;

  // Mode attribution for shared components (the power model splits the
  // global L1/CDRF statistics into per-mode portions with these).
  u64 l1CgaAccesses = 0;    ///< L1 accesses issued by array FUs
  u64 cdrfCgaAccesses = 0;  ///< central-RF port events during kernel mode

  void reset() { *this = ActivityCounters{}; }
  bool operator==(const ActivityCounters&) const = default;

  u64 totalCycles() const { return vliwCycles + cgaCycles + sleepCycles; }
  u64 totalOps() const { return vliwOps + cgaOps; }
};

}  // namespace adres
