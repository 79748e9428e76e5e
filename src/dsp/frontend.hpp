// Trial-generation frontend: the TX + channel pipeline that produces one
// campaign trial (payload bits + channel-impaired receive waveforms).
//
// generateTrial is the lane-batched structure-of-arrays path into reused
// buffers (transmitInto + MimoChannel::runInto), allocation-free in steady
// state (DESIGN.md §15).  The original per-sample path (transmit +
// MimoChannel::run) stays as its test oracle: it draws from the same
// counter-derived Rng streams in the same order, and tests/dsp/
// frontend_ab_test pins the two bit-identical.
#pragma once

#include <array>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "dsp/channel.hpp"
#include "dsp/modem.hpp"

namespace adres::dsp {

/// Per-thread working set for generateTrial, reused across trials: all
/// buffers keep their capacity, and the channel scratch's CFO phasor table
/// persists across every trial of a cell.
struct TrialScratch {
  TxScratch tx;
  std::array<std::vector<cint16>, kNumTx> txWave;
  ChannelScratch ch;
};

/// Generates one trial: payload bits drawn from `txRng`, TX waveforms, and
/// the receive waveforms after the channel built from `chCfg` (whose seed
/// carries the trial's counter-derived channel stream).  `bits` and `rx`
/// are written in place (resized, capacity retained).  Output is
/// bit-identical to transmit + MimoChannel::run on the same seeds.
void generateTrial(const ModemConfig& modem, const ChannelConfig& chCfg,
                   Rng& txRng, std::vector<u8>& bits,
                   std::array<std::vector<cint16>, kNumRx>& rx,
                   TrialScratch& scratch);

}  // namespace adres::dsp
