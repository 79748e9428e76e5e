#include "dsp/frontend.hpp"

namespace adres::dsp {

void generateTrial(const ModemConfig& modem, const ChannelConfig& chCfg,
                   Rng& txRng, std::vector<u8>& bits,
                   std::array<std::vector<cint16>, kNumRx>& rx,
                   TrialScratch& scratch) {
  transmitInto(modem, txRng, bits, scratch.txWave, scratch.tx);
  MimoChannel ch(chCfg);
  ch.runInto(scratch.txWave, rx, scratch.ch);
}

}  // namespace adres::dsp
