// Observability example: runs the 2x2 MIMO-OFDM receiver on the simulated
// processor with cycle-level tracing attached, then writes
//   modem.trace.json — Chrome trace-event JSON; open in chrome://tracing or
//                      https://ui.perfetto.dev (one track per VLIW slot and
//                      per CGA FU, so kernel occupancy renders as a heatmap)
//   modem.counters.json — the stable-schema counter dump
// and prints the per-region summary table.
//
//   $ ./examples/trace_modem [numSymbols] [traceCapacity]
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "dsp/channel.hpp"
#include "sdr/modem_program.hpp"
#include "trace/export.hpp"
#include "trace/counters.hpp"

using namespace adres;

int main(int argc, char** argv) {
  int numSymbols = argc > 1 ? std::atoi(argv[1]) : 8;
  if (numSymbols < 2) numSymbols = 2;
  numSymbols &= ~1;  // the receiver merges symbol pairs
  const std::size_t capacity =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2]))
               : RingBufferSink::kDefaultCapacity;

  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = numSymbols;
  Rng rng(2026);
  const dsp::TxPacket pkt = dsp::transmit(cfg, rng);
  dsp::ChannelConfig cc;
  cc.taps = 2;
  cc.snrDb = 35;
  cc.cfoPpm = 8;
  cc.seed = 7;
  dsp::MimoChannel ch(cc);
  const auto rx = ch.run(pkt.waveform);

  const sdr::ModemOnProcessor m = sdr::buildModemProgram(cfg);
  Processor proc;
  RingBufferSink ring(capacity);

  sdr::RxRunOptions opts;
  opts.trace = &ring;
  const sdr::ProcessorRxResult res = sdr::runModemOnProcessor(proc, m, rx, opts);
  const int errs = dsp::bitErrors(res.bits, pkt.bits);
  printf("decoded %d OFDM symbols in %llu cycles (%.1f us), %d bit errors\n",
         numSymbols, static_cast<unsigned long long>(res.cycles),
         res.elapsedUs, errs);
  printf("trace: %llu events emitted, %zu retained, %llu dropped "
         "(capacity %zu)\n",
         static_cast<unsigned long long>(ring.accepted()), ring.size(),
         static_cast<unsigned long long>(ring.dropped()), ring.capacity());

  trace::TraceNames names;
  for (const KernelConfig& k : proc.program().kernels)
    names.kernels.push_back(k.name);
  names.regions = proc.program().regionNames;

  {
    std::ofstream os("modem.trace.json");
    trace::writeChromeTrace(ring.events(), os, names);
    printf("wrote modem.trace.json (open in chrome://tracing or "
           "ui.perfetto.dev)\n");
  }
  {
    std::ofstream os("modem.counters.json");
    trace::writeCountersJson(proc, os);
    printf("wrote modem.counters.json\n");
  }

  printf("\nper-region profile:\n");
  trace::printRegionTable(proc);
  return errs == 0 ? 0 : 1;
}
