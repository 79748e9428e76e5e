#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "dsp/channel.hpp"
#include "dsp/frontend.hpp"
#include "platform/rx_session.hpp"
#include "sched/modulo.hpp"
#include "sdr/kernels.hpp"
#include "sdr/modem_program.hpp"
#include "sdr/tables.hpp"
#include "stats.hpp"
#include "support/kernel_fixture.hpp"

namespace perfbench {

using namespace adres;

void addEndToEnd(Result& r, const SimTotals& sim, const HostTotals& host,
                 double scaledDecodeMsP50, const PassRss& rss, double sustainedUsers) {
  const double pkts = static_cast<double>(sim.packets);
  const double cyclesPerPkt = static_cast<double>(sim.cycles) / pkts;
  const double bitsPerPkt = static_cast<double>(sim.payloadBits) / pkts;
  const double per = sim.perPackets
                         ? static_cast<double>(sim.packetErrors) /
                               static_cast<double>(sim.perPackets)
                         : 0.0;
  const double rate = median(host.scaledPassRate);
  r.addE2e("setup_s", r.setupS, "s");
  r.addE2e("pkts_per_s", rate, "1/s");
  r.addE2e("sim_mcycles_per_s", rate * cyclesPerPkt / 1e6, "Mcycles/s");
  r.addE2e("decode_ms_p50", scaledDecodeMsP50, "ms");
  r.addE2e("peak_rss_mb", rss.afterFixedMb, "MB");
  // End-to-end metrics must never read 0 (a bound relative to a 0 baseline
  // is undefined), so the two failure rates are reported as complements.
  r.addE2e("ok_ops_share",
           1.0 - static_cast<double>(r.failed) /
                     static_cast<double>(std::max<u64>(1, r.attempted)),
           "share");
  r.addE2e("sim_cycles_per_pkt", cyclesPerPkt, "cycles");
  r.addE2e("sim_mbps", bitsPerPkt * adres::kClockMHz / cyclesPerPkt, "Mbps");
  r.addE2e("energy_nj_per_bit", sim.energyNj / static_cast<double>(sim.payloadBits),
           "nJ/bit");
  r.addE2e("delivered_share", 1.0 - per, "share");
  r.addE2e("sustained_users", sustainedUsers, "users");
  std::printf("sim: %llu packets, per %.6f, failed_ops_share %.6f\n",
              static_cast<unsigned long long>(sim.packets), per,
              static_cast<double>(r.failed) /
                  static_cast<double>(std::max<u64>(1, r.attempted)));
  std::printf("host: %zu untraced passes; packets/s quartiles %.2f / %.2f / %.2f wall, "
              "%.2f / %.2f / %.2f scaled; median probe slowdown %.3f\n",
              host.passRate.size(), percentile(host.passRate, 0.25),
              percentile(host.passRate, 0.5), percentile(host.passRate, 0.75),
              percentile(host.scaledPassRate, 0.25), rate,
              percentile(host.scaledPassRate, 0.75), median(host.passSlowdown));
  std::printf("host: peak RSS %.1f MB after pass 1, %.1f MB after pass %d "
              "(%+.2f MB per pass)\n",
              rss.afterFirstMb, rss.afterFixedMb, kRssPasses, rss.growthMbPerPass());
}

double scaledSetupS(const Context& ctx) {
  const double slowdown = ctx.probe.slowdownSince(ctx.start);
  const double wall = secondsSince(ctx.start.at);
  std::printf("set-up: %.4f s wall, probe slowdown %.3f, %.4f s scaled\n", wall,
              slowdown, wall / slowdown);
  return wall / slowdown;
}

PassTimer::PassTimer(const SpeedProbe& probe, HostTotals& host)
    : probe_(probe),
      host_(host),
      start_(probe.mark()),
      decodes0_(host.decodeMs.size()) {}

double PassTimer::finish(u64 packets) {
  const double slowdown = probe_.slowdownSince(start_);
  if (packets > 0) {
    const double rate = static_cast<double>(packets) / secondsSince(start_.at);
    host_.passRate.push_back(rate);
    host_.scaledPassRate.push_back(rate * slowdown);
    host_.passSlowdown.push_back(slowdown);
  }
  for (std::size_t i = decodes0_; i < host_.decodeMs.size(); ++i)
    host_.scaledDecodeMs.push_back(host_.decodeMs[i] / slowdown);
  return slowdown;
}

double capacityUsers(double simCyclesPerPkt) {
  return kServers * adres::kClockMHz * 1e6 / (simCyclesPerPkt * kUserPps);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

PassRss runPasses(Context& ctx, double seconds,
                  const std::function<void(bool traced)>& pass) {
  PassRss rss;
  const auto t0 = std::chrono::steady_clock::now();
  for (int n = 1; n <= kRssPasses || secondsSince(t0) < seconds; ++n) {
    const bool traced = ctx.opt.trace && n % 2 == 0;
    ctx.spans.setEnabled(traced);
    pass(traced);
    if (n == 1) rss.afterFirstMb = peakRssMb();
    if (n == kRssPasses) rss.afterFixedMb = peakRssMb();
  }
  ctx.spans.setEnabled(ctx.opt.trace);
  return rss;
}

namespace {

struct PaperRow {
  const char* region;
  bool preamble;
};

// The Table 2 rows as bench_table2_profiling splits them: "fshift" and
// "fft" regions serve both phases (one preamble entry, the rest per pair).
const PaperRow kTable2Rows[] = {
    {"acorr", true},
    {"fshift", true},
    {"xcorr", true},
    {"fft", true},
    {"remove zero carriers", true},
    {"freq offset estimation", true},
    {"freq offset compensation", true},
    {"sample ordering", true},
    {"SDM processing", true},
    {"sample reordering", true},
    {"equalize coeff. calc.", true},
    {"non-kernel code", true},
    {"fshift", false},
    {"fft", false},
    {"data shuffle", false},
    {"tracking", false},
    {"comp", false},
    {"demod QAM64", false},
};
constexpr double kPaperPreambleCycles = 6105;
constexpr double kPaperDataPairCycles = 1531;

}  // namespace

void table2Accuracy(Context& ctx, Result& r) {
  dsp::ModemConfig cfg;
  cfg.mod = dsp::Modulation::kQam64;
  cfg.numSymbols = 16;
  const auto m = platform::modemProgramFor(cfg);
  Rng tx(hashCombine(ctx.opt.seed, 0x7AB1E2));
  dsp::ChannelConfig cc;
  cc.flat = true;
  cc.snrDb = 40;
  cc.cfoPpm = 6;
  cc.seed = hashCombine(ctx.opt.seed, 0x7AB1E3);
  std::vector<u8> bits;
  std::array<std::vector<cint16>, 2> rx;
  dsp::TrialScratch scratch;
  dsp::generateTrial(cfg, cc, tx, bits, rx, scratch);
  Processor proc;
  sdr::RxRunOptions opts;
  opts.exec.tier = kTier;
  const sdr::ProcessorRxResult res = sdr::runModemOnProcessor(proc, *m, rx, opts);
  r.check(res.halted() && res.bits == bits, "table 2 packet decodes bit-exact");

  const auto& profs = proc.profiles();
  const u64 pairs = static_cast<u64>(cfg.numSymbols / 2);
  u64 preamble = 0, data = 0;
  for (const PaperRow& row : kTable2Rows) {
    const std::string region = row.region;
    const RegionProfile& p = profs.at(m->program.regionId(region));
    u64 cycles = p.cycles;
    if (region == "fshift" || region == "fft") {
      const u64 perEntry = p.cycles / std::max<u64>(1, p.entries);
      cycles = row.preamble ? perEntry : (p.cycles - perEntry) / pairs;
    } else if (!row.preamble && p.entries > 1) {
      cycles = p.cycles / pairs;
    }
    (row.preamble ? preamble : data) += cycles;
  }
  const double errPre = 100.0 * (static_cast<double>(preamble) - kPaperPreambleCycles) /
                        kPaperPreambleCycles;
  const double errData = 100.0 * (static_cast<double>(data) - kPaperDataPairCycles) /
                         kPaperDataPairCycles;
  std::printf("model accuracy vs paper Table 2 (simulated cycles): preamble "
              "%llu vs 6105 (%+.1f%%), data pair %llu vs 1531 (%+.1f%%); "
              "sim_mbps is this model's rate, not the paper's 100 Mbps+\n",
              static_cast<unsigned long long>(preamble), errPre,
              static_cast<unsigned long long>(data), errData);
  if (ctx.opt.trace) {
    r.addLayer("sdr.table2_err_pct.preamble", errPre, "%");
    r.addLayer("sdr.table2_err_pct.data", errData, "%");
  }
}

namespace {

/// The 17 Table 2 fixture DFGs, named as tableTwoKernelCases() names them.
std::vector<std::pair<std::string, KernelDfg>> fixtureDfgs() {
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
                   FftStageKernel::build(fftStageTables(s, 4).halfBytes, s == 6));
  d.emplace_back("interleave", InterleaveKernel::build());
  d.emplace_back("chest", ChestKernel::build());
  d.emplace_back("eqnorm", EqCoeffKernel::buildNorm());
  d.emplace_back("eqapply", EqCoeffKernel::buildApply());
  d.emplace_back("comp", CompKernel::build());
  d.emplace_back("demod", DemodKernel::build());
  return d;
}

/// Metric-name form of a kernel name ("fft stage1" -> "fft_stage1").
std::string slug(std::string s) {
  std::replace(s.begin(), s.end(), ' ', '_');
  return s;
}

double sumOf(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

void layerProbes(Context& ctx, Result& r,
                 const std::vector<dsp::ModemConfig>& configs,
                 const std::vector<ProbeInput>& inputs) {
  SpanRecorder& rec = ctx.spans;
  const int reps = ctx.opt.tiny ? 2 : 64;

  // sched: cold modulo scheduling of each fixture DFG.
  std::map<std::string, std::pair<int, int>> mapped;  // name -> (ii, ops)
  u64 moves = 0, iiSum = 0;
  for (auto& [name, dfg] : fixtureDfgs()) {
    ScopedSpan s(rec, "sched.scheduleKernel/" + name);
    const ScheduledKernel k = scheduleKernel(dfg);
    moves += static_cast<u64>(k.routeMoves);
    iiSum += static_cast<u64>(k.ii);
    mapped[name] = {k.ii, k.config.opCount()};
  }
  for (const auto& [name, _] : mapped)
    r.addLayer("sched.map_ms." + slug(name),
               sumOf(rec.durationsUs("sched.scheduleKernel/" + name)) / 1000.0,
               "ms");
  r.addLayer("sched.route_moves", static_cast<double>(moves), "count");
  r.addLayer("sched.ii_sum", static_cast<double>(iiSum), "count");

  // sdr + cga: cold program build and cold native plan build per config.
  for (const dsp::ModemConfig& cfg : configs) {
    std::unique_ptr<sdr::ModemOnProcessor> m;
    {
      ScopedSpan s(rec, "sdr.buildModemProgram");
      m = std::make_unique<sdr::ModemOnProcessor>(sdr::buildModemProgram(cfg));
    }
    ScopedSpan s(rec, "cga.plansFor");
    (void)m->plansFor(kTier);
  }
  r.addLayer("sdr.build_ms", median(rec.durationsUs("sdr.buildModemProgram")) / 1000.0,
             "ms");
  r.addLayer("cga.plan_ms", median(rec.durationsUs("cga.plansFor")) / 1000.0, "ms");

  // cga: native kernel runs on the fixtures (plans built outside the span;
  // every repetition starts from the same freshly prepared fabric).
  auto fabric = std::make_unique<testsupport::Fabric>();
  for (const testsupport::KernelCase& c : testsupport::tableTwoKernelCases()) {
    const auto it = mapped.find(c.name);
    r.check(it != mapped.end() && it->second.first == c.config.ii &&
                it->second.second == c.config.opCount(),
            "fixture kernel " + c.name + " maps identically twice");
    const KernelPlan plan = buildKernelPlan(c.config, kTier);
    u64 cycles = 0;
    const std::string span = "cga.run/" + c.name;
    for (int i = 0; i < reps; ++i) {
      testsupport::prepareFabric(*fabric);
      c.setup(*fabric);
      ScopedSpan s(rec, span);
      cycles += fabric->array.run(plan, c.trips).cycles;
    }
    r.addLayer("cga.ns_per_cycle." + slug(c.name),
               sumOf(rec.durationsUs(span)) * 1000.0 / static_cast<double>(cycles),
               "ns");
  }

  // dsp + core: the workload's own inputs, generated and decoded one by
  // one on a single session (no farm), then warm program reloads.
  std::map<u64, std::unique_ptr<platform::RxSession>> sessions;
  dsp::TrialScratch scratch;
  std::vector<u8> bits;
  std::array<std::vector<cint16>, 2> rx;
  sdr::ProcessorRxResult out;
  u64 packets = 0;
  for (const ProbeInput& in : inputs) {
    auto& session = sessions[dsp::stableHash(in.modem)];
    if (!session) {
      sdr::RxRunOptions opts;
      opts.exec.tier = kTier;
      session = std::make_unique<platform::RxSession>(in.modem, opts);
    }
    Rng tx(in.txSeed);
    {
      ScopedSpan s(rec, "dsp.generateTrial");
      dsp::generateTrial(in.modem, in.channel, tx, bits, rx, scratch);
    }
    {
      ScopedSpan s(rec, "core.decodeInto");
      session->decodeInto(rx, out, in.maxCycles);
    }
    ++packets;
  }
  std::map<std::string, u64> counters;
  for (auto& [_, session] : sessions)
    for (const auto& [k, v] : session->stats().counters) counters[k] += v;
  const double pk = static_cast<double>(packets);
  auto per = [&](const char* key) { return static_cast<double>(counters[key]) / pk; };
  r.addLayer("dsp.trial_us", median(rec.durationsUs("dsp.generateTrial")), "us");
  r.addLayer("core.decode_ms_p50", median(rec.durationsUs("core.decodeInto")) / 1000.0,
             "ms");
  r.addLayer("core.vliw_cycle_share",
             static_cast<double>(counters["vliw.cycles"]) /
                 static_cast<double>(counters["core.cycles"]),
             "share");
  r.addLayer("cga.ops_per_pkt", per("cga.ops"), "ops");
  r.addLayer("cga.route_moves_per_pkt", per("cga.route_moves"), "ops");
  r.addLayer("mem.l1_conflict_cycles_per_pkt", per("l1.bank_conflict_cycles"), "cycles");
  r.addLayer("mem.icache_misses_per_pkt", per("icache.misses"), "count");

  for (const dsp::ModemConfig& cfg : configs) {
    const auto m = platform::modemProgramFor(cfg);
    ExecPolicy pol;
    pol.tier = kTier;
    pol.plans = m->plansFor(kTier);
    pol.warmReload = true;
    Processor proc;
    proc.load(m->program, pol);  // cold: arms the warm-reload identity
    for (int i = 0; i < reps; ++i) {
      ScopedSpan s(rec, "core.load");
      proc.load(m->program, pol);
    }
  }
  r.addLayer("core.reload_us", median(rec.durationsUs("core.load")), "us");
}

void addPacketSpans(SpanRecorder& rec, std::uint32_t parent,
                    const platform::RxOutcome& o, double submitUs) {
  const double decodeStart = submitUs + o.queueWaitUs;
  const double end = decodeStart + o.hostUs;
  const std::uint32_t pkt = rec.add("packet", parent, o.id, submitUs, end);
  rec.add("platform.queue_wait", pkt, o.id, submitUs, decodeStart);
  rec.add("core.decode", pkt, o.id, decodeStart, end);
}

void platformFromSpans(Context& ctx, Result& r, const char* passSpan,
                       double backpressureNs) {
  const SpanRecorder& rec = ctx.spans;
  const std::vector<double> wait = rec.durationsUs("platform.queue_wait");
  const double wallUs = sumOf(rec.durationsUs(passSpan));
  r.addLayer("platform.queue_wait_ms_p50", percentile(wait, 0.5) / 1000.0, "ms");
  r.addLayer("platform.queue_wait_ms_p99", percentile(wait, 0.99) / 1000.0, "ms");
  r.addLayer("platform.decode_ms_p99",
             percentile(rec.durationsUs("core.decode"), 0.99) / 1000.0, "ms");
  r.addLayer("platform.busy_share",
             sumOf(rec.durationsUs("core.decode")) / (kWorkers * wallUs), "share");
  r.addLayer("platform.backpressure_share", backpressureNs / 1000.0 / wallUs, "share");
}

void addRunLayers(Result& r, const HostTotals host[2], u64 healthEvents,
                  const PassRss& rss, std::pair<double, double> wallDecodeMs) {
  r.addLayer("obs.health_events", static_cast<double>(healthEvents), "count");
  r.addLayer("platform.rss_growth_mb_per_pass", rss.growthMbPerPass(), "MB");
  r.addLayer("trace_overhead_pct",
             100.0 * (median(host[0].scaledPassRate) / median(host[1].scaledPassRate) -
                      1.0),
             "%");
  r.addLayer("host.wall_pkts_per_s", median(host[0].passRate), "1/s");
  r.addLayer("host.wall_decode_ms_p50", wallDecodeMs.first, "ms");
  r.addLayer("host.wall_decode_ms_p95", wallDecodeMs.second, "ms");
  r.addLayer("host.slowdown", median(host[0].passSlowdown), "x");
}

std::pair<double, double> wallDecodeMs(const HostTotals& host) {
  return {percentile(host.decodeMs, 0.5),
          blockedPercentile(host.decodeMs, 0.95, kTailBlock)};
}

u64 healthEventsOf(const platform::PacketFarm& farm, obs::HealthEvent::Kind kind) {
  u64 n = 0;
  for (const obs::HealthEvent& e : farm.healthEvents()) n += e.kind == kind ? 1 : 0;
  return n;
}

namespace {

/// Hash of this program's own executable; 0 when it cannot be read.
u64 buildIdentity() {
  static const u64 id = [] {
    std::ifstream in("/proc/self/exe", std::ios::binary);
    if (!in) return u64{0};
    u64 h = 0;
    std::vector<char> buf(1 << 16);
    while (in.read(buf.data(), static_cast<std::streamsize>(buf.size())) ||
           in.gcount() > 0) {
      const std::size_t n = static_cast<std::size_t>(in.gcount());
      for (std::size_t i = 0; i < n; i += 8) {
        u64 w = 0;
        std::memcpy(&w, buf.data() + i, std::min<std::size_t>(8, n - i));
        h = hashCombine(h, w);
      }
    }
    return h;
  }();
  return id;
}

}  // namespace

bool matchOrRecord(const Context& ctx, const std::string& kind, u64 inputsKey,
                   const std::string& bytes) {
  const u64 build = buildIdentity();
  if (build == 0) {
    std::printf("note: no build identity, %s cross-run check skipped\n", kind.c_str());
    return true;
  }
  char name[64];
  std::snprintf(name, sizeof name, "-%016llx-%016llx.json",
                static_cast<unsigned long long>(inputsKey),
                static_cast<unsigned long long>(build));
  const std::string path = ctx.opt.outDir + "/" + kind + name;
  std::ifstream in(path, std::ios::binary);
  if (in) {
    std::ostringstream prev;
    prev << in.rdbuf();
    return prev.str() == bytes;
  }
  std::ofstream(path, std::ios::binary) << bytes;
  return true;
}

}  // namespace perfbench
