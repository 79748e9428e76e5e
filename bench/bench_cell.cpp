// Cell capacity sweep: how many users can one cell sustain at a deadline-
// miss target?  Sweeps the simulated baseband-processor pool size
// (CellScenario::numServers, 400 MHz each) against offered load (users per
// cell), drives every scenario through the packet farm + CellScheduler DES
// (src/cell), and reports per-config miss rate, goodput and simulated
// latency tails plus the headline "sustained users/cell" per pool size —
// the largest user count whose deadline-miss rate stays within
// --target-miss.  Emits a machine-readable BENCH_cell.json
// (adres.bench_cell.v1).
//
//   $ ./bench_cell [maxServers] [numSymbols] [jsonPath]
//         [--exec-tier TIER] [--users-list "2,4,8,12"] [--rate PPS]
//         [--duration-ms MS] [--deadline-us US] [--target-miss RATE]
//         [--host-workers N] [--seed S] [--skip-determinism-check]
//
// jsonPath defaults to BENCH_cell.json; pass "-" to skip the dump.
//
// Self-checks (CI gates; any failure exits nonzero):
//   * miss accounting — CellScheduler::selfCheck() after every config:
//     offered == delivered + errors + late + expired + overrun, per flow
//     and cell-wide, histogram count == offered.  Violation exits 1.
//   * determinism — one scenario re-run with 1 and with --host-workers
//     farm threads; the adres.cell.v1 summaries must be byte-identical
//     (the DES lives on simulated servers, host threads only parallelize
//     the cycle-accurate decodes).  Mismatch exits 2.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_args.hpp"
#include "cell/scheduler.hpp"
#include "common/json_write.hpp"
#include "platform/packet_farm.hpp"

using namespace adres;

namespace {

struct Row {
  int servers = 0;
  int users = 0;
  u64 offered = 0, delivered = 0, errors = 0;
  u64 missedLate = 0, missedExpired = 0, missedOverrun = 0;
  double missRate = 0, goodputMbps = 0, utilization = 0;
  double latP50Us = 0, latP99Us = 0;
  double wallMs = 0;  ///< host wall time of the config (informational)
};

std::vector<int> parseIntList(const std::string& text, bool* ok) {
  std::vector<int> out;
  *ok = true;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const long v = std::strtol(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0' || v < 1) {
      *ok = false;
      return out;
    }
    out.push_back(static_cast<int>(v));
  }
  if (out.empty()) *ok = false;
  return out;
}

platform::FarmConfig farmConfigFor(const cell::CellScenario& sc, int workers,
                                   ExecTier tier) {
  platform::FarmConfig fc;
  fc.modem = sc.modem;
  fc.numWorkers = workers;
  fc.queueCapacity = static_cast<std::size_t>(2 * workers);
  fc.ordered = true;  // required: the DES folds outcomes in schedule order
  fc.run.exec.tier = tier;
  return fc;
}

/// One scenario end-to-end: fresh farm, scheduler run, accounting
/// self-check (aborts the bench on violation).  Returns the summary bytes
/// via `summaryOut` when non-null (the determinism check compares them).
Row runConfig(const cell::CellScenario& sc, int hostWorkers, ExecTier tier,
              std::string* summaryOut) {
  const auto t0 = std::chrono::steady_clock::now();
  platform::PacketFarm farm(farmConfigFor(sc, hostWorkers, tier));
  cell::CellScheduler sched(sc);
  const cell::CellTotals totals = sched.run(farm);
  (void)farm.finish();

  std::string why;
  if (!sched.selfCheck(&why)) {
    std::fprintf(stderr,
                 "bench_cell: MISS-ACCOUNTING SELF-CHECK FAILED "
                 "(servers=%d users=%d): %s\n",
                 sc.numServers, sc.classes[0].users, why.c_str());
    std::exit(1);
  }
  if (summaryOut != nullptr) {
    std::ostringstream os;
    sched.writeSummary(os);
    *summaryOut = os.str();
  }

  Row r;
  r.servers = sc.numServers;
  r.users = sc.classes[0].users;
  r.offered = totals.offered;
  r.delivered = totals.delivered;
  r.errors = totals.errors;
  r.missedLate = totals.missedLate;
  r.missedExpired = totals.missedExpired;
  r.missedOverrun = totals.missedOverrun;
  r.missRate = totals.missRate();
  r.goodputMbps = totals.goodputMbps(sc, sched.goodputBits());
  r.utilization = totals.utilization;
  const obs::HistogramSnapshot lat = sched.latencySnapshot();
  r.latP50Us = lat.quantile(0.5) * 1e-3;
  r.latP99Us = lat.quantile(0.99) * 1e-3;
  r.wallMs = bench::msSince(t0);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  int maxServers = 4;
  int numSymbols = 2;
  std::string jsonPath = "BENCH_cell.json";
  // At the QAM16/2-symbol nominal service time (~142 us -> ~7k pkt/s per
  // server) and 200 pkt/s/user, one server's knee sits near 35 users —
  // the default sweep straddles it so the sustained-users report is
  // non-trivial out of the box.
  std::string usersListText = "8,16,32,48,64";
  double ratePps = 200.0;
  double durationMs = 50.0;
  double deadlineUs = 4000.0;
  double targetMiss = 0.05;
  int hostWorkers = std::max(1, std::min(8, hw));
  int seed = 1;
  bool skipDeterminism = false;

  bench::Args args("bench_cell", "multi-user cell capacity sweep");
  args.positional("maxServers", "largest simulated 400 MHz pool in the sweep",
                  &maxServers);
  args.positional("numSymbols", "OFDM symbols per packet (even)", &numSymbols);
  args.positional("jsonPath", "BENCH_cell.json path ('-' = skip)", &jsonPath);
  args.flag("users-list", "LIST",
            "comma-separated users/cell values to sweep (offered-load axis)",
            &usersListText);
  args.flag("rate", "PPS", "offered packets/sec per user (simulated time)",
            &ratePps);
  args.flag("duration-ms", "MS", "simulated arrival horizon per config",
            &durationMs);
  args.flag("deadline-us", "US", "frame budget (simulated µs)", &deadlineUs);
  args.flag("target-miss", "RATE",
            "deadline-miss-rate target defining 'sustained' users/cell",
            &targetMiss);
  args.flag("host-workers", "N",
            "host farm threads (wall-clock only; results are identical for "
            "any value)",
            &hostWorkers);
  args.flag("seed", "S", "scenario master seed", &seed);
  args.flag("skip-determinism-check",
            "skip the 1-vs-N host-worker byte-identity re-run",
            &skipDeterminism);
  bench::ExecTierFlag tierFlag(args);
  if (!args.parse(argc, argv)) return args.parseError() ? 1 : 0;
  ExecTier tier;
  try {
    tier = tierFlag.resolve();
  } catch (const SimError& e) {
    std::fprintf(stderr, "bench_cell: %s\n", e.what());
    return 1;
  }
  bool listOk = false;
  const std::vector<int> usersList = parseIntList(usersListText, &listOk);
  if (!listOk) {
    std::fprintf(stderr,
                 "bench_cell: --users-list expects comma-separated positive "
                 "integers, got '%s' (try 'bench_cell --help')\n",
                 usersListText.c_str());
    return 1;
  }
  if (numSymbols < 2) numSymbols = 2;
  numSymbols &= ~1;
  if (maxServers < 1) maxServers = 1;
  if (hostWorkers < 1) hostWorkers = 1;

  cell::CellScenario base;
  base.seed = static_cast<u64>(seed);
  base.modem.mod = dsp::Modulation::kQam16;
  base.modem.numSymbols = numSymbols;
  base.durationUs = durationMs * 1000.0;
  base.classes[0].packetsPerSec = ratePps;
  base.classes[0].deadlineUs = deadlineUs;

  // Pay the one-time program build before anything timed or compared.
  (void)platform::modemProgramFor(base.modem);

  // Calibration: one clean-channel decode pins the nominal service time a
  // packet occupies a simulated server — per-server capacity follows.
  double serviceUs = 0.0;
  {
    platform::PacketFarm farm(farmConfigFor(base, 1, tier));
    Rng rng(cell::packetSeed(base, 0, 0, cell::kTxStream));
    const dsp::TxPacket pkt = dsp::transmit(base.modem, rng);
    dsp::ChannelConfig cc;
    cc.taps = 1;
    cc.snrDb = 40;
    cc.seed = 1;
    dsp::MimoChannel ch(cc);
    (void)farm.submit(ch.run(pkt.waveform));
    const std::vector<platform::RxOutcome> outs = farm.finish();
    serviceUs = cell::cyclesToUs(outs.at(0).result.cycles);
  }
  const double capacityPps = serviceUs > 0 ? 1e6 / serviceUs : 0.0;

  std::printf(
      "=== cell capacity: QAM16 x %d symbols, deadline %.0f us, "
      "%.0f pkt/s/user over %.0f ms simulated (%s tier, %d host workers) "
      "===\n",
      numSymbols, deadlineUs, ratePps, durationMs, execTierName(tier),
      hostWorkers);
  std::printf(
      "calibration: one decode = %.1f us simulated -> %.0f pkt/s per "
      "400 MHz server\n",
      serviceUs, capacityPps);

  std::vector<int> serverSweep;
  for (int s = 1; s < maxServers; s *= 2) serverSweep.push_back(s);
  serverSweep.push_back(maxServers);

  std::vector<Row> rows;
  std::vector<std::pair<int, int>> sustained;  // servers -> users at target
  for (const int servers : serverSweep) {
    int best = 0;
    for (const int users : usersList) {
      cell::CellScenario sc = base;
      sc.numServers = servers;
      sc.classes[0].users = users;
      const Row r = runConfig(sc, hostWorkers, tier, nullptr);
      rows.push_back(r);
      if (r.missRate <= targetMiss) best = std::max(best, users);
      std::printf(
          "%2d server%s %3d users: %5llu pkts  miss %5.1f%% "
          "(late %llu, expired %llu, overrun %llu)  err %llu  "
          "goodput %6.2f Mbps  util %3.0f%%  lat p50 %7.0f / p99 %7.0f us  "
          "[%.0f ms host]\n",
          servers, servers == 1 ? ", " : "s,", users,
          static_cast<unsigned long long>(r.offered), 100.0 * r.missRate,
          static_cast<unsigned long long>(r.missedLate),
          static_cast<unsigned long long>(r.missedExpired),
          static_cast<unsigned long long>(r.missedOverrun),
          static_cast<unsigned long long>(r.errors), r.goodputMbps,
          100.0 * r.utilization, r.latP50Us, r.latP99Us, r.wallMs);
    }
    sustained.push_back({servers, best});
    std::printf("%2d server%s sustained users/cell at <=%.1f%% miss: %d\n",
                servers, servers == 1 ? " " : "s", 100.0 * targetMiss, best);
  }

  // Determinism self-check: the same scenario folded with 1 and with N
  // host farm threads must produce byte-identical adres.cell.v1 summaries.
  bool deterministic = true;
  if (!skipDeterminism) {
    cell::CellScenario sc = base;
    sc.numServers = serverSweep.front();
    sc.classes[0].users = usersList.front();
    const int altWorkers = hostWorkers > 1 ? hostWorkers : 2;
    std::string sumA, sumB;
    (void)runConfig(sc, 1, tier, &sumA);
    (void)runConfig(sc, altWorkers, tier, &sumB);
    deterministic = sumA == sumB;
    std::printf("determinism: 1-vs-%d host workers summaries %s\n",
                altWorkers,
                deterministic ? "byte-identical" : "DIFFER (FAIL)");
  }

  if (jsonPath != "-") {
    std::ofstream os(jsonPath);
    constexpr auto kInline = JsonWriter::kInline;
    JsonWriter w(os);
    w.beginObject().field("schema", "adres.bench_cell.v1");
    w.field("exec_tier", execTierName(tier)).field("num_symbols", numSymbols);
    w.field("rate_pps", ratePps).field("duration_ms", durationMs);
    w.field("deadline_us", deadlineUs).field("target_miss", targetMiss);
    w.field("seed", seed).field("host_workers", hostWorkers);
    w.field("service_us", serviceUs).field("server_capacity_pps", capacityPps);
    w.field("deterministic", deterministic).key("rows").beginArray();
    for (const Row& r : rows) {
      w.beginObject(kInline).field("servers", r.servers);
      w.field("users", r.users).field("offered", r.offered);
      w.field("delivered", r.delivered).field("errors", r.errors);
      w.field("missed_late", r.missedLate);
      w.field("missed_expired", r.missedExpired);
      w.field("missed_overrun", r.missedOverrun);
      w.field("miss_rate", r.missRate).field("goodput_mbps", r.goodputMbps);
      w.field("utilization", r.utilization).field("lat_p50_us", r.latP50Us);
      w.field("lat_p99_us", r.latP99Us).field("wall_ms", r.wallMs).end();
    }
    w.end().key("sustained").beginArray();
    for (const auto& [s, u] : sustained)
      w.beginObject(kInline).field("servers", s).field("users", u).end();
    w.end().end();
    std::printf("wrote %s\n", jsonPath.c_str());
  }

  if (!deterministic) {
    std::printf("FAILED: summaries differ across host worker counts\n");
    return 2;
  }
  return 0;
}
