// adres-sdr benchmark program: runs one workload (decode-long,
// campaign-sweep or cell-sweep) and prints every metric by name and unit,
// then one JSON result line.  See perfbench/README.md.
//
//   adres_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--setup-only] [--tiny] [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics derived from spans and writes the spans to DIR.  --setup-only
// stops after set-up and prints {"setup_s": ...} (run.py takes the median
// of several cold processes).  --tiny shrinks every workload for the smoke
// test.  Exit status 1 on bad arguments or an exception, without a result.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <algorithm>
#include <string>
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

const char* const kE2e[] = {
    "setup_s",            "pkts_per_s",        "sim_mcycles_per_s", "decode_ms_p50",
    "peak_rss_mb",        "ok_ops_share",      "sim_cycles_per_pkt", "sim_mbps",
    "energy_nj_per_bit",  "delivered_share",   "sustained_users",
};

const char* const kKernels[] = {
    "acorr",      "cfo",        "fshift",     "xcorr",      "bitrev",    "fft_stage1",
    "fft_stage2", "fft_stage3", "fft_stage4", "fft_stage5", "fft_stage6", "interleave",
    "chest",      "eqnorm",     "eqapply",    "comp",       "demod",
};

/// Every per-layer metric name and its unit, in print order.
std::vector<std::pair<std::string, std::string>> layerCatalogue() {
  std::vector<std::pair<std::string, std::string>> c;
  for (const char* k : kKernels) c.emplace_back(std::string("sched.map_ms.") + k, "ms");
  c.emplace_back("sched.route_moves", "count");
  c.emplace_back("sched.ii_sum", "count");
  c.emplace_back("sdr.build_ms", "ms");
  c.emplace_back("sdr.table2_err_pct.preamble", "%");
  c.emplace_back("sdr.table2_err_pct.data", "%");
  c.emplace_back("cga.plan_ms", "ms");
  for (const char* k : kKernels) c.emplace_back(std::string("cga.ns_per_cycle.") + k, "ns");
  c.emplace_back("cga.ops_per_pkt", "ops");
  c.emplace_back("cga.route_moves_per_pkt", "ops");
  c.emplace_back("core.decode_ms_p50", "ms");
  c.emplace_back("core.reload_us", "us");
  c.emplace_back("core.vliw_cycle_share", "share");
  c.emplace_back("mem.l1_conflict_cycles_per_pkt", "cycles");
  c.emplace_back("mem.icache_misses_per_pkt", "count");
  c.emplace_back("dsp.trial_us", "us");
  c.emplace_back("platform.queue_wait_ms_p50", "ms");
  c.emplace_back("platform.queue_wait_ms_p99", "ms");
  c.emplace_back("platform.decode_ms_p99", "ms");
  c.emplace_back("platform.busy_share", "share");
  c.emplace_back("platform.backpressure_share", "share");
  c.emplace_back("platform.rss_growth_mb_per_pass", "MB");
  c.emplace_back("campaign.useful_ratio", "share");
  c.emplace_back("cell.decoded_share", "share");
  for (int u : cellUsersList())
    c.emplace_back("cell.miss_rate." + std::to_string(u), "share");
  c.emplace_back("obs.health_events", "count");
  c.emplace_back("trace_overhead_pct", "%");
  c.emplace_back("host.wall_pkts_per_s", "1/s");
  c.emplace_back("host.wall_decode_ms_p50", "ms");
  c.emplace_back("host.wall_decode_ms_p95", "ms");
  c.emplace_back("host.slowdown", "x");
  return c;
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i)
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3]))
      return "unknown";
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
#else
  return "unknown";
#endif
}

std::string jsonString(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    if (static_cast<unsigned char>(ch) >= 0x20) o += ch;
  }
  return o + "\"";
}

std::string fingerprint(const Options& opt) {
  return "{\"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": " + jsonString(cpuModel()) +
         ", \"compiler\": " + jsonString(std::string("gcc ") + __VERSION__) +
         ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
         ", \"tier\": " + jsonString(adres::execTierName(kTier)) +
         ", \"workers\": " + std::to_string(kWorkers) +
         ", \"workload\": " + jsonString(opt.workload) +
         ", \"seed\": " + std::to_string(opt.seed) + "}";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

bool parseArgs(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    char* end = nullptr;
    if (a == "--workload") {
      if (!(v = value("--workload"))) return false;
      opt.workload = v;
    } else if (a == "--seed") {
      if (!(v = value("--seed"))) return false;
      opt.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
    } else if (a == "--seconds") {
      if (!(v = value("--seconds"))) return false;
      opt.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !(opt.seconds > 0)) return false;
    } else if (a == "--trace") {
      if (!(v = value("--trace"))) return false;
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      opt.trace = v[0] == '1';
    } else if (a == "--out-dir") {
      if (!(v = value("--out-dir"))) return false;
      opt.outDir = v;
    } else if (a == "--setup-only") {
      opt.setupOnly = true;
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument '%s'\n", a.c_str());
      return false;
    }
  }
  return !opt.workload.empty() && !opt.outDir.empty();
}

int run(Context& ctx) {
  const Options& opt = ctx.opt;
  ctx.spans.setEnabled(opt.trace);
  Result r;
  // Layers a workload does not run, by metric-name prefix.
  std::vector<std::string> notRun;
  if (opt.workload == "decode-long") {
    r = runDecodeLong(ctx);
    notRun = {"campaign.", "cell."};
  } else if (opt.workload == "campaign-sweep") {
    r = runCampaignSweep(ctx);
    notRun = {"cell."};
  } else if (opt.workload == "cell-sweep") {
    r = runCellSweep(ctx);
    notRun = {"campaign."};
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 1;
  }
  if (opt.setupOnly) {
    std::printf("{\"setup_s\": %s}\n", number(r.setupS).c_str());
    return r.correct ? 0 : 1;
  }

  std::vector<Metric> out;
  if (!opt.trace) {
    for (const char* name : kE2e) {
      const auto it = std::find_if(r.e2e.begin(), r.e2e.end(),
                                   [&](const Metric& m) { return m.name == name; });
      if (it == r.e2e.end()) {
        std::fprintf(stderr, "perfbench: workload did not report %s\n", name);
        return 1;
      }
      out.push_back(*it);
    }
  } else {
    for (const auto& [name, unit] : layerCatalogue()) {
      const auto it = std::find_if(r.layer.begin(), r.layer.end(),
                                   [&](const Metric& m) { return m.name == name; });
      if (it != r.layer.end()) {
        out.push_back(*it);
      } else if (std::any_of(notRun.begin(), notRun.end(), [&](const std::string& p) {
                   return name.rfind(p, 0) == 0;
                 })) {
        out.push_back({name, 0.0, unit});  // 0 = layer not run by this workload
      } else {
        std::fprintf(stderr, "perfbench: workload did not report %s\n", name.c_str());
        return 1;
      }
    }
    std::string why;
    r.check(ctx.spans.checkNesting(&why), "traced spans nest: " + why);
    const std::string path = opt.outDir + "/spans-" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".json";
    r.check(ctx.spans.writeJson(path, ctx.fingerprintJson), "spans written to " + path);
    std::printf("spans: %zu written to %s\n", ctx.spans.spans().size(), path.c_str());
  }
  for (Metric& m : out) {
    if (!std::isfinite(m.value)) {
      r.check(false, "metric " + m.name + " is finite");
      m.value = 0;
    }
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("fingerprint: %s\n", ctx.fingerprintJson.c_str());
  std::string json = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i)
    json += (i ? ", " : "") + jsonString(out[i].name) + ": {\"value\": " +
            number(out[i].value) + ", \"unit\": " + jsonString(out[i].unit) + "}";
  std::printf("%s}}\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Context ctx;
  if (!perfbench::parseArgs(argc, argv, ctx.opt)) {
    std::fprintf(stderr,
                 "usage: adres_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --out-dir DIR [--setup-only] [--tiny]\n");
    return 1;
  }
  ctx.fingerprintJson = perfbench::fingerprint(ctx.opt);
  try {
    return perfbench::run(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
