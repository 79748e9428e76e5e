// adres.campaign.v1 checkpoints: lossless round-trip (including doubles),
// deterministic bytes, spec-hash guarding, the file variants, and resume
// from hostile or corrupted files (regression inputs edited from a real
// campaign_runner checkpoint).
#include "campaign/checkpoint.hpp"

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/json_min.hpp"

namespace adres::campaign {
namespace {

SweepSpec twoCellSpec() {
  SweepSpec s;
  s.seed = 3;
  s.mods = {dsp::Modulation::kQam64};
  s.numSymbols = {2};
  s.taps = {1};
  s.cfoPpm = {10.0};
  s.snrDb = {18.0, 30.0};
  s.flat = true;
  return s;
}

/// Accumulators with deliberately awkward doubles: %.17g + std::stod must
/// round-trip them bit-exactly.
CellResult fakeResult(u64 salt) {
  CellResult r;
  r.trials = 37 + salt;
  r.bits = (37 + salt) * 384;
  r.bitErrors = 5 * salt;
  r.packetErrors = salt;
  r.lostPackets = salt / 2;
  r.cycles = (37 + salt) * 66977;
  r.energyNj = static_cast<double>(salt + 1) / 3.0 * 1e4;
  r.discardedTrials = salt;
  r.stopReason = salt % 2 ? "ci" : "errorBudget";
  r.done = true;
  return r;
}

TEST(Checkpoint, RoundTripIsLossless) {
  const SweepSpec spec = twoCellSpec();
  const std::vector<CellSpec> cells = expand(spec);
  std::vector<CellResult> results{fakeResult(1), fakeResult(2)};

  std::stringstream ss;
  writeCheckpoint(ss, spec, cells, results);
  const std::map<u64, CellResult> loaded = loadCheckpoint(ss, spec);

  ASSERT_EQ(loaded.size(), 2u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto it = loaded.find(cells[i].key());
    ASSERT_NE(it, loaded.end());
    EXPECT_EQ(it->second, results[i]) << "cell " << i;
  }
}

TEST(Checkpoint, BytesAreDeterministicAndSkipUnfinishedCells) {
  const SweepSpec spec = twoCellSpec();
  const std::vector<CellSpec> cells = expand(spec);
  std::vector<CellResult> results{fakeResult(1), fakeResult(2)};
  results[1].done = false;  // still running: must not be recorded

  std::stringstream a, b;
  writeCheckpoint(a, spec, cells, results);
  writeCheckpoint(b, spec, cells, results);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(loadCheckpoint(a, spec).size(), 1u);
}

TEST(Checkpoint, RefusesADifferentSpec) {
  const SweepSpec spec = twoCellSpec();
  const std::vector<CellSpec> cells = expand(spec);
  std::vector<CellResult> results{fakeResult(1), fakeResult(2)};
  std::stringstream ss;
  writeCheckpoint(ss, spec, cells, results);

  SweepSpec other = spec;
  other.stop.maxTrials += 1;
  EXPECT_THROW(loadCheckpoint(ss, other), SimError)
      << "a checkpoint never silently resumes a different sweep";
}

TEST(Checkpoint, FileVariantRoundTripsAndToleratesMissingFiles) {
  const SweepSpec spec = twoCellSpec();
  const std::vector<CellSpec> cells = expand(spec);
  std::vector<CellResult> results{fakeResult(1), fakeResult(2)};

  const std::string path =
      testing::TempDir() + "adres_checkpoint_test_camp.json";
  std::remove(path.c_str());
  EXPECT_TRUE(loadCheckpointFile(path, spec).empty()) << "missing = fresh";

  writeCheckpointFile(path, spec, cells, results);
  const std::map<u64, CellResult> loaded = loadCheckpointFile(path, spec);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.at(cells[0].key()), results[0]);
  EXPECT_EQ(loaded.at(cells[1].key()), results[1]);
  std::remove(path.c_str());
}

TEST(Checkpoint, StringsAreEscapedOnWrite) {
  const SweepSpec spec = twoCellSpec();
  const std::vector<CellSpec> cells = expand(spec);
  std::vector<CellResult> results{fakeResult(1), fakeResult(2)};
  results[0].stopReason = "max\"Trials\\";
  std::stringstream ss;
  writeCheckpoint(ss, spec, cells, results);
  const json::JsonValue root = json::JsonParser(ss.str()).parse();
  EXPECT_EQ(root.at("cells").array.at(0).at("stopReason").str,
            results[0].stopReason);
}

/// `campaign_runner --snr 30,20 --flat --min-trials 16 --max-trials 16`.
SweepSpec runnerSpec() {
  SweepSpec s;
  s.seed = 1;
  s.mods = {dsp::Modulation::kQam64};
  s.numSymbols = {4};
  s.taps = {3};
  s.delaySpread = 0.45;
  s.cfoPpm = {10.0};
  s.snrDb = {30.0, 20.0};
  s.flat = true;
  s.batchSize = 16;
  s.stop.minTrials = 16;
  s.stop.maxTrials = 16;
  s.stop.errorBudget = 50;
  s.stop.ciHalfWidth = 0.05;
  s.stop.confidence = 0.95;
  return s;
}

/// The first-cell checkpoint of that run, with its key, trials count and
/// stopReason (raw JSON text) substituted.
std::string runnerCheckpoint(const std::string& key, const std::string& trials,
                             const std::string& stopReason) {
  return R"({
  "schema": "adres.campaign.v1",
  "specHash": "f921e4c4d76d48b7",
  "cells": [
    {"key": ")" + key + R"(", "label": "qam64 s4 t3 cfo10 snr30 flat", "mod": 3, "numSymbols": 4, "taps": 3, "delaySpread": 0.45000000000000001, "cfoPpm": 10, "snrDb": 30,
     "trials": )" + trials + R"(, "bits": 36864, "bitErrors": 0, "packetErrors": 0, "lostPackets": 0, "cycles": 1076148, "discardedTrials": 0, "stopReason": )" +
         stopReason + R"(,
     "energyNj": 201955.17624821377, "per": 0, "ber": 0, "perCiLo": 0, "perCiHi": 0.19360768053443644, "energyPerBitNj": 5.4783847723582291}
  ]
}
)";
}

const std::string kGoodKey = "a48014a07167ce6e";

TEST(Checkpoint, RunnerCheckpointResumes) {
  std::istringstream is(runnerCheckpoint(kGoodKey, "16", "\"maxTrials\""));
  const std::map<u64, CellResult> loaded = loadCheckpoint(is, runnerSpec());
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.at(expand(runnerSpec())[0].key()).trials, 16u);
}

TEST(Checkpoint, RejectsAnUnknownStopReason) {
  std::istringstream is(
      runnerCheckpoint(kGoodKey, "16", "\"max\\\"Trials\""));
  EXPECT_THROW(loadCheckpoint(is, runnerSpec()), SimError);
}

TEST(Checkpoint, RejectsAKeyThatIsNotSixteenHexDigits) {
  for (const std::string key : {"zz", "a48014a07167ce6", "a48014a07167ce6e0",
                                "-48014a07167ce6e", "a48014a07167ce6g"}) {
    std::istringstream is(runnerCheckpoint(key, "16", "\"maxTrials\""));
    EXPECT_THROW(loadCheckpoint(is, runnerSpec()), SimError) << key;
  }
}

TEST(Checkpoint, RejectsACounterOutsideTheExactIntegerRange) {
  for (const std::string trials :
       {"-5", "16.5", "9007199254740994", "1e300", "\"16\"", "true"}) {
    std::istringstream is(runnerCheckpoint(kGoodKey, trials, "\"maxTrials\""));
    EXPECT_THROW(loadCheckpoint(is, runnerSpec()), SimError) << trials;
  }
}

TEST(Checkpoint, RunnerExitsTwoWithOneErrorLineOnACorruptedFile) {
  const std::string path =
      testing::TempDir() + "adres_checkpoint_test_corrupt.json";
  for (const std::string& bad :
       {runnerCheckpoint(kGoodKey, "16", "\"max\\\"Trials\""),
        runnerCheckpoint("zz", "16", "\"maxTrials\""),
        runnerCheckpoint(kGoodKey, "-5", "\"maxTrials\""),
        runnerCheckpoint(kGoodKey, "16", "\"max\"Trials\"")}) {
    std::ofstream(path) << bad;
    const std::string cmd = std::string(ADRES_CAMPAIGN_RUNNER) +
                            " --snr 30,20 --flat --min-trials 16"
                            " --max-trials 16 --quiet --checkpoint " +
                            path + " 2>&1";
    FILE* p = popen(cmd.c_str(), "r");
    ASSERT_NE(p, nullptr);
    std::string out;
    char buf[256];
    while (std::fgets(buf, sizeof buf, p)) out += buf;
    const int status = pclose(p);
    ASSERT_TRUE(WIFEXITED(status)) << out;
    EXPECT_EQ(WEXITSTATUS(status), 2) << out;
    EXPECT_EQ(out.rfind("error: ", 0), 0u) << out;
    EXPECT_EQ(out.find('\n'), out.size() - 1) << "one line: " << out;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace adres::campaign
