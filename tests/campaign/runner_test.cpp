// CampaignRunner reproducibility contract (the acceptance criterion):
// a campaign over the same cell set is bit-identical across 1-worker vs
// N-worker runs, and across a kill/resume boundary — including the bytes
// of the checkpoint file it leaves behind.
#include "campaign/runner.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"

namespace adres::campaign {
namespace {

/// A deliberately small two-cell sweep that still exercises both stopping
/// paths: snr 12 dB saturates the error budget, snr 30 dB runs into the
/// trial ceiling with zero errors.  batch 4 < maxTrials forces multi-batch
/// cells and a truncated final batch.
CampaignConfig smallCampaign() {
  CampaignConfig cfg;
  cfg.sweep.seed = 5;
  cfg.sweep.mods = {dsp::Modulation::kQam16};
  cfg.sweep.numSymbols = {2};
  cfg.sweep.taps = {1};
  cfg.sweep.cfoPpm = {10.0};
  cfg.sweep.snrDb = {12.0, 30.0};
  cfg.sweep.flat = true;
  cfg.sweep.batchSize = 4;
  cfg.sweep.stop.minTrials = 4;
  cfg.sweep.stop.maxTrials = 6;
  cfg.sweep.stop.errorBudget = 2;
  return cfg;
}

std::string fileBytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

TEST(CampaignRunner, ResultsAreInvariantAcrossWorkerCounts) {
  CampaignConfig one = smallCampaign();
  one.workers = 1;
  const CampaignResult a = CampaignRunner(one).run();

  CampaignConfig many = smallCampaign();
  many.workers = 3;
  const CampaignResult b = CampaignRunner(many).run();

  ASSERT_EQ(a.cells.size(), 2u);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i)
    EXPECT_EQ(a.results[i], b.results[i]) << "cell " << i;
  EXPECT_TRUE(a.completed);
  EXPECT_TRUE(b.completed);
  EXPECT_EQ(a.trialsRun, b.trialsRun);
  EXPECT_EQ(a.trialsDiscarded, b.trialsDiscarded);

  // The sweep hit both stopping paths (otherwise this test is not
  // exercising what it claims to).
  EXPECT_EQ(a.results[0].stopReason, "errorBudget");
  EXPECT_EQ(a.results[1].stopReason, "maxTrials");
  EXPECT_EQ(a.results[1].packetErrors, 0u) << "30 dB flat QAM-16 is clean";
}

TEST(CampaignRunner, KillAndResumeIsByteIdenticalWithUninterruptedRun) {
  const std::string full = testing::TempDir() + "adres_campaign_full.json";
  const std::string split = testing::TempDir() + "adres_campaign_split.json";
  std::remove(full.c_str());
  std::remove(split.c_str());

  // Uninterrupted reference run.
  CampaignConfig ref = smallCampaign();
  ref.workers = 2;
  ref.checkpointPath = full;
  const CampaignResult whole = CampaignRunner(ref).run();
  EXPECT_TRUE(whole.completed);

  // "Killed" run: stop after the first completed cell...
  CampaignConfig part = smallCampaign();
  part.workers = 2;
  part.checkpointPath = split;
  part.resume = false;
  part.stopAfterCells = 1;
  const CampaignResult partial = CampaignRunner(part).run();
  EXPECT_FALSE(partial.completed);
  EXPECT_TRUE(partial.results[0].done);
  EXPECT_FALSE(partial.results[1].done);

  // ...then resume from its checkpoint.
  CampaignConfig rest = smallCampaign();
  rest.workers = 2;
  rest.checkpointPath = split;
  rest.resume = true;
  const CampaignResult resumed = CampaignRunner(rest).run();
  EXPECT_TRUE(resumed.completed);
  // The resumed run decodes only the second cell's trials.
  EXPECT_EQ(resumed.trialsRun + partial.trialsRun + partial.trialsDiscarded +
                resumed.trialsDiscarded,
            whole.trialsRun + whole.trialsDiscarded);
  EXPECT_LT(resumed.trialsRun, whole.trialsRun);

  // Accumulators and checkpoint bytes must match the uninterrupted run
  // exactly.
  ASSERT_EQ(resumed.results.size(), whole.results.size());
  for (std::size_t i = 0; i < whole.results.size(); ++i)
    EXPECT_EQ(resumed.results[i], whole.results[i]) << "cell " << i;
  const std::string a = fileBytes(full), b = fileBytes(split);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "resume must converge to the uninterrupted bytes";
  std::remove(full.c_str());
  std::remove(split.c_str());
}

TEST(CampaignRunner, CheckpointBytesInvariantAcrossProducersAndFrontend) {
  const std::string ref = testing::TempDir() + "adres_campaign_p1.json";
  const std::string alt = testing::TempDir() + "adres_campaign_p3.json";
  std::remove(ref.c_str());
  std::remove(alt.c_str());

  // Reference: inline generation (1 producer).
  CampaignConfig a = smallCampaign();
  a.workers = 2;
  a.producers = 1;
  a.checkpointPath = ref;
  const CampaignResult ra = CampaignRunner(a).run();
  EXPECT_TRUE(ra.completed);

  // Sharded generation: counter-derived trial seeds plus trial-order
  // folding make every accumulator — and the checkpoint bytes —
  // independent of who generated which trial.  (The frontend itself is
  // pinned against its scalar oracle in tests/dsp/frontend_ab_test.)
  CampaignConfig b = smallCampaign();
  b.workers = 2;
  b.producers = 3;
  b.checkpointPath = alt;
  const CampaignResult rb = CampaignRunner(b).run();
  EXPECT_TRUE(rb.completed);

  ASSERT_EQ(ra.results.size(), rb.results.size());
  for (std::size_t i = 0; i < ra.results.size(); ++i)
    EXPECT_EQ(ra.results[i], rb.results[i]) << "cell " << i;
  EXPECT_EQ(ra.trialsRun, rb.trialsRun);
  const std::string bytesA = fileBytes(ref), bytesB = fileBytes(alt);
  ASSERT_FALSE(bytesA.empty());
  EXPECT_EQ(bytesA, bytesB)
      << "checkpoint bytes must not depend on producers";
  std::remove(ref.c_str());
  std::remove(alt.c_str());
}

TEST(CampaignRunner, RegistersLiveProgressMetrics) {
  CampaignConfig cfg = smallCampaign();
  cfg.workers = 1;
  CampaignRunner runner(cfg);
  obs::MetricsRegistry reg;
  runner.registerMetrics(reg);
  const CampaignResult res = runner.run();
  EXPECT_TRUE(res.completed);

  std::ostringstream os;
  reg.writePrometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("adres_campaign_cells_total 2\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("adres_campaign_cells_done 2\n"), std::string::npos);
  EXPECT_NE(text.find("adres_campaign_trials_total"), std::string::npos);
  EXPECT_NE(text.find("adres_campaign_cell_per{"), std::string::npos)
      << "per-cell PER gauge family";
  reg.clear();
}

}  // namespace
}  // namespace adres::campaign
