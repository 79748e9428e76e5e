// Process-wide program cache: every program modemProgramFor hands out is
// built from ONE mapped kernel set (pointer identity), each is
// byte-identical to a cold buildModemProgram of the same configuration
// (VLIW text, kernel images, data segments), clearModemProgramCache drops
// the set so the next request maps afresh, and concurrent first requests
// converge on one set (run under -DADRES_SANITIZE=thread for the race
// check).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "cga/context.hpp"
#include "isa/encoding.hpp"
#include "platform/rx_session.hpp"

namespace adres::platform {
namespace {

std::vector<dsp::ModemConfig> sweepConfigs() {
  std::vector<dsp::ModemConfig> out;
  for (dsp::Modulation mod : {dsp::Modulation::kQam16, dsp::Modulation::kQam64})
    for (int symbols : {4, 8}) {
      dsp::ModemConfig cfg;
      cfg.mod = mod;
      cfg.numSymbols = symbols;
      out.push_back(cfg);
    }
  return out;
}

void expectSameProgram(const sdr::ModemOnProcessor& a,
                       const sdr::ModemOnProcessor& b) {
  EXPECT_EQ(encodeProgram(a.program.bundles), encodeProgram(b.program.bundles));
  ASSERT_EQ(a.program.kernels.size(), b.program.kernels.size());
  for (std::size_t i = 0; i < a.program.kernels.size(); ++i) {
    SCOPED_TRACE("kernel " + a.program.kernels[i].name);
    EXPECT_EQ(encodeKernel(a.program.kernels[i]),
              encodeKernel(b.program.kernels[i]));
  }
  ASSERT_EQ(a.program.data.size(), b.program.data.size());
  for (std::size_t i = 0; i < a.program.data.size(); ++i) {
    EXPECT_EQ(a.program.data[i].addr, b.program.data[i].addr);
    EXPECT_EQ(a.program.data[i].bytes, b.program.data[i].bytes);
  }
  EXPECT_EQ(a.program.regionNames, b.program.regionNames);
  EXPECT_EQ(a.layout.gray, b.layout.gray);
  EXPECT_EQ(a.layout.status, b.layout.status);
}

TEST(ProgramCache, ConfigsShareOneKernelSetAndMatchColdBuilds) {
  clearModemProgramCache();
  const std::vector<dsp::ModemConfig> configs = sweepConfigs();
  std::vector<std::shared_ptr<const sdr::ModemOnProcessor>> cached;
  for (const dsp::ModemConfig& cfg : configs) cached.push_back(modemProgramFor(cfg));

  const sdr::ModemKernels* shared = cached.front()->kernels.get();
  ASSERT_NE(shared, nullptr);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config " + std::to_string(i));
    EXPECT_EQ(cached[i]->kernels.get(), shared) << "one mapping per process";
    const sdr::ModemOnProcessor cold = sdr::buildModemProgram(configs[i]);
    EXPECT_NE(cold.kernels.get(), shared) << "a cold build maps its own set";
    expectSameProgram(*cached[i], cold);
  }
}

TEST(ProgramCache, ClearDropsTheKernelSet) {
  const dsp::ModemConfig cfg = sweepConfigs().front();
  clearModemProgramCache();
  const auto before = modemProgramFor(cfg);
  clearModemProgramCache();
  const auto after = modemProgramFor(cfg);
  EXPECT_NE(before.get(), after.get());
  EXPECT_NE(before->kernels.get(), after->kernels.get())
      << "clearModemProgramCache must make the next request map afresh";
  expectSameProgram(*before, *after);
}

TEST(ProgramCache, ConcurrentRequestsShareOneKernelSet) {
  clearModemProgramCache();
  const std::vector<dsp::ModemConfig> configs = sweepConfigs();
  std::vector<std::shared_ptr<const sdr::ModemOnProcessor>> got(configs.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < configs.size(); ++i)
    threads.emplace_back([&, i] { got[i] = modemProgramFor(configs[i]); });
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(got[i].get(), modemProgramFor(configs[i]).get());
    EXPECT_EQ(got[i]->kernels.get(), got.front()->kernels.get());
  }
}

}  // namespace
}  // namespace adres::platform
