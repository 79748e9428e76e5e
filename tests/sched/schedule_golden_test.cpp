// Schedule golden: the modulo scheduler's emitted mappings are locked into
// tests/sched/schedule_golden.inc — per DFG, the FNV-1a hash of the
// encodeKernel image plus II, routing moves and schedule length, for every
// kernel the modem maps and 64 seeded random DFGs.  Scheduler speed-ups
// (routing state, candidate search) must reproduce every row bit-for-bit;
// an intentional change to the mappings must regenerate the fixture with
// schedule_golden_dump and justify the diff.
#include <gtest/gtest.h>

#include "support/schedule_golden_common.hpp"

namespace adres::testsupport {
namespace {

#include "schedule_golden.inc"

TEST(ScheduleGolden, EveryMappingMatchesFixture) {
  const std::vector<ScheduleGoldenRow> rows = collectScheduleGolden();
  const std::size_t n = sizeof(kScheduleGolden) / sizeof(kScheduleGolden[0]);
  ASSERT_EQ(rows.size(), n) << "DFG set changed; regenerate the fixture";
  for (std::size_t i = 0; i < n; ++i) {
    const ScheduleGoldenRow& got = rows[i];
    const ScheduleGoldenRow& want = kScheduleGolden[i];
    SCOPED_TRACE("kernel: " + want.name);
    EXPECT_EQ(got.name, want.name);
    EXPECT_EQ(got.imageHash, want.imageHash);
    EXPECT_EQ(got.ii, want.ii);
    EXPECT_EQ(got.routeMoves, want.routeMoves);
    EXPECT_EQ(got.schedLength, want.schedLength);
  }
}

}  // namespace
}  // namespace adres::testsupport
