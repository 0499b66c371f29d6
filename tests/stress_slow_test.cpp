//===- tests/stress_slow_test.cpp - Memory-bounded stress regressions ------===//
//
// Stress trials that take a minute or more and are registered only under
// CHIMERA_SLOW_TESTS (ctest label `slow`). Each runs in its own process,
// so the process's peak resident set is the trial's.
//
//===----------------------------------------------------------------------===//

#include "stress/Stress.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

using namespace chimera;
using namespace chimera::stress;

namespace {

uint64_t peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<uint64_t>(Usage.ru_maxrss) / 1024; // KiB on Linux.
}

} // namespace

// Trial 1031 of base seed 1: epoch-parallel replay of pbzip2 recorded
// with a checkpoint after every log event (about 41 000 of them). The
// reader used to hold every decoded checkpoint snapshot and ran out of
// memory past 8 GB; it now keeps only the epoch-boundary snapshots.
TEST(StressRegression, Trial1031ParallelReplayFitsInMemory) {
  TrialCase Case = deriveCase(1, 1031);
  ASSERT_EQ(Case.Oracle, OracleKind::ParallelReplay);
  ASSERT_EQ(Case.Config.CheckpointEvery, 1u);
  TrialResult R = runTrial(Case);
  EXPECT_TRUE(R.Passed) << R.Failure;
  EXPECT_LT(peakRssMb(), 1024u) << "peak RSS of one trial";
}
