//===- tests/mhp_test.cpp - May-happen-in-parallel analysis tests ----------===//
//
// Covers the MHP filter (ISSUE 3): mode parsing, fork/join pruning
// (straight-line and counted-loop join matching, worker lifetime
// disjointness), barrier-phase pruning, the precision targets on the
// phase-structured workloads, the soundness cross-check against the
// dynamic happens-before oracle, and record/replay determinism of
// pruned plans.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "analysis/MayHappenInParallel.h"
#include "codegen/CodeGen.h"
#include "race/DynamicDetector.h"
#include "race/RelayDetector.h"
#include "replay/LogCodec.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <set>

using namespace chimera;
using namespace chimera::analysis;

namespace {

struct Detected {
  std::unique_ptr<ir::Module> M;
  race::RaceReport Report;
};

/// Compiles \p Source and runs RELAY with the MHP filter in \p Mode.
Detected detect(const std::string &Source, MhpMode Mode) {
  Detected Out;
    Out.M = test::compileOrNull(Source, "t");
  analysis::CallGraph CG(*Out.M);
  analysis::PointsTo PT(*Out.M);
  analysis::EscapeAnalysis Escape(*Out.M, PT);
  MayHappenInParallel Mhp(*Out.M, CG, PT, Mode);
  race::RelayDetector Detector(*Out.M, CG, PT, Escape, nullptr, &Mhp);
  Out.Report = Detector.detect();
  return Out;
}

uint64_t prunedTotal(const race::RaceReport &R) { return R.Mhp.pruned(); }

} // namespace

//===----------------------------------------------------------------------===//
// Mode parsing
//===----------------------------------------------------------------------===//

TEST(MhpMode, ParsesKnownSpellings) {
  EXPECT_EQ(*parseMhpMode("off"), MhpMode::Off);
  EXPECT_EQ(*parseMhpMode("forkjoin"), MhpMode::ForkJoin);
  EXPECT_EQ(*parseMhpMode("barrier"), MhpMode::Barrier);
}

TEST(MhpMode, RejectsUnknownSpellingWithError) {
  auto R = parseMhpMode("everything");
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("unknown MHP mode"), std::string::npos);
  EXPECT_NE(R.error().message().find("everything"), std::string::npos);
  EXPECT_FALSE(parseMhpMode(""));
  EXPECT_FALSE(parseMhpMode("Barrier")); // Case-sensitive, no guessing.
}

TEST(MhpMode, NamesRoundTrip) {
  for (MhpMode M : {MhpMode::Off, MhpMode::ForkJoin, MhpMode::Barrier})
    EXPECT_EQ(*parseMhpMode(mhpModeName(M)), M);
}

//===----------------------------------------------------------------------===//
// Fork/join pruning on small programs
//===----------------------------------------------------------------------===//

namespace {

/// Main writes before the spawn, between spawn and join (a real race!),
/// and after the join.
const char *StraightLineSrc = "int g;\n"
                              "void w(int x) { g = g + x; }\n"
                              "int main() {\n"
                              "  g = 1;\n"
                              "  int t = spawn(w, 5);\n"
                              "  g = 2;\n"
                              "  join(t);\n"
                              "  g = 3;\n"
                              "  return g;\n"
                              "}\n";

} // namespace

TEST(MhpForkJoin, StraightLineSpawnJoinPrunesOutsideTheWindow) {
  Detected Off = detect(StraightLineSrc, MhpMode::Off);
  Detected FJ = detect(StraightLineSrc, MhpMode::ForkJoin);

  ASSERT_FALSE(Off.Report.Pairs.empty());
  EXPECT_TRUE(Off.Report.PrunedPairs.empty());
  EXPECT_EQ(Off.Report.Mhp.Mode, MhpMode::Off);

  // The mid-window write still races; the pre-spawn and post-join
  // accesses are pruned.
  EXPECT_FALSE(FJ.Report.Pairs.empty());
  EXPECT_FALSE(FJ.Report.PrunedPairs.empty());
  EXPECT_LT(FJ.Report.Pairs.size(), Off.Report.Pairs.size());
  EXPECT_EQ(FJ.Report.Mhp.PairsBefore, Off.Report.Pairs.size());
  EXPECT_EQ(FJ.Report.Pairs.size() + FJ.Report.PrunedPairs.size(),
            Off.Report.Pairs.size());
  for (const race::PrunedRace &P : FJ.Report.PrunedPairs)
    EXPECT_EQ(P.Reason, MhpOrdering::OrderedForkJoin);
}

TEST(MhpForkJoin, UnjoinedSpawnOnlyPrunesPreSpawnCode) {
  const char *Src = "int g;\n"
                    "void w(int x) { g = x; }\n"
                    "int main() {\n"
                    "  g = 1;\n"
                    "  int t = spawn(w, 5);\n"
                    "  g = 2;\n"
                    "  return t;\n"
                    "}\n";
  Detected Off = detect(Src, MhpMode::Off);
  Detected FJ = detect(Src, MhpMode::ForkJoin);
  // g = 1 is strictly before any instance of w can exist; g = 2 races
  // forever because w is never joined.
  EXPECT_FALSE(FJ.Report.Pairs.empty());
  EXPECT_FALSE(FJ.Report.PrunedPairs.empty());
  EXPECT_EQ(FJ.Report.Mhp.PairsBefore, Off.Report.Pairs.size());
}

TEST(MhpForkJoin, CountedSpawnAndJoinLoopsRetireWorkers) {
  const char *Src = "int g;\n"
                    "int tids[4];\n"
                    "void w(int x) { g = g + x; }\n"
                    "int main() {\n"
                    "  int i;\n"
                    "  for (i = 0; i < 4; i++) {\n"
                    "    tids[i] = spawn(w, i);\n"
                    "  }\n"
                    "  for (i = 0; i < 4; i++) {\n"
                    "    join(tids[i]);\n"
                    "  }\n"
                    "  g = 7;\n"
                    "  return g;\n"
                    "}\n";
  Detected Off = detect(Src, MhpMode::Off);
  Detected FJ = detect(Src, MhpMode::ForkJoin);

  // Off: main's post-loop write and return-read race with w, and w races
  // with itself across instances.
  ASSERT_FALSE(Off.Report.Pairs.empty());

  // ForkJoin: the join loop provably retires every spawned instance, so
  // every main<->w pair vanishes. The w<->w self-race must survive (the
  // spawn loop runs instances concurrently).
  EXPECT_FALSE(FJ.Report.PrunedPairs.empty());
  uint32_t WId = Off.M->findFunction("w")->Index;
  uint32_t MainId = Off.M->MainFunction;
  for (const race::RacePair &P : FJ.Report.Pairs) {
    EXPECT_EQ(P.A.FuncId, WId);
    EXPECT_EQ(P.B.FuncId, WId);
  }
  bool SawMainPrune = false;
  for (const race::PrunedRace &P : FJ.Report.PrunedPairs)
    SawMainPrune = SawMainPrune || P.Pair.A.FuncId == MainId ||
                   P.Pair.B.FuncId == MainId;
  EXPECT_TRUE(SawMainPrune);
  ASSERT_FALSE(FJ.Report.Pairs.empty()); // Self-race kept: soundness.
}

TEST(MhpForkJoin, SequentialWorkerLifetimesNeverOverlap) {
  const char *Src = "int g;\n"
                    "void w1(int x) { g = x; }\n"
                    "void w2(int x) { g = x + 1; }\n"
                    "int main() {\n"
                    "  int t = spawn(w1, 1);\n"
                    "  join(t);\n"
                    "  int u = spawn(w2, 2);\n"
                    "  join(u);\n"
                    "  return g;\n"
                    "}\n";
  Detected Off = detect(Src, MhpMode::Off);
  Detected FJ = detect(Src, MhpMode::ForkJoin);
  // w1 is joined before w2 is spawned: w1<->w2 and both main pairs are
  // all ordered.
  ASSERT_FALSE(Off.Report.Pairs.empty());
  EXPECT_TRUE(FJ.Report.Pairs.empty());
  EXPECT_EQ(FJ.Report.PrunedPairs.size(), Off.Report.Pairs.size());
}

//===----------------------------------------------------------------------===//
// Barrier-phase pruning
//===----------------------------------------------------------------------===//

namespace {

/// Two workers; each writes g before the barrier and reads it after.
/// The write<->read pairs are phase-ordered; write<->write is not.
const char *BarrierPhaseSrc = "int g;\n"
                              "int tids[2];\n"
                              "barrier b(2);\n"
                              "void w(int id) {\n"
                              "  g = id;\n"
                              "  barrier_wait(b);\n"
                              "  int x = g;\n"
                              "  output(x);\n"
                              "}\n"
                              "int main() {\n"
                              "  int i;\n"
                              "  for (i = 0; i < 2; i++) {\n"
                              "    tids[i] = spawn(w, i);\n"
                              "  }\n"
                              "  for (i = 0; i < 2; i++) {\n"
                              "    join(tids[i]);\n"
                              "  }\n"
                              "  return 0;\n"
                              "}\n";

} // namespace

TEST(MhpBarrier, AlignedBarrierOrdersPhases) {
  Detected FJ = detect(BarrierPhaseSrc, MhpMode::ForkJoin);
  Detected Bar = detect(BarrierPhaseSrc, MhpMode::Barrier);

  // Fork/join alone cannot order accesses within the workers.
  ASSERT_FALSE(FJ.Report.Pairs.empty());

  // Barrier mode prunes the cross-phase write<->read pair but must keep
  // the same-phase write<->write self-race.
  EXPECT_LT(Bar.Report.Pairs.size(), FJ.Report.Pairs.size());
  EXPECT_GT(Bar.Report.Mhp.PrunedBarrier, 0u);
  ASSERT_FALSE(Bar.Report.Pairs.empty());
  bool SawWriteWrite = false;
  for (const race::RacePair &P : Bar.Report.Pairs)
    SawWriteWrite = SawWriteWrite || (P.A.IsWrite && P.B.IsWrite);
  EXPECT_TRUE(SawWriteWrite);
}

TEST(MhpBarrier, IntrospectionReportsAlignmentAndInstances) {
    auto M = test::compileOrNull(BarrierPhaseSrc, "t");
  analysis::CallGraph CG(*M);
  analysis::PointsTo PT(*M);
  MayHappenInParallel Mhp(*M, CG, PT, MhpMode::Barrier);

  uint32_t W = M->findFunction("w")->Index;
  // Two instances of w from the counted spawn loop; parties == 2, so the
  // barrier is aligned.
  EXPECT_EQ(Mhp.maxInstances(W), 2u);
  EXPECT_EQ(Mhp.maxInstances(M->MainFunction), 1u);
  ASSERT_EQ(M->Syncs.size(), 1u);
  EXPECT_TRUE(Mhp.barrierAligned(0));
}

TEST(MhpBarrier, OverSubscribedBarrierIsNotAligned) {
  // Four worker instances share a 2-party barrier: generations are no
  // longer global phases, so no barrier pruning is allowed.
  const char *Src = "int g;\n"
                    "int tids[4];\n"
                    "barrier b(2);\n"
                    "void w(int id) {\n"
                    "  g = id;\n"
                    "  barrier_wait(b);\n"
                    "  int x = g;\n"
                    "  output(x);\n"
                    "}\n"
                    "int main() {\n"
                    "  int i;\n"
                    "  for (i = 0; i < 4; i++) {\n"
                    "    tids[i] = spawn(w, i);\n"
                    "  }\n"
                    "  for (i = 0; i < 4; i++) {\n"
                    "    join(tids[i]);\n"
                    "  }\n"
                    "  return 0;\n"
                    "}\n";
    auto M = test::compileOrNull(Src, "t");
  analysis::CallGraph CG(*M);
  analysis::PointsTo PT(*M);
  MayHappenInParallel Mhp(*M, CG, PT, MhpMode::Barrier);
  EXPECT_FALSE(Mhp.barrierAligned(0));

  Detected Bar = detect(Src, MhpMode::Barrier);
  EXPECT_EQ(Bar.Report.Mhp.PrunedBarrier, 0u);
}

//===----------------------------------------------------------------------===//
// Workload precision and soundness
//===----------------------------------------------------------------------===//

namespace {

class MhpWorkloadSuite
    : public ::testing::TestWithParam<workloads::WorkloadKind> {};

} // namespace

TEST(MhpWorkloads, PrunesAtLeastTwentyPercentOnPhasedWorkloads) {
  // The acceptance target: >= 20% of static race pairs pruned on at
  // least two phase-structured workloads.
  using workloads::WorkloadKind;
  for (WorkloadKind Kind :
       {WorkloadKind::Pfscan, WorkloadKind::Water, WorkloadKind::Ocean}) {
    auto P = workloads::buildPipelineEx(Kind, 4);
    ASSERT_TRUE(P) << P.error().message();
    const race::RaceReport &R = (*P)->raceReport();
    EXPECT_EQ(R.Mhp.Mode, MhpMode::Barrier);
    ASSERT_GT(R.Mhp.PairsBefore, 0u);
    EXPECT_GE(prunedTotal(R) * 5, R.Mhp.PairsBefore)
        << workloads::workloadInfo(Kind).Name << ": pruned "
        << prunedTotal(R) << " of " << R.Mhp.PairsBefore;
  }
}

TEST_P(MhpWorkloadSuite, NoDynamicallyObservedRaceWasPruned) {
  // Soundness cross-check: every race the happens-before oracle observes
  // in real schedules of the *original* program must still be in the
  // static report — never in the pruned set.
  auto P = workloads::buildPipelineEx(GetParam(), 4);
  ASSERT_TRUE(P) << P.error().message();
  const race::RaceReport &R = (*P)->raceReport();

  std::set<uint64_t> PrunedKeys;
  for (const race::PrunedRace &Pruned : R.PrunedPairs)
    PrunedKeys.insert(Pruned.Pair.key());

  for (uint64_t Seed : {1u, 17u, 4242u}) {
    race::DynamicDetector Oracle(/*MaxRaces=*/512);
    rt::ExecutionResult Result = (*P)->runOriginalNative(Seed, &Oracle);
    ASSERT_TRUE(Result.Ok) << Result.Error;
    for (const race::DynamicRace &D : Oracle.races()) {
      race::RacePair Observed;
      Observed.A = {D.FuncA, D.InstA, D.WriteA};
      Observed.B = {D.FuncB, D.InstB, D.WriteB};
      EXPECT_EQ(PrunedKeys.count(Observed.key()), 0u)
          << "unsound prune: dynamically racy pair " << D.str()
          << " was removed by MHP";
    }
  }
}

TEST_P(MhpWorkloadSuite, StatsAreConsistent) {
  auto P = workloads::buildPipelineEx(GetParam(), 4);
  ASSERT_TRUE(P) << P.error().message();
  const race::RaceReport &R = (*P)->raceReport();
  EXPECT_EQ(R.Mhp.PairsBefore, R.Pairs.size() + R.PrunedPairs.size());
  EXPECT_EQ(R.Mhp.pruned(), R.PrunedPairs.size());
  EXPECT_EQ(R.Mhp.pairsAfter(), R.Pairs.size());

  // Off mode must report exactly the pre-pruning pair population.
  core::PipelineConfig Config;
  Config.Mhp = MhpMode::Off;
  auto Off = workloads::buildPipelineEx(GetParam(), 4, Config);
  ASSERT_TRUE(Off) << Off.error().message();
  const race::RaceReport &OffR = (*Off)->raceReport();
  EXPECT_EQ(OffR.Pairs.size(), R.Mhp.PairsBefore);
  EXPECT_TRUE(OffR.PrunedPairs.empty());
}

INSTANTIATE_TEST_SUITE_P(All, MhpWorkloadSuite,
                         ::testing::ValuesIn(workloads::allWorkloads()));

//===----------------------------------------------------------------------===//
// Determinism of pruned plans
//===----------------------------------------------------------------------===//

TEST(MhpDeterminism, PrunedPlansRecordAndReplayBitIdentically) {
  using workloads::WorkloadKind;
  for (WorkloadKind Kind : {WorkloadKind::Pfscan, WorkloadKind::Water}) {
    auto P1 = workloads::buildPipelineEx(Kind, 4);
    ASSERT_TRUE(P1) << P1.error().message();
    ASSERT_GT((*P1)->raceReport().PrunedPairs.size(), 0u);

    core::ChimeraPipeline::RecordReplayOutcome Outcome =
        (*P1)->recordAndReplay(7);
    ASSERT_TRUE(Outcome.Record.Ok) << Outcome.Record.Error;
    ASSERT_TRUE(Outcome.Replay.Ok) << Outcome.Replay.Error;
    EXPECT_TRUE(Outcome.Deterministic);
    EXPECT_EQ(Outcome.Record.StateHash, Outcome.Replay.StateHash);

    // A second, independently built pipeline over the same source must
    // produce a bit-identical log.
    auto P2 = workloads::buildPipelineEx(Kind, 4);
    ASSERT_TRUE(P2) << P2.error().message();
    rt::ExecutionResult R2 = (*P2)->record(7);
    ASSERT_TRUE(R2.Ok) << R2.Error;
    EXPECT_EQ(replay::encodeLog(Outcome.Record.Log),
              replay::encodeLog(R2.Log));
    EXPECT_EQ(Outcome.Record.StateHash, R2.StateHash);
  }
}
