//===- tests/pipeline_test.cpp - End-to-end pipeline API -------------------===//

#include "TestUtil.h"
#include "core/Pipeline.h"

#include <gtest/gtest.h>

#include <thread>

using namespace chimera;
using namespace chimera::core;

namespace {

const char *Src =
    "int c;\nint a[32];\nint tids[2];\n"
    "void w(int* base, int n) { int i; for (i = 0; i < n; i++) { "
    "base[i] = i; c = c + 1; } }\n"
    "int main() { tids[0] = spawn(w, &a[0], 16); "
    "tids[1] = spawn(w, &a[16], 16); join(tids[0]); join(tids[1]); "
    "output(c); return 0; }";

PipelineConfig config() {
  PipelineConfig C;
  C.Name = "pipe";
  C.ProfileRuns = 4;
  return C;
}

std::unique_ptr<ChimeraPipeline> build(PipelineConfig C) {
  auto P = ChimeraPipeline::create({.Eval = Src, .Config = std::move(C)});
  EXPECT_TRUE(P) << (P ? "" : P.error().message());
  return P ? P.take() : nullptr;
}

} // namespace

TEST(Pipeline, RejectsBadSource) {
  auto P = ChimeraPipeline::create({.Eval = "int main(", .Config = config()});
  EXPECT_FALSE(P);
  EXPECT_FALSE(P.error().message().empty());
}

TEST(Pipeline, RejectsMismatchedProfileSource) {
  auto P = ChimeraPipeline::create(
      {.Eval = Src, .Profile = "int main() { return 0; }", .Config = config()});
  ASSERT_FALSE(P);
  EXPECT_NE(P.error().message().find("shape"), std::string::npos);
}

TEST(Pipeline, RejectsInvalidConfig) {
  PipelineConfig C = config();
  C.AnalysisJobs = 100000;
  auto P = ChimeraPipeline::create({.Eval = Src, .Config = C});
  ASSERT_FALSE(P);
  EXPECT_NE(P.error().message().find("AnalysisJobs"), std::string::npos);

  C = config();
  C.ProfileRuns = 0;
  auto P2 = ChimeraPipeline::create({.Eval = Src, .Config = C});
  ASSERT_FALSE(P2);
  EXPECT_NE(P2.error().message().find("ProfileRuns"), std::string::npos);
}

TEST(Pipeline, CompileErrorCarriesDiagnostics) {
  auto Bad = ChimeraPipeline::create({.Eval = "int main(", .Config = config()});
  ASSERT_FALSE(Bad);
  EXPECT_FALSE(Bad.error().message().empty());
  auto Good = ChimeraPipeline::create({.Eval = Src, .Config = config()});
  ASSERT_TRUE(Good.hasValue()) << (Good ? "" : Good.error().message());
  EXPECT_FALSE((*Good)->raceReport().Pairs.empty());
}

TEST(Pipeline, EmptyProfileSourceMeansSameSource) {
  auto P = ChimeraPipeline::create({.Eval = Src, .Config = config()});
  ASSERT_TRUE(P) << P.error().message();
  EXPECT_FALSE((*P)->raceReport().Pairs.empty());
}

TEST(Pipeline, StagesAreCachedAcrossCalls) {
  auto P = build(config());
  ASSERT_NE(P, nullptr);
  const auto &R1 = P->raceReport();
  const auto &R2 = P->raceReport();
  EXPECT_EQ(&R1, &R2);
  const auto &I1 = P->instrumentedModule();
  const auto &I2 = P->instrumentedModule();
  EXPECT_EQ(&I1, &I2);
}

TEST(Pipeline, ConcurrentStageAccessComputesOnce) {
  auto P = build(config());
  ASSERT_NE(P, nullptr);
  const race::RaceReport *Seen[4] = {};
  {
    std::vector<std::thread> Threads;
    for (int I = 0; I != 4; ++I)
      Threads.emplace_back(
          [&, I] { Seen[I] = &P->raceReport(); });
    for (auto &T : Threads)
      T.join();
  }
  for (int I = 1; I != 4; ++I)
    EXPECT_EQ(Seen[I], Seen[0]);
}

TEST(Pipeline, ParallelAnalysisIsDeterministic) {
  // The tentpole guarantee: race report, profile data, and plan are
  // byte-identical whether the analysis runs serially or on 8 workers.
  PipelineConfig Serial = config();
  Serial.AnalysisJobs = 1;
  PipelineConfig Parallel = config();
  Parallel.AnalysisJobs = 8;

  auto P1 = build(Serial);
  auto P8 = build(Parallel);
  ASSERT_NE(P1, nullptr);
  ASSERT_NE(P8, nullptr);

  EXPECT_EQ(P1->raceReport().str(P1->originalModule()),
            P8->raceReport().str(P8->originalModule()));
  EXPECT_EQ(P1->profileData().ConcurrentPairs,
            P8->profileData().ConcurrentPairs);
  EXPECT_EQ(P1->plan().summary(P1->originalModule()),
            P8->plan().summary(P8->originalModule()));
}

TEST(Pipeline, SetPlannerOptionsInvalidatesPlan) {
  auto P = build(config());
  ASSERT_NE(P, nullptr);
  uint64_t FullLocks = P->plan().Locks.size();
  uint64_t FullWeakOps = P->record(3).Stats.weakAcquiresTotal();

  P->setPlannerOptions(instrument::PlannerOptions::naive());
  uint64_t NaiveWeakOps = P->record(3).Stats.weakAcquiresTotal();
  EXPECT_GE(NaiveWeakOps, FullWeakOps);

  P->setPlannerOptions(instrument::PlannerOptions::full());
  EXPECT_EQ(P->plan().Locks.size(), FullLocks);
}

TEST(Pipeline, DynamicRaceCountZeroWhenInstrumented) {
  auto P = build(config());
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(P->dynamicRaceCount(9), 0u);
}

TEST(Pipeline, RecordAndReplayRoundTrip) {
  auto P = build(config());
  ASSERT_NE(P, nullptr);
  auto Out = P->recordAndReplay(77);
  EXPECT_TRUE(Out.Deterministic)
      << Out.Record.Error << " / " << Out.Replay.Error;
  EXPECT_EQ(Out.Record.Output, Out.Replay.Output);
}

TEST(Pipeline, InstrumentedNativeRunWorks) {
  auto P = build(config());
  ASSERT_NE(P, nullptr);
  auto R = P->runInstrumentedNative(4);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.Stats.weakAcquiresTotal(), 0u);
  EXPECT_EQ(R.Stats.LogEvents, 0u); // Native mode does not log.
}

TEST(Pipeline, ObserverReceivesEventsDuringRecord) {
  struct Counter : rt::ExecutionObserver {
    uint64_t Mem = 0, Sync = 0, Weak = 0;
    void onMemoryAccess(uint32_t, uint64_t, bool, uint32_t, ir::InstId,
                        uint64_t) override {
      ++Mem;
    }
    void onSync(uint32_t, rt::ObservedSync, uint32_t, uint64_t,
                uint64_t) override {
      ++Sync;
    }
    void onWeak(uint32_t, bool, uint32_t, bool, uint64_t, uint64_t,
                uint64_t) override {
      ++Weak;
    }
  };
  auto P = build(config());
  ASSERT_NE(P, nullptr);
  Counter Obs;
  auto R = P->record(6, &Obs);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(Obs.Mem, 0u);
  EXPECT_GT(Obs.Weak, 0u);
  EXPECT_EQ(Obs.Mem, R.Stats.MemOps);
  EXPECT_EQ(Obs.Weak,
            R.Stats.weakAcquiresTotal() * 2); // Acquires + releases.
}

// Profile run r has seed ProfileSeedBase + r and cycles through
// ProfileCores, 2, 4, 8 cores; the profile stage and bench/paper's
// profile-run study both take their runs from here.
TEST(PipelineProfile, RunSequence) {
  PipelineConfig C;
  C.ProfileCores = 6;
  const unsigned Cores[] = {6, 2, 4, 8, 6, 2};
  for (unsigned Run = 0; Run != 6; ++Run) {
    EXPECT_EQ(C.profileRun(Run).Seed, C.ProfileSeedBase + Run);
    EXPECT_EQ(C.profileRun(Run).Cores, Cores[Run]);
  }
}

// A faulting profile run is a typed error that names the lowest failing
// run, the same for every AnalysisJobs; the plan stage and every
// instrumented execution return it.
TEST(PipelineProfile, FailedRunIsATypedError) {
  const std::string Expected = "profile run 0 (seed 90001, 8 cores) failed: "
                               "invalid store address in main";
  const std::string Source = test::apacheWithInvalidStore();
  for (unsigned Jobs : {1u, 8u}) {
    PipelineConfig C;
    C.AnalysisJobs = Jobs;
    auto P = ChimeraPipeline::create({.Eval = Source, .Config = C});
    ASSERT_TRUE(P) << P.error().message();
    const support::Error &E = (*P)->profileError();
    ASSERT_TRUE(bool(E)) << Jobs << " jobs";
    EXPECT_EQ(E.message().rfind(Expected, 0), 0u) << E.message();
    rt::ExecutionResult Rec = (*P)->record(7);
    EXPECT_FALSE(Rec.Ok);
    EXPECT_EQ(Rec.Error, E.message());
  }
}

// With the function-lock optimization off the planner ignores the
// profile, so no profile runs are made and none can fail.
TEST(PipelineProfile, UnusedProfileIsNotRun) {
  PipelineConfig C;
  C.Planner.UseFunctionLocks = false;
  auto P = ChimeraPipeline::create({.Eval = test::apacheWithInvalidStore(),
                                    .Config = C});
  ASSERT_TRUE(P) << P.error().message();
  EXPECT_FALSE(bool((*P)->profileError()));
}
