//===- tests/profile_test.cpp - Profiler and clique analysis tests ---------===//

#include "TestUtil.h"
#include "codegen/CodeGen.h"
#include "profile/CliqueAnalysis.h"
#include "profile/Profiler.h"
#include "runtime/Machine.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace chimera;
using namespace chimera::profile;

namespace {

ProfileData profileSource(const std::string &Source, unsigned Runs = 5,
                          unsigned Cores = 4) {
    auto M = test::compileOrNull(Source, "t");
  ProfileData Data;
  for (unsigned Run = 0; Run != Runs; ++Run) {
    ConcurrencyProfiler Prof;
    rt::MachineOptions MO;
    MO.Seed = 1000 + Run;
    MO.NumCores = Cores;
    MO.Observer = &Prof;
    rt::Machine Machine(*M, MO);
    auto R = Machine.run();
    EXPECT_TRUE(R.Ok) << R.Error;
    Data.merge(Prof.finish());
  }
  return Data;
}

uint32_t fid(const std::string &Source, const std::string &Name) {
    auto M = test::compileOrNull(Source, "t");
  return M->findFunction(Name)->Index;
}

} // namespace

TEST(Profiler, ParallelWorkersAreConcurrent) {
  const char *Src =
      "int sink[4];\nint tids[4];\n"
      "void busy(int id) { int i; int s = 0; "
      "for (i = 0; i < 5000; i++) { s += i; } sink[id] = s; }\n"
      "int main() { int j; for (j = 0; j < 4; j++) { "
      "tids[j] = spawn(busy, j); } "
      "for (j = 0; j < 4; j++) { join(tids[j]); } return 0; }";
  ProfileData Data = profileSource(Src);
  uint32_t Busy = fid(Src, "busy");
  EXPECT_TRUE(Data.concurrent(Busy, Busy));
}

TEST(Profiler, BarrierSeparatedPhasesAreNotConcurrent) {
  const char *Src =
      "int x[8];\nbarrier b(2);\nint tids[2];\n"
      "void pa() { int i; for (i = 0; i < 500; i++) { x[0] += i; } }\n"
      "void pb() { int i; for (i = 0; i < 500; i++) { x[1] += i; } }\n"
      "void w(int id) { if (id == 0) { pa(); } barrier_wait(b); "
      "if (id == 1) { pb(); } }\n"
      "int main() { tids[0] = spawn(w, 0); tids[1] = spawn(w, 1); "
      "join(tids[0]); join(tids[1]); return 0; }";
  ProfileData Data = profileSource(Src, 10);
  uint32_t Pa = fid(Src, "pa"), Pb = fid(Src, "pb");
  EXPECT_FALSE(Data.concurrent(Pa, Pb));
  EXPECT_FALSE(Data.concurrent(Pa, Pa));
  EXPECT_FALSE(Data.concurrent(Pb, Pb));
}

TEST(Profiler, InitVsWorkerNotConcurrent) {
  const char *Src =
      "int cfg[8];\nint out[2];\nint tids[2];\n"
      "void init() { int i; for (i = 0; i < 8; i++) { cfg[i] = i; } }\n"
      "void w(int id) { out[id] = cfg[id]; }\n"
      "int main() { init(); tids[0] = spawn(w, 0); tids[1] = spawn(w, 1); "
      "join(tids[0]); join(tids[1]); return 0; }";
  ProfileData Data = profileSource(Src, 10);
  EXPECT_FALSE(Data.concurrent(fid(Src, "init"), fid(Src, "w")));
}

TEST(Profiler, NestedCalleeCountsAsActive) {
  // While `inner` runs on thread A, its caller `outer` is still on the
  // stack — both must register as concurrent with thread B's function.
  const char *Src =
      "int sink[4];\nint tids[2];\n"
      "void inner(int id) { int i; for (i = 0; i < 4000; i++) { "
      "sink[id] += i; } }\n"
      "void outer(int id) { inner(id); }\n"
      "int main() { tids[0] = spawn(outer, 0); tids[1] = spawn(outer, 1); "
      "join(tids[0]); join(tids[1]); return 0; }";
  ProfileData Data = profileSource(Src, 5);
  uint32_t Outer = fid(Src, "outer"), Inner = fid(Src, "inner");
  EXPECT_TRUE(Data.concurrent(Outer, Outer));
  EXPECT_TRUE(Data.concurrent(Inner, Inner));
  EXPECT_TRUE(Data.concurrent(Outer, Inner));
}

TEST(Profiler, MergeAccumulatesAcrossRuns) {
  ProfileData A, B;
  A.ConcurrentPairs.insert({1, 2});
  B.ConcurrentPairs.insert({2, 3});
  A.merge(B);
  EXPECT_EQ(A.numPairs(), 2u);
  EXPECT_TRUE(A.concurrent(3, 2)); // Order-insensitive.
}

//===----------------------------------------------------------------------===//
// Clique analysis (paper §4.2, Figure 3)
//===----------------------------------------------------------------------===//

namespace {

/// Builds the paper's Figure 3 scenario directly: functions 0..3 =
/// alice, bob, carol, dave.
struct Fig3 {
  ProfileData Profile;
  std::vector<std::pair<uint32_t, uint32_t>> RacyPairs;

  Fig3() {
    // Concurrent pairs: bob-dave (dotted+concurrent), everything else
    // among {alice,bob,carol} and carol-dave non-concurrent. A pair is
    // non-concurrent iff absent from the set; list the concurrent ones.
    Profile.ConcurrentPairs.insert({1, 3}); // bob ∥ dave.
    // alice-dave concurrent too (not an edge in Fig 3c).
    Profile.ConcurrentPairs.insert({0, 3});
    // Racy pairs: alice-bob, alice-carol, bob-dave.
    RacyPairs = {{0, 1}, {0, 2}, {1, 3}};
  }
};

} // namespace

namespace {

struct ProfiledRun {
  ProfileData Data;
  uint64_t StateHash = 0;
  uint64_t MakespanCycles = 0;
};

ProfiledRun profileRun(const ir::Module &M, unsigned Cores, unsigned Batch,
                       uint64_t Seed) {
  ConcurrencyProfiler Prof;
  rt::MachineOptions MO;
  MO.Seed = Seed;
  MO.NumCores = Cores;
  MO.DispatchBatch = Batch;
  MO.Observer = &Prof;
  rt::ExecutionResult R = rt::Machine(M, MO).run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return {Prof.finish(), R.StateHash, R.Stats.MakespanCycles};
}

} // namespace

// The profile stage runs with an observer attached, so its chunks go
// through execFast's observed instantiation. The pipeline pins the
// profile stage at the default batch, so this is the only check that
// the planner's input does not depend on the batch size.
TEST(Profiler, ProfileDataIsBatchInvariantOnEveryWorkload) {
  const uint64_t Seed = core::PipelineConfig().ProfileSeedBase;
  for (workloads::WorkloadKind K : workloads::allWorkloads()) {
    const char *Name = workloads::workloadInfo(K).Name;
    core::PipelineRequest Req = workloads::pipelineRequest(K, 4);
    auto M = test::compileOrNull(Req.Profile.empty() ? Req.Eval : Req.Profile,
                                 Name);
    ASSERT_NE(M, nullptr) << Name;
    for (unsigned Cores : {2u, 8u}) {
      ProfiledRun One = profileRun(*M, Cores, 1, Seed);
      ProfiledRun Many = profileRun(*M, Cores, 64, Seed);
      EXPECT_EQ(One.Data.ConcurrentPairs, Many.Data.ConcurrentPairs)
          << Name << " on " << Cores << " cores";
      EXPECT_EQ(One.StateHash, Many.StateHash) << Name << " on " << Cores;
      EXPECT_EQ(One.MakespanCycles, Many.MakespanCycles)
          << Name << " on " << Cores << " cores";
    }
  }
}

TEST(Cliques, Figure3Assignment) {
  Fig3 Fx;
  ConcurrencyGraph CG({0, 1, 2, 3}, Fx.Profile);
  CliqueResult Result = assignFunctionLocks(Fx.RacyPairs, CG);

  // alice-bob and alice-carol share one function-lock (the
  // {alice,bob,carol} clique); bob-dave stays uncovered (concurrent).
  ASSERT_EQ(Result.Locks.size(), 1u);
  const FunctionLockPlan &Lock = Result.Locks[0];
  EXPECT_EQ(Lock.CoveredPairs.size(), 2u);
  EXPECT_EQ(Lock.Acquirers, (std::vector<uint32_t>{0, 1, 2}));
  ASSERT_EQ(Result.Uncovered.size(), 1u);
  EXPECT_EQ(Result.Uncovered[0], (std::pair<uint32_t, uint32_t>{1, 3}));
}

TEST(Cliques, SelfPairNeedsSelfNonConcurrency) {
  ProfileData Profile; // Nothing concurrent.
  ConcurrencyGraph CG({5}, Profile);
  auto Result = assignFunctionLocks({{5, 5}}, CG);
  ASSERT_EQ(Result.Locks.size(), 1u);
  EXPECT_EQ(Result.Locks[0].Acquirers, (std::vector<uint32_t>{5}));

  ProfileData SelfConc;
  SelfConc.ConcurrentPairs.insert({5, 5});
  ConcurrencyGraph CG2({5}, SelfConc);
  auto Result2 = assignFunctionLocks({{5, 5}}, CG2);
  EXPECT_TRUE(Result2.Locks.empty());
  EXPECT_EQ(Result2.Uncovered.size(), 1u);
}

TEST(Cliques, PairInTwoCliquesPicksBusierOne) {
  // Functions 0-1-2 form a clique; 2-3 a second. Pair (2,3) and pairs
  // (0,1),(0,2),(1,2) — the triangle clique covers more pairs, so pair
  // (0,2) lands there even though node 2 is in both cliques.
  ProfileData Profile;
  Profile.ConcurrentPairs.insert({0, 3});
  Profile.ConcurrentPairs.insert({1, 3});
  ConcurrencyGraph CG({0, 1, 2, 3}, Profile);
  auto Result = assignFunctionLocks({{0, 1}, {0, 2}, {1, 2}, {2, 3}}, CG);
  ASSERT_EQ(Result.Locks.size(), 2u);
  // One lock covers the three triangle pairs, the other covers (2,3).
  size_t Covered3 = 0, Covered1 = 0;
  for (const auto &L : Result.Locks) {
    if (L.CoveredPairs.size() == 3)
      ++Covered3;
    if (L.CoveredPairs.size() == 1)
      ++Covered1;
  }
  EXPECT_EQ(Covered3, 1u);
  EXPECT_EQ(Covered1, 1u);
  EXPECT_EQ(Result.Covered.size(), 4u);
}

TEST(Cliques, ConcurrentPairNotCoverable) {
  ProfileData Profile;
  Profile.ConcurrentPairs.insert({0, 1});
  ConcurrencyGraph CG({0, 1}, Profile);
  auto Result = assignFunctionLocks({{0, 1}}, CG);
  EXPECT_TRUE(Result.Locks.empty());
  EXPECT_EQ(Result.Uncovered.size(), 1u);
}

TEST(Cliques, OneLockReducesAcquisitions) {
  // The Fig 3(a)->(b) point: without cliques alice would take two locks;
  // with cliques the covering lock set for alice is exactly one.
  Fig3 Fx;
  ConcurrencyGraph CG({0, 1, 2, 3}, Fx.Profile);
  CliqueResult Result = assignFunctionLocks(Fx.RacyPairs, CG);
  unsigned LocksForAlice = 0;
  for (const auto &L : Result.Locks)
    for (uint32_t F : L.Acquirers)
      if (F == 0)
        ++LocksForAlice;
  EXPECT_EQ(LocksForAlice, 1u);
}
