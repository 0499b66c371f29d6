//===- examples/profile_cliques.cpp - Paper Figures 2 and 3, live ----------===//
//
// Shows the profiling optimization on our water workload: barrier-phased
// master-only functions (kineti / poteng / bndry, the analogue of the
// paper's interf/bndry example in Figure 2) are reported racy by RELAY
// but never run concurrently in any profile run, so clique analysis
// (Figure 3) groups them under shared function-locks.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "profile/CliqueAnalysis.h"
#include "workloads/Workloads.h"

#include <cstdio>

using namespace chimera;
using namespace chimera::workloads;

int main() {
  auto Built = buildPipelineEx(WorkloadKind::Water, 4);
  if (!Built) {
    std::fprintf(stderr, "build failed: %s\n",
                 Built.error().message().c_str());
    return 1;
  }
  std::unique_ptr<core::ChimeraPipeline> Pipeline = Built.take();
  const ir::Module &M = Pipeline->originalModule();

  // 1. RELAY's racy function pairs.
  const race::RaceReport &Races = Pipeline->raceReport();
  auto FuncPairs = Races.racyFunctionPairs();
  std::printf("=== RELAY: %zu race pairs across %zu racy function pairs "
              "===\n",
              Races.Pairs.size(), FuncPairs.size());
  for (auto [A, B] : FuncPairs)
    std::printf("  %s <-> %s\n", M.function(A).Name.c_str(),
                M.function(B).Name.c_str());

  // 2. Profiling: which racy functions ever ran concurrently?
  const profile::ProfileData &Profile = Pipeline->profileData();
  std::printf("\n=== profiling over up to %u runs: concurrency facts ===\n",
              Pipeline->config().ProfileRuns);
  std::vector<uint32_t> RacyFuncs;
  for (const auto &A : Races.racyInstructions())
    RacyFuncs.push_back(A.FuncId);
  profile::ConcurrencyGraph CG(RacyFuncs, Profile);
  for (uint32_t I = 0; I != CG.numNodes(); ++I) {
    uint32_t FI = CG.funcOf(I);
    std::printf("  %-12s self-concurrent: %-3s  non-concurrent with:",
                M.function(FI).Name.c_str(),
                CG.selfNonConcurrent(FI) ? "no" : "yes");
    for (uint32_t J = 0; J != CG.numNodes(); ++J)
      if (I != J && CG.graph().hasEdge(I, J))
        std::printf(" %s", M.function(CG.funcOf(J)).Name.c_str());
    std::printf("\n");
  }

  // 3. Clique lock assignment (paper Figure 3).
  std::printf("\n=== clique function-lock assignment ===\n");
  const auto &Plan = Pipeline->plan();
  std::printf("race pairs covered by function-locks: %llu of %llu\n",
              static_cast<unsigned long long>(Plan.PairsFunctionCovered),
              static_cast<unsigned long long>(Plan.PairsTotal));
  for (size_t Id = 0; Id != Plan.Locks.size(); ++Id) {
    if (Plan.Locks[Id].Granularity != ir::WeakLockGranularity::Function)
      continue;
    std::printf("  wl%-3zu %s — acquired at entry of:", Id,
                Plan.Locks[Id].Name.c_str());
    for (const auto &[FuncId, FP] : Plan.Functions)
      for (uint32_t Lock : FP.EntryLocks)
        if (Lock == Id)
          std::printf(" %s", M.function(FuncId).Name.c_str());
    std::printf("\n");
  }

  // 4. The payoff: record overhead with vs without the optimization.
  auto Native = Pipeline->runOriginalNative(2012);
  auto Full = Pipeline->record(2012);
  Pipeline->setPlannerOptions(instrument::PlannerOptions::loopOnly());
  auto NoFunc = Pipeline->record(2012);
  if (Native.Ok && Full.Ok && NoFunc.Ok) {
    double FullOv = double(Full.Stats.MakespanCycles) /
                    double(Native.Stats.MakespanCycles);
    double NoFuncOv = double(NoFunc.Stats.MakespanCycles) /
                      double(Native.Stats.MakespanCycles);
    std::printf("\n=== payoff on water ===\n");
    std::printf("record overhead with function-locks:    %.2fx\n", FullOv);
    std::printf("record overhead without function-locks: %.2fx\n",
                NoFuncOv);
  }
  return 0;
}
