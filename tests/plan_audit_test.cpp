//===- tests/plan_audit_test.cpp - Static plan auditor tests ---------------===//
//
// The PlanAuditor must (a) pass every workload at all four Figure-5
// granularity configurations, and (b) reject deliberately corrupted
// plans — dropped guards, granularity mismatches, shrunk symbolic
// ranges — with a hard pipeline error that blocks instrumented runs.
//
//===----------------------------------------------------------------------===//

#include "instrument/PlanAuditor.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace chimera;
using namespace chimera::instrument;

namespace {

class AuditSuite : public ::testing::TestWithParam<workloads::WorkloadKind> {
};

const PlannerOptions FigureFiveConfigs[] = {
    PlannerOptions::naive(),
    PlannerOptions::functionOnly(),
    PlannerOptions::loopOnly(),
    PlannerOptions::full(),
};

} // namespace

TEST_P(AuditSuite, CleanAtEveryFigureFiveConfig) {
  auto P = workloads::buildPipelineEx(GetParam(), 4);
  ASSERT_TRUE(P) << P.error().message();
  for (const PlannerOptions &Opts : FigureFiveConfigs) {
    (*P)->setPlannerOptions(Opts);
    const AuditResult &Audit = (*P)->planAudit();
    EXPECT_TRUE(Audit.ok())
        << workloads::workloadInfo(GetParam()).Name
        << " failed audit: " << Audit.Failure.message();
    EXPECT_EQ(Audit.Stats.PairsChecked, (*P)->raceReport().Pairs.size());
  }
}

INSTANTIATE_TEST_SUITE_P(All, AuditSuite,
                         ::testing::ValuesIn(workloads::allWorkloads()));

TEST(PlanAudit, RejectsPlanWithDroppedGuards) {
  auto P = workloads::buildPipelineEx(workloads::WorkloadKind::Pfscan, 4);
  ASSERT_TRUE(P) << P.error().message();
  ASSERT_TRUE((*P)->planAudit().ok());

  // Drop every guard: the lock table still promises coverage, but no
  // acquire is ever emitted.
  (*P)->corruptPlanForTest(
      [](InstrumentationPlan &Plan) { Plan.Functions.clear(); });
  const AuditResult &Audit = (*P)->planAudit();
  ASSERT_FALSE(Audit.ok());
  EXPECT_NE(Audit.Failure.message().find("no weak-lock"), std::string::npos)
      << Audit.Failure.message();

  // The failure is a hard pipeline error for every instrumented run.
  rt::ExecutionResult R = (*P)->record(1);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("plan audit failed"), std::string::npos)
      << R.Error;
  rt::ExecutionResult N = (*P)->runInstrumentedNative(1);
  EXPECT_FALSE(N.Ok);
  core::ChimeraPipeline::RecordReplayOutcome Outcome =
      (*P)->recordAndReplay(1);
  EXPECT_FALSE(Outcome.Deterministic);
  // A failed recording must not read as race-free.
  EXPECT_NE((*P)->dynamicRaceCount(1), 0u);
}

TEST(PlanAudit, RejectsGranularityMismatch) {
  // pfscan's merge phases are clique-function-locked; lying about those
  // locks' granularity must be caught by the meta-vs-guards cross-check.
  auto P = workloads::buildPipelineEx(workloads::WorkloadKind::Pfscan, 4);
  ASSERT_TRUE(P) << P.error().message();
  (*P)->corruptPlanForTest([](InstrumentationPlan &Plan) {
    bool Corrupted = false;
    for (ir::WeakLockMeta &Meta : Plan.Locks)
      if (Meta.Granularity == ir::WeakLockGranularity::Function) {
        Meta.Granularity = ir::WeakLockGranularity::Instr;
        Corrupted = true;
      }
    ASSERT_TRUE(Corrupted) << "expected at least one function lock";
  });
  const AuditResult &Audit = (*P)->planAudit();
  ASSERT_FALSE(Audit.ok());
  EXPECT_NE(Audit.Failure.message().find("granularity"), std::string::npos)
      << Audit.Failure.message();
}

TEST(PlanAudit, RejectsShrunkSymbolicRange) {
  // radix's zeroing loop carries precise bounds (paper Fig. 4); raising
  // every guard's lower bound far above the derived access range must
  // fail the subsumption check.
  auto P = workloads::buildPipelineEx(workloads::WorkloadKind::Radix, 4);
  ASSERT_TRUE(P) << P.error().message();
  ASSERT_TRUE((*P)->planAudit().ok());
  ASSERT_GT((*P)->planAudit().Stats.RangedGuardsChecked, 0u);

  (*P)->corruptPlanForTest([](InstrumentationPlan &Plan) {
    bool Corrupted = false;
    for (auto &[FuncId, FP] : Plan.Functions)
      for (LoopGuard &G : FP.Loops)
        if (G.HasRange)
          for (bounds::AffineExpr &Lo : G.LoList) {
            Lo = Lo.addConst(1 << 20);
            Corrupted = true;
          }
    ASSERT_TRUE(Corrupted) << "expected at least one ranged guard";
  });
  const AuditResult &Audit = (*P)->planAudit();
  ASSERT_FALSE(Audit.ok());
  EXPECT_NE(Audit.Failure.message().find("subsume"), std::string::npos)
      << Audit.Failure.message();
}

TEST(PlanAudit, CorruptionHookResetsCleanly) {
  // Clearing the hook restores a clean audit (stage cells recompute).
  auto P = workloads::buildPipelineEx(workloads::WorkloadKind::Aget, 4);
  ASSERT_TRUE(P) << P.error().message();
  (*P)->corruptPlanForTest(
      [](InstrumentationPlan &Plan) { Plan.Functions.clear(); });
  EXPECT_FALSE((*P)->planAudit().ok());
  (*P)->corruptPlanForTest(nullptr);
  EXPECT_TRUE((*P)->planAudit().ok());
  rt::ExecutionResult R = (*P)->record(1);
  EXPECT_TRUE(R.Ok) << R.Error;
}
