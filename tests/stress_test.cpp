//===- tests/stress_test.cpp - Stress harness unit tests -------------------===//
//
// The harness has to be trustworthy before its verdicts mean anything:
// derivation is a pure function of (base seed, index), the Minimizer
// converges deterministically to a case that still fails the same way,
// repro files round-trip byte-exactly, and a pinned smoke campaign
// passes with a report that is identical for every job count.
//
//===----------------------------------------------------------------------===//

#include "stress/Stress.h"

#include "core/Pipeline.h"
#include "instrument/LockOrderAuditor.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

using namespace chimera;
using namespace chimera::stress;

namespace {

/// Field-complete equality via the repro format (it serializes every
/// TrialCase field, so equal text == equal case).
void expectCasesEqual(const TrialCase &A, const TrialCase &B) {
  EXPECT_EQ(formatRepro(A), formatRepro(B));
}

TrialCase miniCase(OracleKind Oracle) {
  TrialCase C;
  C.Oracle = Oracle;
  C.SourceName = miniSourceNames().front();
  C.Source = *miniSource(C.SourceName);
  C.Config.Name = C.SourceName;
  C.Config.ProfileRuns = 2;
  C.Config.ProfileCores = 2;
  C.Config.AnalysisJobs = 1;
  C.Config.NumCores = 2;
  return C;
}

} // namespace

//===----------------------------------------------------------------------===//
// Derivation
//===----------------------------------------------------------------------===//

TEST(Derivation, IsPureInBaseSeedAndIndex) {
  for (uint64_t I = 0; I < 24; ++I)
    expectCasesEqual(deriveCase(7, I), deriveCase(7, I));
}

TEST(Derivation, DifferentIndicesDiffer) {
  unsigned Distinct = 0;
  std::string First = formatRepro(deriveCase(1, 0));
  for (uint64_t I = 1; I < 16; ++I)
    Distinct += formatRepro(deriveCase(1, I)) != First;
  EXPECT_GT(Distinct, 12u);
}

TEST(Derivation, DerivedConfigsValidate) {
  for (uint64_t I = 0; I < 64; ++I) {
    TrialCase C = deriveCase(3, I);
    EXPECT_FALSE(bool(C.Config.validate())) << "index " << I;
    EXPECT_FALSE(C.Source.empty()) << "index " << I;
  }
}

TEST(Derivation, ReachesTheAdversarialCorners) {
  // The campaign only means something if the hostile regions actually
  // come up: tiny revocation-provoking timeouts, single-event
  // checkpoint cadence, unit dispatch batches, degenerate quanta.
  bool TinyTimeout = false, DenseCheckpoints = false, UnitBatch = false,
       UnitQuantum = false, Fault = false;
  for (uint64_t I = 0; I < 200; ++I) {
    TrialCase C = deriveCase(5, I);
    TinyTimeout |= C.Config.WeakLockTimeout <= 2000;
    DenseCheckpoints |= C.Config.CheckpointEvery == 1;
    UnitBatch |= C.Config.DispatchBatch == 1;
    UnitQuantum |= C.Config.QuantumMin == 1;
    Fault |= C.Fault.K != FaultSpec::Kind::None;
  }
  EXPECT_TRUE(TinyTimeout);
  EXPECT_TRUE(DenseCheckpoints);
  EXPECT_TRUE(UnitBatch);
  EXPECT_TRUE(UnitQuantum);
  EXPECT_TRUE(Fault);
}

TEST(Derivation, TinyTimeoutsActuallyRevoke) {
  // Guard against the fuzzer silently losing its sharpest tooth: the
  // cross-order catalog source under a tiny weak-lock timeout (with
  // the cyclic plan kept as planned — Audit, not Enforce) must
  // produce real revocation traffic in the recorded log. Revocations
  // only fire for genuinely stuck holders, so this needs the nested
  // cross-ordered guard regions; a flat racy loop can never revoke.
  TrialCase C = miniCase(OracleKind::RecordReplay);
  C.SourceName = "cross-order";
  C.Source = *miniSource(C.SourceName);
  C.Config.Name = C.SourceName;
  C.Config.WeakLockTimeout = 2000;
  C.Config.NumCores = 4;
  C.Config.LockOrder = analysis::LockOrderMode::Audit;
  auto P = core::ChimeraPipeline::create(
      {.Eval = C.Source, .Config = C.Config});
  ASSERT_TRUE(P.hasValue()) << P.error().message();
  auto R = (*P)->record(11);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GT(R.Stats.Revocations, 0u)
      << "tiny timeouts no longer provoke revocations — the stress "
         "campaign lost its revocation coverage";
  // And the very trial the campaign would run on this case still
  // holds its record/replay promise with revocations in the stream.
  TrialResult T = runTrial(C);
  EXPECT_TRUE(T.Passed) << T.Failure;
}

//===----------------------------------------------------------------------===//
// Trials
//===----------------------------------------------------------------------===//

TEST(Trial, RecordReplayPassesOnCatalogSource) {
  TrialResult R = runTrial(miniCase(OracleKind::RecordReplay));
  EXPECT_TRUE(R.Passed) << R.Failure;
  EXPECT_NE(R.RecordHash, 0u);
}

TEST(Trial, InvalidConfigFailsWithConfigClass) {
  TrialCase C = miniCase(OracleKind::RecordReplay);
  C.Config.QuantumMin = 0;
  TrialResult R = runTrial(C);
  ASSERT_FALSE(R.Passed);
  EXPECT_EQ(failureClass(R.Failure), "config");
}

TEST(Trial, ResultIsDeterministic) {
  TrialCase C = miniCase(OracleKind::StreamedLog);
  C.Config.SegmentBytes = 512;
  C.Config.CheckpointEvery = 3;
  TrialResult A = runTrial(C);
  TrialResult B = runTrial(C);
  EXPECT_EQ(A.Passed, B.Passed);
  EXPECT_EQ(A.Failure, B.Failure);
  EXPECT_EQ(A.RecordHash, B.RecordHash);
}

TEST(Trial, FaultApplicationIsExact) {
  std::vector<uint8_t> Bytes = {0x00, 0xff, 0x10};
  FaultSpec Flip{FaultSpec::Kind::FlipBit, /*Offset=*/9}; // bit 1 of byte 1
  applyFault(Bytes, Flip);
  EXPECT_EQ(Bytes, (std::vector<uint8_t>{0x00, 0xfd, 0x10}));
  FaultSpec Trunc{FaultSpec::Kind::Truncate, /*Offset=*/7}; // 7 % 3 == 1
  applyFault(Bytes, Trunc);
  EXPECT_EQ(Bytes, (std::vector<uint8_t>{0x00}));
  FaultSpec None;
  applyFault(Bytes, None);
  EXPECT_EQ(Bytes.size(), 1u);
}

//===----------------------------------------------------------------------===//
// Campaign-found regressions (each pinned from its minimized repro)
//===----------------------------------------------------------------------===//

TEST(Regression, PlanIsIndependentOfExecutionScheduleKnobs) {
  // Minimized from the 5000-seed campaign (base seed 101, trial 1095,
  // replay-perturbed on the apache workload): profiling leaked the
  // execution-only DispatchBatch/Quantum* knobs into its native runs,
  // so the instrumentation plan — and with it the module's weak-lock
  // table sizes — varied with the run schedule even though
  // planCacheKey excludes those knobs. A log recorded at the default
  // quantum then could not even be OPENED for replay by a pipeline
  // configured at quantum 1 ("replay log does not match this module"),
  // and a warm artifact cache could serve a plan cold compute would
  // not produce. Profiling must use a fixed schedule environment.
  auto Req =
      workloads::pipelineRequest(workloads::WorkloadKind::Apache, 2);
  core::PipelineConfig Base = Req.Config;
  Base.ProfileRuns = 2;
  Base.ProfileCores = 2;
  Base.ProfileSeedBase = 92001;
  Base.AnalysisJobs = 1;
  Base.NumCores = 1;

  core::PipelineConfig Perturbed = Base;
  Perturbed.QuantumMin = 1;
  Perturbed.QuantumMax = 1;
  Perturbed.DispatchBatch = 1;

  auto A = core::ChimeraPipeline::create(
      {Req.Eval, Req.Profile, Base, "regress-a"});
  auto B = core::ChimeraPipeline::create(
      {Req.Eval, Req.Profile, Perturbed, "regress-b"});
  ASSERT_TRUE(A.hasValue()) << A.error().message();
  ASSERT_TRUE(B.hasValue()) << B.error().message();

  // The plan itself must not vary with execution-only knobs...
  EXPECT_EQ(instrument::planFingerprint((*A)->plan()),
            instrument::planFingerprint((*B)->plan()));

  // ...so a log recorded under one schedule replays under the other.
  rt::ExecutionResult Rec = (*A)->record(1);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;
  rt::ExecutionResult Rep = (*B)->replay(Rec.Log);
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  EXPECT_EQ(Rep.StateHash, Rec.StateHash);
  EXPECT_EQ(Rep.Output, Rec.Output);

  // And the campaign trial that found it stays green.
  TrialCase C;
  C.Oracle = OracleKind::ReplayPerturbed;
  C.SourceName = "apache";
  C.Source = Req.Eval;
  C.Profile = Req.Profile;
  C.Config = Base;
  C.Config.Name = C.SourceName;
  C.AltDispatchBatch = 1;
  C.AltQuantumMin = 1;
  C.AltQuantumMax = 1;
  TrialResult R = runTrial(C);
  EXPECT_TRUE(R.Passed) << R.Failure;
}

//===----------------------------------------------------------------------===//
// Minimizer
//===----------------------------------------------------------------------===//

TEST(Minimizer, ConvergesToMinimalFailingKnobs) {
  // Synthetic predicate: the "bug" needs at least two simulated cores.
  TrialCase C = deriveCase(9, 4);
  C.Config.NumCores = 8;
  Minimizer::Stats S;
  TrialCase Min = Minimizer().minimize(
      C, [](const TrialCase &X) { return X.Config.NumCores >= 2; }, &S);
  EXPECT_EQ(Min.Config.NumCores, 2u);
  // Everything unrelated shrank to its floor.
  EXPECT_EQ(Min.Seed, 1u);
  EXPECT_EQ(Min.SourceName, miniSourceNames().front());
  EXPECT_EQ(Min.Config.DispatchBatch, 64u);
  EXPECT_EQ(Min.Config.WeakLockTimeout, 500'000'000u);
  EXPECT_GT(S.Tried, 0u);
  EXPECT_GT(S.Adopted, 0u);
  EXPECT_GE(S.Rounds, 2u);
}

TEST(Minimizer, ResultStillFailsThePredicate) {
  auto Pred = [](const TrialCase &X) {
    return X.Config.CheckpointEvery == 1 && X.Config.ReplayJobs >= 2;
  };
  TrialCase C = deriveCase(2, 0);
  C.Config.CheckpointEvery = 1;
  C.Config.ReplayJobs = 7;
  TrialCase Min = Minimizer().minimize(C, Pred);
  EXPECT_TRUE(Pred(Min));
  EXPECT_EQ(Min.Config.ReplayJobs, 2u); // predicate's floor, not 1
}

TEST(Minimizer, FaultOffsetDescendsLogarithmically) {
  TrialCase C = deriveCase(2, 1);
  C.Fault.K = FaultSpec::Kind::FlipBit;
  C.Fault.Offset = 1000;
  TrialCase Min = Minimizer().minimize(
      C, [](const TrialCase &X) { return X.Fault.Offset >= 7; });
  EXPECT_EQ(Min.Fault.Offset, 7u);
}

TEST(Minimizer, IsDeterministic) {
  auto Pred = [](const TrialCase &X) {
    return X.Config.WeakLockTimeout < 10'000 || X.Seed % 3 == 1;
  };
  TrialCase C = deriveCase(13, 2);
  C.Config.WeakLockTimeout = 500;
  Minimizer::Stats S1, S2;
  TrialCase A = Minimizer().minimize(C, Pred, &S1);
  TrialCase B = Minimizer().minimize(C, Pred, &S2);
  expectCasesEqual(A, B);
  EXPECT_EQ(S1.Tried, S2.Tried);
  EXPECT_EQ(S1.Adopted, S2.Adopted);
  EXPECT_EQ(S1.Rounds, S2.Rounds);
}

TEST(Minimizer, ShrinksRealTrialPreservingFailureClass) {
  // A config-validation failure is the cheapest genuine runTrial
  // failure: shrinking must keep the "config" class while simplifying
  // everything else down to the floor.
  TrialCase C = deriveCase(21, 3);
  C.Config.QuantumMin = 0; // invalid: every execution path rejects it
  TrialResult Original = runTrial(C);
  ASSERT_FALSE(Original.Passed);
  ASSERT_EQ(failureClass(Original.Failure), "config");

  Minimizer::Stats S;
  TrialCase Min =
      Minimizer().minimize(C, sameFailurePredicate(Original), &S);
  TrialResult After = runTrial(Min);
  ASSERT_FALSE(After.Passed);
  EXPECT_EQ(failureClass(After.Failure), "config");
  // The quantum knob carries the bug, so the quantum shrink step was
  // rejected; the independent knobs all reached their floors.
  EXPECT_EQ(Min.Config.QuantumMin, 0u);
  EXPECT_EQ(Min.Seed, 1u);
  EXPECT_EQ(Min.SourceName, miniSourceNames().front());
  EXPECT_EQ(Min.Config.NumCores, 1u);
}

//===----------------------------------------------------------------------===//
// Repro files
//===----------------------------------------------------------------------===//

TEST(Repro, RoundTripsEveryField) {
  for (uint64_t I = 0; I < 12; ++I) {
    TrialCase C = deriveCase(31, I);
    auto Back = parseRepro(formatRepro(C));
    ASSERT_TRUE(Back.hasValue()) << Back.error().message();
    expectCasesEqual(C, *Back);
  }
}

TEST(Repro, RoundTripsSourcesWithNewlinesByteExactly) {
  TrialCase C = miniCase(OracleKind::ParallelReplay);
  C.Profile = "int main() { return 0; }\n// trailing\n";
  C.Fault = {FaultSpec::Kind::Truncate, 0xdeadbeefull};
  C.AltDispatchBatch = 128;
  auto Back = parseRepro(formatRepro(C));
  ASSERT_TRUE(Back.hasValue()) << Back.error().message();
  EXPECT_EQ(Back->Source, C.Source);
  EXPECT_EQ(Back->Profile, C.Profile);
  expectCasesEqual(C, *Back);
}

TEST(Repro, FileRoundTrip) {
  TrialCase C = deriveCase(17, 5);
  std::string Path = ::testing::TempDir() + "chimera_stress_repro_rt.txt";
  ASSERT_FALSE(bool(writeReproFile(Path, C)));
  auto Back = readReproFile(Path);
  std::remove(Path.c_str());
  ASSERT_TRUE(Back.hasValue()) << Back.error().message();
  expectCasesEqual(C, *Back);
}

TEST(Repro, RejectsDamage) {
  TrialCase C = deriveCase(1, 1);
  std::string Text = formatRepro(C);
  EXPECT_FALSE(parseRepro("nonsense\n").hasValue());
  EXPECT_FALSE(parseRepro(Text + "mystery-key: 3\n").hasValue());
  // An oracle and a key that no longer exist get the typed errors.
  auto Oracle = parseRepro(Text + "oracle: poll-elision\n");
  ASSERT_FALSE(Oracle.hasValue());
  EXPECT_NE(Oracle.error().message().find("unknown oracle"), std::string::npos)
      << Oracle.error().message();
  auto Key = parseRepro(Text + "force-weak-polling: 1\n");
  ASSERT_FALSE(Key.hasValue());
  EXPECT_NE(Key.error().message().find("unknown key"), std::string::npos)
      << Key.error().message();
  // Truncating into the source block must not parse.
  EXPECT_FALSE(parseRepro(Text.substr(0, Text.size() / 2)).hasValue());
}

TEST(Repro, ParsedCaseRunsIdentically) {
  TrialCase C = miniCase(OracleKind::RecordReplay);
  auto Back = parseRepro(formatRepro(C));
  ASSERT_TRUE(Back.hasValue());
  TrialResult A = runTrial(C);
  TrialResult B = runTrial(*Back);
  EXPECT_EQ(A.Passed, B.Passed);
  EXPECT_EQ(A.RecordHash, B.RecordHash) << "repro round-trip changed the "
                                           "simulated execution";
}

//===----------------------------------------------------------------------===//
// Campaign
//===----------------------------------------------------------------------===//

TEST(Campaign, PinnedSmokeCampaignPasses) {
  CampaignOptions O;
  O.Seeds = 12;
  O.BaseSeed = 1;
  O.Jobs = 2;
  O.ReproDir = ""; // No artifacts from a passing run.
  CampaignReport R = runCampaign(O);
  EXPECT_EQ(R.Trials, 12u);
  EXPECT_TRUE(R.allPassed())
      << R.Failed << " trial(s) failed; first: "
      << (R.Failures.empty() ? std::string("?")
                             : R.Failures.front().Result.Failure);
  uint64_t Sum = 0;
  for (const auto &[Name, Count] : R.TrialsPerOracle)
    Sum += Count;
  EXPECT_EQ(Sum, 12u);
}

TEST(Campaign, ReportIsIdenticalForEveryJobCount) {
  CampaignOptions A;
  A.Seeds = 8;
  A.BaseSeed = 42;
  A.Jobs = 1;
  CampaignOptions B = A;
  B.Jobs = 3;
  CampaignReport RA = runCampaign(A);
  CampaignReport RB = runCampaign(B);
  EXPECT_EQ(RA.toJson(), RB.toJson());
}

TEST(Campaign, PublishesMetrics) {
  obs::Registry Reg;
  CampaignOptions O;
  O.Seeds = 4;
  O.BaseSeed = 3;
  O.Jobs = 1;
  O.Metrics = &Reg;
  CampaignReport R = runCampaign(O);
  obs::Snapshot Snap = Reg.snapshot();
  EXPECT_EQ(uint64_t(Snap.value("stress.trials", 0)), R.Trials);
  EXPECT_EQ(uint64_t(Snap.value("stress.passed", 0)), R.Passed);
  EXPECT_EQ(uint64_t(Snap.value("stress.failed", 0)), R.Failed);
}

TEST(Campaign, JsonReportIsWellFormedEnough) {
  CampaignOptions O;
  O.Seeds = 3;
  O.BaseSeed = 2;
  O.Jobs = 1;
  std::string Json = runCampaign(O).toJson();
  EXPECT_NE(Json.find("\"trials\": 3"), std::string::npos);
  EXPECT_NE(Json.find("\"per_oracle\""), std::string::npos);
  EXPECT_NE(Json.find("\"failures\""), std::string::npos);
}
