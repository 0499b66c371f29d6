//===- tests/lockorder_test.cpp - Whole-program lock-order analysis --------===//
//
// ISSUE 8 tentpole contract: the LockOrderGraph finds genuine
// deadlock-potential cycles among planned weak-locks and prints witness
// chains; enforce mode repairs them by coalescing until the re-audit
// proves acyclicity; certified plans record revocation-free with the
// weak-timeout poll running and replay bit-identically; lying
// certificates (forged or stale) hard-gate every instrumented
// execution; and forced revocations under tiny timeouts record and
// replay deterministically, sequentially and in parallel.

#include "core/Pipeline.h"
#include "replay/LogReader.h"
#include "replay/ParallelReplayer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

using namespace chimera;

namespace {

// Two workers with inverted nesting over data-dependent indices. The
// data-dependent subscripts defeat the bounds analysis, so the planner
// emits unranged loop guards: w1 holds its outer x-locks while acquiring
// the y-locks in the inner loop, w2 the mirror image — a genuine
// may-be-held-while-acquiring cycle. The outer loops are long enough
// that profiling sees the workers concurrent (short loops degrade to
// function-covered pairs, whose entry locks cannot cycle).
const char *CyclicTwoLock =
    "int x[8];\nint y[8];\nint k[2];\n"
    "int w1() { int i = 0; while (i < 300) { int t = k[0]; "
    "x[t] = x[t] + 1; int j = 0; while (j < 4) { int u = k[1]; "
    "y[u] = y[u] + 1; j = j + 1; } i = i + 1; } return 0; }\n"
    "int w2() { int i = 0; while (i < 300) { int t = k[1]; "
    "y[t] = y[t] + 1; int j = 0; while (j < 4) { int u = k[0]; "
    "x[u] = x[u] + 1; j = j + 1; } i = i + 1; } return 0; }\n"
    "int main() { int t1 = spawn(w1); int t2 = spawn(w2); "
    "join(t1); join(t2); output(x[0] + y[0]); return 0; }";

// Rock-paper-scissors over three arrays: w1 holds x while acquiring y,
// w2 holds y while acquiring z, w3 holds z while acquiring x.
const char *CyclicThreeWay =
    "int x[8];\nint y[8];\nint z[8];\nint k[3];\n"
    "int w1() { int i = 0; while (i < 200) { int t = k[0]; "
    "x[t] = x[t] + 1; int j = 0; while (j < 3) { int u = k[1]; "
    "y[u] = y[u] + 1; j = j + 1; } i = i + 1; } return 0; }\n"
    "int w2() { int i = 0; while (i < 200) { int t = k[1]; "
    "y[t] = y[t] + 1; int j = 0; while (j < 3) { int u = k[2]; "
    "z[u] = z[u] + 1; j = j + 1; } i = i + 1; } return 0; }\n"
    "int w3() { int i = 0; while (i < 200) { int t = k[2]; "
    "z[t] = z[t] + 1; int j = 0; while (j < 3) { int u = k[0]; "
    "x[u] = x[u] + 1; j = j + 1; } i = i + 1; } return 0; }\n"
    "int main() { int t1 = spawn(w1); int t2 = spawn(w2); "
    "int t3 = spawn(w3); join(t1); join(t2); join(t3); "
    "output(x[0] + y[0] + z[0]); return 0; }";

// The two-lock cycle with doubled crowds: two threads per role, so
// revocation victims and beneficiaries contend in larger groups.
const char *CyclicCrowd =
    "int x[8];\nint y[8];\nint k[2];\n"
    "int w1() { int i = 0; while (i < 150) { int t = k[0]; "
    "x[t] = x[t] + 1; int j = 0; while (j < 4) { int u = k[1]; "
    "y[u] = y[u] + 1; j = j + 1; } i = i + 1; } return 0; }\n"
    "int w2() { int i = 0; while (i < 150) { int t = k[1]; "
    "y[t] = y[t] + 1; int j = 0; while (j < 4) { int u = k[0]; "
    "x[u] = x[u] + 1; j = j + 1; } i = i + 1; } return 0; }\n"
    "int main() { int a = spawn(w1); int b = spawn(w2); "
    "int c = spawn(w1); int d = spawn(w2); "
    "join(a); join(b); join(c); join(d); "
    "output(x[0] + y[0]); return 0; }";

// No lock is ever held while acquiring another: plain racy counter.
const char *AcyclicCounter =
    "int c;\nint tids[4];\n"
    "void w(int n) { int i; for (i = 0; i < n; i++) { int t = c; "
    "c = t + 1; } }\n"
    "int main() { int j; for (j = 0; j < 4; j++) { "
    "tids[j] = spawn(w, 200); } for (j = 0; j < 4; j++) { "
    "join(tids[j]); } output(c); return 0; }";

std::unique_ptr<core::ChimeraPipeline>
pipelineFor(const char *Source, analysis::LockOrderMode Mode,
            uint64_t Timeout = 1000,
            obs::ObsMode Obs = obs::ObsMode::Off) {
  core::PipelineConfig Config;
  Config.ProfileRuns = 5;
  Config.SegmentBytes = 512;
  Config.CheckpointEvery = 64;
  Config.WeakLockTimeout = Timeout;
  Config.LockOrder = Mode;
  Config.Observability = Obs;
  auto P = core::ChimeraPipeline::create({.Eval = Source, .Config = Config});
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().message());
  return P ? P.take() : nullptr;
}

void expectLogsEqual(const rt::ExecutionLog &A, const rt::ExecutionLog &B) {
  EXPECT_EQ(A.NumSyncObjects, B.NumSyncObjects);
  EXPECT_EQ(A.NumWeakLocks, B.NumWeakLocks);
  EXPECT_EQ(A.NumThreads, B.NumThreads);
  ASSERT_EQ(A.PerObject.size(), B.PerObject.size());
  for (size_t Obj = 0; Obj != A.PerObject.size(); ++Obj)
    EXPECT_EQ(A.PerObject[Obj], B.PerObject[Obj]) << "object " << Obj;
  ASSERT_EQ(A.PerThreadInputs.size(), B.PerThreadInputs.size());
  for (size_t Tid = 0; Tid != A.PerThreadInputs.size(); ++Tid) {
    ASSERT_EQ(A.PerThreadInputs[Tid].size(), B.PerThreadInputs[Tid].size());
    for (size_t I = 0; I != A.PerThreadInputs[Tid].size(); ++I) {
      EXPECT_EQ(A.PerThreadInputs[Tid][I].Kind,
                B.PerThreadInputs[Tid][I].Kind);
      EXPECT_EQ(A.PerThreadInputs[Tid][I].Value,
                B.PerThreadInputs[Tid][I].Value);
    }
  }
  ASSERT_EQ(A.Revocations.size(), B.Revocations.size());
  for (size_t I = 0; I != A.Revocations.size(); ++I) {
    EXPECT_EQ(A.Revocations[I].Tid, B.Revocations[I].Tid) << "rev " << I;
    EXPECT_EQ(A.Revocations[I].LockId, B.Revocations[I].LockId)
        << "rev " << I;
    EXPECT_EQ(A.Revocations[I].Instret, B.Revocations[I].Instret)
        << "rev " << I;
  }
}

std::vector<uint8_t> recordBytes(core::ChimeraPipeline &P,
                                 const std::string &Name, uint64_t Seed,
                                 uint64_t *RevocationsOut = nullptr) {
  std::string Path = ::testing::TempDir() + "chimera_lo_" + Name + ".clg";
  auto R = P.recordStreamed(Path, Seed);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().message());
  if (R && RevocationsOut)
    *RevocationsOut = R->Stats.Revocations;
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::vector<uint8_t> Bytes{std::istreambuf_iterator<char>(In),
                             std::istreambuf_iterator<char>()};
  In.close();
  std::remove(Path.c_str());
  return Bytes;
}

replay::LogReader openReader(std::vector<uint8_t> Bytes) {
  auto Reader =
      replay::LogReader::open(std::move(Bytes), replay::LogReader::Options());
  EXPECT_TRUE(Reader.hasValue()) << (Reader ? "" : Reader.error().message());
  return Reader.take();
}

} // namespace

//===----------------------------------------------------------------------===//
// Static analysis: cycle detection, witness chains, certificates
//===----------------------------------------------------------------------===//

TEST(LockOrder, AuditFindsCycleWithWitnessChain) {
  auto P = pipelineFor(CyclicTwoLock, analysis::LockOrderMode::Audit);
  ASSERT_TRUE(P);
  const instrument::LockOrderAuditResult &A = P->lockOrderAudit();
  // Audit mode reports but does not reject cyclic plans.
  EXPECT_TRUE(A.ok()) << A.Failure.message();
  EXPECT_FALSE(A.Certified);
  EXPECT_GE(A.Stats.CyclesFeasible, 1u);
  EXPECT_NE(A.Report.find("cycle"), std::string::npos) << A.Report;
  EXPECT_NE(A.Report.find("while acquiring"), std::string::npos) << A.Report;

  const instrument::InstrumentationPlan &Plan = P->plan();
  EXPECT_TRUE(Plan.Certificate.Present);
  EXPECT_FALSE(Plan.Certificate.Acyclic);
  EXPECT_GE(Plan.Certificate.CyclesFound, 1u);
  EXPECT_EQ(Plan.Certificate.CoalescedLocks, 0u);
}

TEST(LockOrder, AcyclicProgramCertifiedUnderAudit) {
  auto P = pipelineFor(AcyclicCounter, analysis::LockOrderMode::Audit);
  ASSERT_TRUE(P);
  const instrument::LockOrderAuditResult &A = P->lockOrderAudit();
  EXPECT_TRUE(A.ok()) << A.Failure.message();
  EXPECT_TRUE(A.Certified);
  EXPECT_NE(A.Report.find("acyclic"), std::string::npos) << A.Report;
  EXPECT_TRUE(P->plan().Certificate.Acyclic);
}

TEST(LockOrder, OffModeCarriesNoCertificate) {
  auto P = pipelineFor(CyclicTwoLock, analysis::LockOrderMode::Off);
  ASSERT_TRUE(P);
  EXPECT_FALSE(P->plan().Certificate.Present);
  EXPECT_TRUE(P->lockOrderAudit().ok());
  EXPECT_FALSE(P->lockOrderAudit().Certified);
}

TEST(LockOrder, EnforceRepairsCycleByCoalescing) {
  auto P = pipelineFor(CyclicTwoLock, analysis::LockOrderMode::Enforce);
  ASSERT_TRUE(P);
  const instrument::InstrumentationPlan &Plan = P->plan();
  EXPECT_TRUE(Plan.Certificate.Present);
  EXPECT_TRUE(Plan.Certificate.Acyclic);
  EXPECT_GE(Plan.Certificate.CyclesFound, 1u);
  EXPECT_GE(Plan.Certificate.CoalescedLocks, 1u);
  EXPECT_GE(Plan.Certificate.RepairRounds, 1u);

  const instrument::LockOrderAuditResult &A = P->lockOrderAudit();
  EXPECT_TRUE(A.ok()) << A.Failure.message();
  EXPECT_TRUE(A.Certified);

  // The repaired plan records without revoking at the tiny timeout,
  // polling and all, and replays deterministically.
  auto Outcome = P->recordAndReplay(7);
  ASSERT_TRUE(Outcome.Record.Ok) << Outcome.Record.Error;
  ASSERT_TRUE(Outcome.Replay.Ok) << Outcome.Replay.Error;
  EXPECT_EQ(Outcome.Record.Stats.Revocations, 0u);
  EXPECT_TRUE(Outcome.Deterministic);
}

//===----------------------------------------------------------------------===//
// Certificate lies hard-gate execution
//===----------------------------------------------------------------------===//

TEST(LockOrder, ForgedCertificateRejected) {
  auto P = pipelineFor(CyclicTwoLock, analysis::LockOrderMode::Audit);
  ASSERT_TRUE(P);
  // Claim acyclicity on a plan the recomputation proves cyclic. The
  // fingerprint still matches (certificate fields are excluded from it),
  // so only the acyclicity cross-check can catch this.
  P->corruptPlanForTest([](instrument::InstrumentationPlan &Plan) {
    Plan.Certificate.Acyclic = true;
  });
  const instrument::LockOrderAuditResult &A = P->lockOrderAudit();
  EXPECT_FALSE(A.ok());
  EXPECT_NE(A.Failure.message().find("forged"), std::string::npos)
      << A.Failure.message();
  rt::ExecutionResult R = P->record(3);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("forged"), std::string::npos) << R.Error;
}

TEST(LockOrder, StaleCertificateRejected) {
  auto P = pipelineFor(AcyclicCounter, analysis::LockOrderMode::Enforce);
  ASSERT_TRUE(P);
  // Edit the plan content after stamping: the fingerprint no longer
  // matches, so the certificate is stale no matter what it claims.
  P->corruptPlanForTest([](instrument::InstrumentationPlan &Plan) {
    if (!Plan.Locks.empty())
      Plan.Locks[0].Name += ":edited";
  });
  const instrument::LockOrderAuditResult &A = P->lockOrderAudit();
  EXPECT_FALSE(A.ok());
  EXPECT_NE(A.Failure.message().find("stale"), std::string::npos)
      << A.Failure.message();
  rt::ExecutionResult R = P->record(3);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("stale"), std::string::npos) << R.Error;
}

//===----------------------------------------------------------------------===//
// Observability: poll attribution and analysis counters
//===----------------------------------------------------------------------===//

TEST(LockOrder, ObsCountersTrackPollingAndAnalysis) {
  // Uncertified cyclic plan at a tiny timeout: polling runs and revokes.
  auto Audit = pipelineFor(CyclicTwoLock, analysis::LockOrderMode::Audit,
                           /*Timeout=*/1000, obs::ObsMode::Full);
  ASSERT_TRUE(Audit);
  rt::ExecutionResult R = Audit->record(5);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_GE(R.Stats.Revocations, 1u);
  auto SnapA = Audit->metrics();
  ASSERT_TRUE(SnapA.hasValue());
  EXPECT_GT(SnapA->value("runtime.record.weak.poll"), 0);
  EXPECT_GE(SnapA->value("pipeline.lockorder.edges"), 1);
  EXPECT_GE(SnapA->value("pipeline.lockorder.cycles_found"), 1);
  EXPECT_EQ(SnapA->value("pipeline.lockorder.certified_plans"), 0);

  // Certified enforce plan: the poll still runs (a certificate turns
  // nothing off at run time) but finds nothing to revoke.
  auto Enforce = pipelineFor(CyclicTwoLock, analysis::LockOrderMode::Enforce,
                             /*Timeout=*/1000, obs::ObsMode::Full);
  ASSERT_TRUE(Enforce);
  rt::ExecutionResult E = Enforce->record(5);
  ASSERT_TRUE(E.Ok) << E.Error;
  EXPECT_EQ(E.Stats.Revocations, 0u);
  auto SnapE = Enforce->metrics();
  ASSERT_TRUE(SnapE.hasValue());
  EXPECT_GT(SnapE->value("runtime.record.weak.poll"), 0);
  EXPECT_GE(SnapE->value("pipeline.lockorder.locks_coalesced"), 1);
  EXPECT_GE(SnapE->value("pipeline.lockorder.certified_plans"), 1);
}

//===----------------------------------------------------------------------===//
// Forced-revocation determinism matrix (satellite 3)
//===----------------------------------------------------------------------===//

namespace {

struct MatrixCase {
  const char *Name;
  const char *Source;
};

const MatrixCase MatrixCases[] = {
    {"two_lock", CyclicTwoLock},
    {"three_way", CyclicThreeWay},
    {"crowd", CyclicCrowd},
};

} // namespace

TEST(LockOrder, ForcedRevocationDeterminismMatrix) {
  // Audit mode keeps the cyclic plans as planned, so tiny timeouts
  // genuinely revoke. Every cell must replay bit-identically —
  // including the revocation stream — sequentially and epoch-parallel.
  uint64_t TotalRevocations = 0;
  for (const MatrixCase &C : MatrixCases) {
    for (uint64_t Timeout : {uint64_t(1000), uint64_t(10000)}) {
      SCOPED_TRACE(std::string(C.Name) + " timeout=" +
                   std::to_string(Timeout));
      auto P = pipelineFor(C.Source, analysis::LockOrderMode::Audit,
                           Timeout);
      ASSERT_TRUE(P);
      uint64_t Revs = 0;
      std::vector<uint8_t> Bytes = recordBytes(
          *P, std::string(C.Name) + "_" + std::to_string(Timeout), 13,
          &Revs);
      TotalRevocations += Revs;

      replay::LogReader SeqReader = openReader(Bytes);
      replay::LogReader::RecoveredLog RL = SeqReader.recover();
      rt::ExecutionResult Seq = P->replay(RL.Log);
      ASSERT_TRUE(Seq.Ok) << Seq.Error;
      ASSERT_EQ(RL.Log.Revocations.size(), Revs);

      for (unsigned Jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(Jobs));
        replay::LogReader Reader = openReader(Bytes);
        replay::ParallelReplayer::Result Res =
            P->replayParallel(Reader, Jobs);
        EXPECT_TRUE(Res.Exec.Ok) << Res.Exec.Error;
        EXPECT_EQ(Res.Exec.StateHash, Seq.StateHash);
        EXPECT_EQ(Res.Exec.Output, Seq.Output);
        expectLogsEqual(Res.Log, RL.Log);
      }
    }
  }
  // The matrix is vacuous if nothing ever revoked.
  EXPECT_GT(TotalRevocations, 0u);
}

//===----------------------------------------------------------------------===//
// Nine-workload dynamic cross-check of the static certificate
//===----------------------------------------------------------------------===//

TEST(LockOrder, NineWorkloadsRevocationFreeWhenCertified) {
  // Enforce + tiny timeout on every paper workload: the certificate
  // must hold dynamically — zero revocations with the weak-timeout poll
  // running — and the recording replays bit-identically.
  for (workloads::WorkloadKind Kind : workloads::allWorkloads()) {
    const char *Name = workloads::workloadInfo(Kind).Name;
    SCOPED_TRACE(Name);
    core::PipelineConfig Config;
    Config.ProfileRuns = 5;
    Config.WeakLockTimeout = 1000;
    Config.LockOrder = analysis::LockOrderMode::Enforce;
    auto P = workloads::buildPipelineEx(Kind, /*Workers=*/4, Config);
    ASSERT_TRUE(P.hasValue()) << (P ? "" : P.error().message());
    ASSERT_TRUE((*P)->lockOrderAudit().Certified)
        << (*P)->lockOrderAudit().Failure.message();

    auto Out = (*P)->recordAndReplay(1);
    ASSERT_TRUE(Out.Record.Ok) << Out.Record.Error;
    ASSERT_TRUE(Out.Replay.Ok) << Out.Replay.Error;
    EXPECT_EQ(Out.Record.Stats.Revocations, 0u) << Name;
    EXPECT_TRUE(Out.Deterministic) << Name;
    EXPECT_EQ(Out.Replay.Output, Out.Record.Output) << Name;
  }
}
