//===- bench/fig_lockorder.cpp - Lock-order certification economics --------===//
//
// What the static lock-order analysis costs at record time, per
// workload:
//
//   baseline   --lock-order=off: no analysis;
//   certified  --lock-order=enforce: the plan is certified (repaired
//              first if cyclic). Record runs the same held-gated
//              weak-timeout poll as the baseline; the certificate is a
//              static result only.
//
// Also reported: the lock-order analysis wall (certification + any
// enforce-repair rounds) and what it found. Emits BENCH_lockorder.json
// next to the binary. The dynamic claim the lockorder test suite pins —
// certified recordings never revoke, even at a 1000-cycle timeout — is
// re-checked here on every workload; the bench exits nonzero if one
// does.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <chrono>

using namespace chimera;
using namespace chimera::bench;
using namespace chimera::workloads;

namespace {

using Clock = std::chrono::steady_clock;

double recordWall(core::ChimeraPipeline &P, rt::ExecutionResult &Out) {
  auto T0 = Clock::now();
  Out = P.record(BenchSeed);
  auto T1 = Clock::now();
  requireOk(Out, "record");
  return std::chrono::duration<double>(T1 - T0).count();
}

struct Row {
  const char *App = nullptr;
  double BaselineSec = 0;
  double CertifiedSec = 0;
  double AnalysisUs = 0;
  uint64_t CyclesFound = 0;
  uint64_t LocksCoalesced = 0;
  uint64_t RepairRounds = 0;
};

} // namespace

int main() {
  std::printf("Lock-order certification: record wall, baseline vs "
              "certified plan (4 workers, timeout=1000)\n\n");
  std::printf("%-10s %10s %10s %12s %7s %9s\n", "app", "baseline",
              "certified", "analysis_us", "cycles", "coalesced");
  hrule(63);

  std::vector<Row> Rows;
  bool NoneRevoked = true;

  for (WorkloadKind K : allWorkloads()) {
    Row R;
    R.App = workloadInfo(K).Name;

    // Baseline: no lock-order analysis.
    core::PipelineConfig Base;
    Base.ProfileRuns = 5;
    Base.WeakLockTimeout = 1000;
    auto BP = buildPipelineEx(K, /*Workers=*/4, Base);
    if (!BP) {
      std::fprintf(stderr, "%s: %s\n", R.App, BP.error().message().c_str());
      return 1;
    }
    rt::ExecutionResult BaseRec;
    R.BaselineSec = recordWall(**BP, BaseRec);

    // Certified: enforce-mode plan, same record path.
    core::PipelineConfig Cert = Base;
    Cert.LockOrder = analysis::LockOrderMode::Enforce;
    Cert.Observability = obs::ObsMode::Full;
    auto CP = buildPipelineEx(K, /*Workers=*/4, Cert);
    if (!CP) {
      std::fprintf(stderr, "%s: %s\n", R.App, CP.error().message().c_str());
      return 1;
    }
    const instrument::InstrumentationPlan &Plan = (*CP)->plan();
    R.CyclesFound = Plan.Certificate.CyclesFound;
    R.LocksCoalesced = Plan.Certificate.CoalescedLocks;
    R.RepairRounds = Plan.Certificate.RepairRounds;
    auto Snap = (*CP)->metrics();
    if (Snap)
      R.AnalysisUs =
          static_cast<double>(Snap->value("pipeline.lockorder.wall_us"));

    rt::ExecutionResult CertRec;
    R.CertifiedSec = recordWall(**CP, CertRec);
    bool Revoked = CertRec.Stats.Revocations != 0;
    NoneRevoked = NoneRevoked && !Revoked;

    std::printf("%-10s %9.3fs %9.3fs %12.0f %7llu %9llu%s\n", R.App,
                R.BaselineSec, R.CertifiedSec, R.AnalysisUs,
                static_cast<unsigned long long>(R.CyclesFound),
                static_cast<unsigned long long>(R.LocksCoalesced),
                Revoked ? "  REVOKED" : "");
    Rows.push_back(R);
  }

  hrule(63);
  if (!NoneRevoked) {
    std::fprintf(stderr, "certificate violation: a certified recording "
                         "revoked a weak-lock\n");
    return 1;
  }
  std::printf("all certified recordings revocation-free\n");

  FILE *Json = std::fopen("BENCH_lockorder.json", "w");
  if (!Json) {
    std::fprintf(stderr, "cannot write BENCH_lockorder.json\n");
    return 1;
  }
  std::fprintf(Json, "{\n  \"weak_lock_timeout\": 1000,\n  \"apps\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const Row &R = Rows[I];
    std::fprintf(Json,
                 "    {\"app\": \"%s\", \"baseline_seconds\": %.6f, "
                 "\"certified_seconds\": %.6f, "
                 "\"analysis_wall_us\": %.0f, \"cycles_found\": %llu, "
                 "\"locks_coalesced\": %llu, \"repair_rounds\": %llu}%s\n",
                 R.App, R.BaselineSec, R.CertifiedSec, R.AnalysisUs,
                 static_cast<unsigned long long>(R.CyclesFound),
                 static_cast<unsigned long long>(R.LocksCoalesced),
                 static_cast<unsigned long long>(R.RepairRounds),
                 I + 1 == Rows.size() ? "" : ",");
  }
  std::fprintf(Json, "  ]\n}\n");
  std::fclose(Json);
  std::printf("wrote BENCH_lockorder.json\n");
  return 0;
}
