//===- core/Options.h - Pipeline configuration ------------------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Configuration for the end-to-end Chimera pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_CORE_OPTIONS_H
#define CHIMERA_CORE_OPTIONS_H

#include "analysis/LockOrderGraph.h"
#include "analysis/MayHappenInParallel.h"
#include "instrument/Planner.h"
#include "runtime/CostModel.h"
#include "support/Expected.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstdint>
#include <string>

namespace chimera {
namespace service {
class ArtifactCache;
}
namespace core {

struct PipelineConfig {
  std::string Name = "program";

  /// Simulated cores for evaluation runs.
  unsigned NumCores = 8;

  /// Profiling environment (paper: 20 runs, 2 workers, small inputs —
  /// inputs vary because each run uses a different seed).
  unsigned ProfileRuns = 20;
  unsigned ProfileCores = 8;
  uint64_t ProfileSeedBase = 90001;

  /// The seed and core count of profile run \p Run (0-based): seeds
  /// count up from ProfileSeedBase, and core counts cycle through
  /// ProfileCores, 2, 4, 8 (machine diversity makes the observed
  /// concurrency more robust). The profile stage and bench/paper's
  /// profile-run study both take their runs from here.
  struct ProfileRun {
    uint64_t Seed;
    unsigned Cores;
  };
  ProfileRun profileRun(unsigned Run) const;

  /// Host worker threads for the analysis/profiling stages (profile-run
  /// fan-out, per-SCC RELAY composition). 0 = one per hardware thread;
  /// 1 = fully serial. Results are identical for every value.
  unsigned AnalysisJobs = 0;

  /// Ignored: RELAY always computes its summaries. Kept only for
  /// perfbench/, which still sets it.
  bool UseSummaryCache = true;

  instrument::PlannerOptions Planner = instrument::PlannerOptions::full();
  rt::CostModel Costs = rt::CostModel::defaultModel();

  /// May-happen-in-parallel filter over RELAY's candidate race pairs:
  /// Off reports every lockset race, ForkJoin prunes spawn/join-ordered
  /// pairs, Barrier additionally prunes aligned-barrier-phase-ordered
  /// pairs (the default).
  analysis::MhpMode Mhp = analysis::MhpMode::Barrier;

  /// Statically audit the instrumentation plan (weak-lock coverage and
  /// range subsumption) before any instrumented execution; an audit
  /// failure turns record/replay into a hard error.
  bool AuditPlan = true;

  /// Whole-program weak-lock order analysis (ISSUE 8). Off (the
  /// default) skips it entirely; Audit runs it, reports
  /// deadlock-potential cycles, and certifies acyclic plans; Enforce
  /// additionally repairs cyclic plans (coalescing each cyclic lock set
  /// into one coarser lock) until the re-audit proves acyclicity, and
  /// hard-fails executions if any feasible cycle survives. The
  /// certificate is a static result only: record and native runs poll
  /// weak-lock timeouts the same way under every mode. Off by default
  /// because Enforce changes the lock table, coalescing away the lock
  /// cycles that revocation tests deliberately provoke.
  analysis::LockOrderMode LockOrder = analysis::LockOrderMode::Off;

  /// Weak-lock revocation threshold (cycles).
  uint64_t WeakLockTimeout = 500'000'000;

  /// Scheduler quantum bounds in cycles for every Machine the pipeline
  /// constructs (record/native draws uniformly in [Min, Max]; replay
  /// uses Min). Unlike DispatchBatch these are *simulated-time* knobs:
  /// changing them changes which schedules record observes, but any
  /// recorded log still replays bit-identically — including under a
  /// different quantum than it was recorded with.
  uint64_t QuantumMin = 3000;
  uint64_t QuantumMax = 9000;

  /// Instructions dispatched per scheduling decision in every Machine
  /// the pipeline constructs (see MachineOptions::DispatchBatch). Purely
  /// a host-speed knob — results are bit-identical for every value.
  unsigned DispatchBatch = 64;

  /// Raw payload bytes per segment when recording through the streaming
  /// log engine (ChimeraPipeline::recordStreamed). Smaller segments
  /// bound the damage one corruption can cause; larger ones compress
  /// better. Purely a storage knob — the recorded events are identical.
  uint64_t SegmentBytes = 64 * 1024;

  /// Log events between machine-state checkpoints in streamed
  /// recordings; 0 disables checkpointing. Replay can resume from the
  /// last checkpoint instead of re-executing from the start.
  uint64_t CheckpointEvery = 4096;

  /// Epoch-parallel replay width for ChimeraPipeline::replayParallel:
  /// the log is partitioned at its checkpoints into up to this many
  /// epochs replayed concurrently on the analysis pool. 1 replays
  /// sequentially. Results are bit-identical for every value.
  unsigned ReplayJobs = 1;

  /// Observability. Off (the default) creates no registry at all —
  /// Pipeline::metrics() fails and no instrumentation site pays more
  /// than a null-pointer test. Sampled and Full both create a
  /// pipeline-owned obs::Registry with exact metrics; they differ only
  /// in how densely an attached TraceRecorder samples spans (the
  /// recorder's own SampleEvery, chosen by whoever constructs it).
  /// Observability never feeds back into simulated state: logs, hashes,
  /// and stats are bit-identical across all three settings.
  obs::ObsMode Observability = obs::ObsMode::Off;

  /// Optional span sink, owned by the caller (the CLI owns one per
  /// --trace-out run). Forwarded to every stage and machine when
  /// Observability != Off; ignored when Off.
  obs::TraceRecorder *Trace = nullptr;

  /// Optional persistent artifact cache (service::ArtifactCache), not
  /// owned; one instance is typically shared by every concurrent
  /// session and persisted across processes (docs/CACHE_FORMAT.md).
  /// When set, the plan stage consults it under a content-hash key
  /// covering every plan input — a hit skips RELAY, the profile runs,
  /// the planner, and the lock-order certification loop, and is
  /// bit-identical to recomputation (the decoded plan's certificate is
  /// re-fingerprinted, and the usual plan/lock-order audits still gate
  /// every instrumented execution). Null = no persistence.
  service::ArtifactCache *Artifacts = nullptr;

  /// AnalysisJobs resolved to a concrete worker count.
  unsigned effectiveAnalysisJobs() const;

  /// Sanity-checks the configuration (worker counts, run counts);
  /// ChimeraPipeline::create rejects configs that fail this.
  support::Error validate() const;
};

/// A pipeline request: everything needed to build one ChimeraPipeline.
/// This is also the unit of work the service layer queues —
/// `service::SessionManager::submit` takes exactly this struct, so the
/// one-shot and many-session paths share a vocabulary.
struct PipelineRequest {
  /// MiniC source to analyze, instrument, and execute.
  std::string Eval = {};
  /// Profiling source; empty means "same as Eval". May differ from
  /// Eval only in global initializer values and barrier party counts
  /// (the paper profiles smaller inputs) — the IR shapes must match.
  std::string Profile = {};
  PipelineConfig Config = {};
  /// Caller-chosen label surfaced in error contexts and per-session
  /// service metrics ("service.session.<Tag>.*"). Empty is fine for
  /// one-shot use.
  std::string Tag = {};
};

} // namespace core
} // namespace chimera

#endif // CHIMERA_CORE_OPTIONS_H
