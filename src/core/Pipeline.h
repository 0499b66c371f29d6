//===- core/Pipeline.h - End-to-end Chimera pipeline ------------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point (paper Figure 1): compile MiniC, run the RELAY
/// static race detector, profile concurrent function pairs over many
/// inputs, plan weak-lock granularities, instrument, then record and
/// replay on the simulated multicore.
///
/// Typical use:
/// \code
///   core::PipelineRequest Req;
///   Req.Eval = EvalSrc;
///   Req.Config.NumCores = 8;
///   auto P = core::ChimeraPipeline::create(std::move(Req));
///   if (!P)
///     report(P.error().message());
///   auto Outcome = (*P)->recordAndReplay(/*Seed=*/42);
///   assert(Outcome.Deterministic);
/// \endcode
///
/// Many concurrent pipelines are run by `service::SessionManager`,
/// which queues the same `PipelineRequest` struct; a request whose
/// `Config.Artifacts` points at a `service::ArtifactCache` reuses
/// persisted instrumentation plans across pipelines and processes.
///
/// Stage accessors (`raceReport`, `profileData`, `plan`,
/// `instrumentedModule`) are const, thread-safe, and compute each stage
/// exactly once: the first caller runs the stage under that stage's
/// latch, later callers (from any thread) get the cached const
/// reference. The expensive stages fan out internally over a
/// work-stealing pool sized by `PipelineConfig::AnalysisJobs` — profile
/// runs execute concurrently and RELAY composes summaries per SCC-DAG
/// level — but results are merged in deterministic (seed / function id)
/// order, so every artifact is bit-identical for any job count.
///
/// Profile and evaluation sources may differ only in global initializer
/// values and barrier party counts (the paper profiles smaller inputs
/// and fewer workers); the pipeline asserts the IR shape matches so
/// analysis results transfer.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_CORE_PIPELINE_H
#define CHIMERA_CORE_PIPELINE_H

#include "core/Options.h"
#include "instrument/Instrumenter.h"
#include "instrument/LockOrderAuditor.h"
#include "instrument/PlanAuditor.h"
#include "race/DynamicDetector.h"
#include "race/RelayDetector.h"
#include "replay/ParallelReplayer.h"
#include "runtime/Machine.h"
#include "support/Expected.h"
#include "support/ThreadPool.h"

#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace chimera {
namespace core {

class ChimeraPipeline {
public:
  /// Compiles and assembles a pipeline from \p Request. Fails when
  /// either source does not compile, the sources' IR shapes differ, or
  /// the config fails validation; failures carry the request's Tag as
  /// context when one was set.
  static support::Expected<std::unique_ptr<ChimeraPipeline>>
  create(PipelineRequest Request);

  const PipelineConfig &config() const { return Config; }
  /// The request's Tag (possibly empty).
  const std::string &tag() const { return Tag; }

  // -- Observability. The pipeline owns one obs::Registry (created when
  // Config.Observability != Off) and hands it down to every stage and
  // machine, so one snapshot sees compile phases, analyses, and runs.
  /// Snapshot of everything observed so far; fails when the pipeline was
  /// built with Observability == Off.
  support::Expected<obs::Snapshot> metrics() const;
  /// The registry itself (null when Observability == Off) — for callers
  /// that want to attach their own counters next to the pipeline's.
  obs::Registry *metricsRegistry() const { return ObsRegistry.get(); }

  // -- Stages: computed once, cached, safe to call from any thread.
  const ir::Module &originalModule() const { return *EvalModule; }
  const analysis::MayHappenInParallel &mhp() const;
  const race::RaceReport &raceReport() const;
  /// Concurrent function pairs observed over Config.ProfileRuns runs of
  /// the profile program (empty when a run failed; see profileError).
  const profile::ProfileData &profileData() const;
  /// Success, or the failure of the lowest-indexed profile run the
  /// plan was built after — "profile run R (seed S, C cores) failed:
  /// <fault>", the same for every AnalysisJobs. Computes the plan
  /// first. Success when the plan came from Config.Artifacts (a plan
  /// built after a failure is never stored there) or does not use the
  /// profile (no function locks). Every instrumented execution returns
  /// this failure.
  const support::Error &profileError() const;
  const instrument::InstrumentationPlan &plan() const;
  const ir::Module &instrumentedModule() const;
  /// Static audit of the plan against the instrumented module; computed
  /// once like the other stages. Consulted (when Config.AuditPlan) by
  /// every instrumented execution, which fails hard on a dirty audit.
  const instrument::AuditResult &planAudit() const;

  /// Lock-order audit of the (possibly certified/repaired) plan against
  /// the final instrumented module: recomputes the
  /// may-be-held-while-acquiring graph and validates the plan's
  /// certificate (stale or forged certificates, and cyclic plans under
  /// Enforce, are hard errors gating every instrumented execution).
  /// Computed once like the other stages; trivially ok() when
  /// Config.LockOrder == Off.
  const instrument::LockOrderAuditResult &lockOrderAudit() const;

  /// Re-plans under different optimizations (invalidates cached plan and
  /// instrumented module). Not thread-safe against concurrent stage
  /// accessors — reconfigure between, not during, analyses.
  void setPlannerOptions(const instrument::PlannerOptions &Opts);

  /// Test-only hook: mutates the plan right after planning, before
  /// instrumentation and audit, so tests can prove the auditor rejects
  /// corrupted plans. Invalidates the plan and downstream stages.
  void corruptPlanForTest(
      std::function<void(instrument::InstrumentationPlan &)> Fn);

  // -- Executions.
  rt::ExecutionResult runOriginalNative(uint64_t Seed,
                                        rt::ExecutionObserver *Obs =
                                            nullptr);
  rt::ExecutionResult runInstrumentedNative(uint64_t Seed);
  rt::ExecutionResult record(uint64_t Seed,
                             rt::ExecutionObserver *Obs = nullptr);
  rt::ExecutionResult replay(const rt::ExecutionLog &Log,
                             rt::ExecutionObserver *Obs = nullptr);

  /// Records with \p Seed while streaming every log event into the
  /// segmented on-disk format at \p Path (replay/LogWriter): per-record
  /// framing, per-segment CRCs, a machine-state checkpoint every
  /// Config.CheckpointEvery log events, and compression off the record
  /// thread on the pipeline's worker pool. Fails when the run fails or
  /// any write did. The in-memory log in the result is still populated,
  /// so callers can cross-check the file against it.
  support::Expected<rt::ExecutionResult>
  recordStreamed(const std::string &Path, uint64_t Seed,
                 rt::ExecutionObserver *Obs = nullptr);

  /// Replays \p Log starting from \p Snap (a checkpoint out of
  /// replay::LogReader::seekToCheckpoint or recover) instead of from the
  /// initial state. The final StateHash is bit-identical to a cold
  /// replay of the full log.
  rt::ExecutionResult replayResumed(const rt::ExecutionLog &Log,
                                    const rt::MachineSnapshot &Snap,
                                    rt::ExecutionObserver *Obs = nullptr);

  /// Epoch-parallel replay of the segmented log behind \p Reader:
  /// partitions the log at its checkpoints into up to \p Jobs epochs
  /// (0 = Config.ReplayJobs), replays them concurrently on the analysis
  /// pool, and stitches — state, output, merged log, and event-counter
  /// stats bit-identical to sequential recovery + replay for any job
  /// count, including on damaged logs (the parallel path falls back to
  /// sequential whenever anything disagrees). Like replayResumed, the
  /// simulated-clock makespan follows the recorded core clocks stored
  /// in the checkpoints, not a cold replay's. Repositions \p Reader.
  replay::ParallelReplayer::Result
  replayParallel(replay::LogReader &Reader, unsigned Jobs = 0);

  /// Fingerprint of the instrumented workload (module shape, weak-lock
  /// space, core count), stamped into streamed log headers so a log
  /// cannot silently be replayed against a different workload or
  /// machine configuration.
  uint64_t workloadFingerprint() const;

  struct RecordReplayOutcome {
    rt::ExecutionResult Record;
    rt::ExecutionResult Replay;
    bool Deterministic = false;
  };
  /// Records with \p Seed, replays the log, compares state hashes.
  RecordReplayOutcome recordAndReplay(uint64_t Seed);

  /// Runs the dynamic happens-before oracle over a recording of the
  /// instrumented program; returns the number of races it finds (the
  /// paper's invariant: zero). Returns UINT64_MAX when the recording
  /// fails (for example on a plan that fails its audit), so a failed
  /// run never reads as race-free.
  uint64_t dynamicRaceCount(uint64_t Seed);

private:
  ChimeraPipeline() = default;

  /// One lazily computed stage result: the first get() computes under
  /// the cell's latch, later calls return the cached value. reset()
  /// supports re-planning.
  template <typename T> class StageCell {
  public:
    template <typename ComputeT>
    T &get(ComputeT &&Compute) const {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Value)
        Value = Compute();
      return *Value;
    }
    void reset() {
      std::lock_guard<std::mutex> Lock(Mu);
      Value.reset();
    }
    /// The value when computed, else null; computes nothing.
    const T *peek() const {
      std::lock_guard<std::mutex> Lock(Mu);
      return Value.get();
    }

  private:
    mutable std::mutex Mu;
    mutable std::unique_ptr<T> Value;
  };

  /// The profile stage's result: the merged data, or the failure.
  struct ProfileOutcome {
    profile::ProfileData Data;
    support::Error Failure;
  };
  const ProfileOutcome &profile() const;

  /// The module-wide analyses RELAY consumes, built together.
  struct Analyses {
    analysis::CallGraph CG;
    analysis::PointsTo PT;
    analysis::EscapeAnalysis Escape;
    explicit Analyses(const ir::Module &M);
  };

  const Analyses &analyses() const;
  support::ThreadPool &pool() const;
  /// The gate every instrumented execution passes: the instrumented
  /// module when the profile runs succeeded, the plan audit (if
  /// Config.AuditPlan) and the lock-order audit (unless LockOrder is
  /// Off) prove out, else the first failure.
  support::Expected<const ir::Module *> auditedModule();
  /// Runs the audited instrumented module under \p MO; an audit
  /// failure becomes the run's result.
  rt::ExecutionResult runInstrumented(const rt::MachineOptions &MO);
  /// The one place evaluation executions get their machine options:
  /// cores, cost model, schedule knobs, weak-lock timeout, and the
  /// observability sinks, all from Config. Replay ignores \p Seed and
  /// uses a fixed one (replay must not depend on it).
  rt::MachineOptions machineOptions(rt::ExecMode Mode, uint64_t Seed) const;
  /// Plan-stage lock-order analysis: analyze, repair under Enforce,
  /// stamp the certificate (see Pipeline.cpp).
  void certifyOrRepair(instrument::InstrumentationPlan &P) const;

  /// Content-hash key covering every input the plan stage consumes
  /// (both modules' printed IR, the profiling environment, cost model,
  /// planner options, MHP and lock-order modes) — the ArtifactCache key
  /// for this pipeline's plan. Execution-only knobs (NumCores,
  /// DispatchBatch, WeakLockTimeout, observability) are excluded: the
  /// plan is invariant in them.
  uint64_t planCacheKey() const;
  /// Decoded plan out of Config.Artifacts, or null on miss/damage.
  /// Never consulted while a test PlanCorruptor is installed.
  std::unique_ptr<instrument::InstrumentationPlan>
  planFromArtifacts(uint64_t Key) const;

  /// Wall-us counter for one pipeline stage ("pipeline.<stage>.wall_us");
  /// null handle when observability is off.
  obs::Counter stageCounter(const char *Stage) const;
  /// The trace recorder stages/machines should emit into (null when
  /// observability is off or no recorder was configured).
  obs::TraceRecorder *trace() const {
    return ObsRegistry ? Config.Trace : nullptr;
  }

  PipelineConfig Config;
  std::string Tag; ///< From the request; labels errors and metrics.
  std::unique_ptr<obs::Registry> ObsRegistry; ///< Null when Off.
  std::unique_ptr<ir::Module> EvalModule;
  std::unique_ptr<ir::Module> ProfileModule;
  std::function<void(instrument::InstrumentationPlan &)> PlanCorruptor;

  StageCell<support::ThreadPool> Pool;
  StageCell<Analyses> Analysis;
  StageCell<analysis::MayHappenInParallel> MhpCell;
  StageCell<race::RaceReport> Races;
  StageCell<ProfileOutcome> Profile;
  StageCell<instrument::InstrumentationPlan> Plan;
  StageCell<ir::Module> Instrumented;
  StageCell<instrument::AuditResult> Audit;
  StageCell<instrument::LockOrderAuditResult> LockOrderCell;
};

} // namespace core
} // namespace chimera

#endif // CHIMERA_CORE_PIPELINE_H
