//===- core/Pipeline.cpp - End-to-end Chimera pipeline ---------------------===//

#include "core/Pipeline.h"

#include "codegen/CodeGen.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "profile/Profiler.h"
#include "replay/LogWriter.h"
#include "service/ArtifactCache.h"
#include "support/Hash.h"

#include <cassert>
#include <type_traits>

using namespace chimera;
using namespace chimera::core;

ChimeraPipeline::Analyses::Analyses(const ir::Module &M)
    : CG(M), PT(M, analysis::PointsToFlavor::Andersen), Escape(M, PT) {}

support::Expected<std::unique_ptr<ChimeraPipeline>>
ChimeraPipeline::create(PipelineRequest Request) {
  // Failures carry the request's Tag so a batch of concurrent sessions
  // yields attributable errors.
  // Copied, not referenced: Request.Tag is moved into the pipeline
  // below, and failures after that point must still carry it.
  const std::string Tag = Request.Tag;
  auto Tagged = [&Tag](support::Error E) -> support::Error {
    return Tag.empty() ? E : E.context("request '" + Tag + "'");
  };

  if (support::Error E = Request.Config.validate())
    return Tagged(E.context("invalid pipeline config"));

  auto P = std::unique_ptr<ChimeraPipeline>(new ChimeraPipeline());
  P->Config = std::move(Request.Config);
  P->Tag = std::move(Request.Tag);
  if (P->Config.Observability != obs::ObsMode::Off)
    P->ObsRegistry = std::make_unique<obs::Registry>();
  obs::Registry *Reg = P->ObsRegistry.get();
  obs::TraceRecorder *Trace = Reg ? P->Config.Trace : nullptr;

  auto Eval = compileMiniCEx(Request.Eval, P->Config.Name, Reg, Trace);
  if (!Eval)
    return Tagged(Eval.error());
  P->EvalModule = Eval.take();

  if (Request.Profile == Request.Eval || Request.Profile.empty()) {
    P->ProfileModule = P->EvalModule->clone();
  } else {
    auto Prof = compileMiniCEx(Request.Profile, P->Config.Name + ".profile",
                               Reg, Trace);
    if (!Prof)
      return Tagged(Prof.error().context("profile source"));
    P->ProfileModule = Prof.take();
    // Profile and eval sources must have the same IR shape (they may
    // differ only in constants) so that function ids transfer.
    if (P->ProfileModule->Functions.size() !=
            P->EvalModule->Functions.size() ||
        P->ProfileModule->totalInstructions() !=
            P->EvalModule->totalInstructions())
      return Tagged(support::Error::failure(
          "profile source has a different shape than eval source"));
  }

  std::vector<std::string> Problems = ir::verifyModule(*P->EvalModule);
  if (!Problems.empty()) {
    std::string Msg = "IR verification failed:";
    for (const std::string &Problem : Problems)
      Msg += "\n  " + Problem;
    return Tagged(support::Error::failure(std::move(Msg)));
  }
  return P;
}

support::Expected<obs::Snapshot> ChimeraPipeline::metrics() const {
  if (!ObsRegistry)
    return support::Error::failure(
        "pipeline observability is off; enable it with "
        "PipelineConfig::Observability = obs::ObsMode::Sampled (or Full) "
        "before building the pipeline, or pass --obs=sampled|full on the "
        "command line");
  return ObsRegistry->snapshot();
}

obs::Counter ChimeraPipeline::stageCounter(const char *Stage) const {
  return obs::Scope(ObsRegistry.get(), "pipeline")
      .sub(Stage)
      .counter("wall_us");
}

support::ThreadPool &ChimeraPipeline::pool() const {
  // Built on first use so a pipeline that only compiles never spawns
  // threads.
  return Pool.get([&] {
    return std::make_unique<support::ThreadPool>(
        Config.effectiveAnalysisJobs());
  });
}

const ChimeraPipeline::Analyses &ChimeraPipeline::analyses() const {
  return Analysis.get([&] {
    obs::ScopedTimer T(stageCounter("analyses"));
    CHIMERA_TRACE_SPAN(trace(), "pipeline.analyses");
    return std::make_unique<Analyses>(*EvalModule);
  });
}

const analysis::MayHappenInParallel &ChimeraPipeline::mhp() const {
  return MhpCell.get([&] {
    const Analyses &A = analyses();
    obs::ScopedTimer T(stageCounter("mhp"));
    CHIMERA_TRACE_SPAN(trace(), "pipeline.mhp");
    return std::make_unique<analysis::MayHappenInParallel>(
        *EvalModule, A.CG, A.PT, Config.Mhp);
  });
}

const race::RaceReport &ChimeraPipeline::raceReport() const {
  return Races.get([&] {
    const Analyses &A = analyses();
    const analysis::MayHappenInParallel &Mhp = mhp();
    obs::ScopedTimer T(stageCounter("relay"));
    CHIMERA_TRACE_SPAN(trace(), "pipeline.relay");
    race::RelayDetector Detector(*EvalModule, A.CG, A.PT, A.Escape, &pool(),
                                 &Mhp);
    auto Report = std::make_unique<race::RaceReport>(Detector.detect());
    // Published here (not in an accessor) so one registry snapshot after
    // any instrumented run already carries the MHP precision numbers.
    Report->publishTo(obs::Scope(ObsRegistry.get(), "pipeline").sub("mhp"));
    return Report;
  });
}

const ChimeraPipeline::ProfileOutcome &ChimeraPipeline::profile() const {
  return Profile.get([&] {
    obs::ScopedTimer T(stageCounter("profile"));
    CHIMERA_TRACE_SPAN(trace(), "pipeline.profile");
    // Each run has its own seed and core count (the paper profiles over
    // "a variety of inputs"). Runs are independent — each owns its
    // machine, observer, and seed — so they execute concurrently;
    // samples merge in run-index order and the lowest failing run is
    // reported, so the result is identical for any worker count.
    std::vector<profile::ProfileData> Samples(Config.ProfileRuns);
    std::vector<std::string> Faults(Config.ProfileRuns);
    pool().parallelFor(
        Config.ProfileRuns, [&](size_t Run) {
          const PipelineConfig::ProfileRun Spec =
              Config.profileRun(static_cast<unsigned>(Run));
          profile::ConcurrencyProfiler Prof;
          rt::MachineOptions MO;
          MO.Mode = rt::ExecMode::Native;
          MO.NumCores = Spec.Cores;
          MO.Seed = Spec.Seed;
          MO.Costs = Config.Costs;
          // Execution-only schedule knobs (DispatchBatch, Quantum*)
          // deliberately stay at the MachineOptions defaults here:
          // profiling is a PLANNER input, keyed by planCacheKey, which
          // excludes those knobs so one plan serves every run
          // configuration. Letting them leak in makes the plan — and
          // with it the module's weak-lock table sizes — vary with the
          // run schedule, so a log recorded under one quantum cannot
          // even be opened for replay under another, and a warm
          // artifact cache can serve a plan cold compute would not
          // produce. Found by the stress campaign's replay-perturbed
          // oracle (tests/stress_test.cpp pins the repro).
          MO.Observer = &Prof;
          rt::Machine Machine(*ProfileModule, MO);
          rt::ExecutionResult Result = Machine.run();
          if (!Result.Ok)
            Faults[Run] = Result.Error.empty() ? "unknown fault"
                                               : std::move(Result.Error);
          Samples[Run] = Prof.finish();
        });
    auto Outcome = std::make_unique<ProfileOutcome>();
    for (unsigned Run = 0; Run != Config.ProfileRuns; ++Run) {
      if (Faults[Run].empty())
        continue;
      const PipelineConfig::ProfileRun Spec = Config.profileRun(Run);
      Outcome->Failure = support::Error::failure(
          "profile run " + std::to_string(Run) + " (seed " +
          std::to_string(Spec.Seed) + ", " + std::to_string(Spec.Cores) +
          " cores) failed: " + Faults[Run]);
      return Outcome;
    }
    for (const profile::ProfileData &Sample : Samples)
      Outcome->Data.merge(Sample);
    return Outcome;
  });
}

const profile::ProfileData &ChimeraPipeline::profileData() const {
  return profile().Data;
}

const support::Error &ChimeraPipeline::profileError() const {
  static const support::Error Success = support::Error::success();
  plan(); // Runs the profile stage unless the plan is served warm.
  const ProfileOutcome *Outcome =
      Config.Planner.UseFunctionLocks ? Profile.peek() : nullptr;
  return Outcome ? Outcome->Failure : Success;
}

uint64_t ChimeraPipeline::planCacheKey() const {
  // The cost model is all uint64_t fields, so its object representation
  // is exactly its value — safe to hash as raw bytes. If a non-integer
  // field is ever added, hash fields explicitly instead.
  static_assert(std::has_unique_object_representations_v<rt::CostModel>,
                "CostModel gained padding or non-integer fields; "
                "planCacheKey must hash its fields explicitly");
  Hasher H;
  H.addString(ir::printModule(*EvalModule));
  H.addString(ir::printModule(*ProfileModule));
  H.addWord(Config.ProfileRuns);
  H.addWord(Config.ProfileCores);
  H.addWord(Config.ProfileSeedBase);
  H.addBytes(&Config.Costs, sizeof(Config.Costs));
  H.addWord(static_cast<uint64_t>(Config.Mhp));
  H.addWord(Config.Planner.UseFunctionLocks);
  H.addWord(Config.Planner.UseLoopLocks);
  H.addWord(Config.Planner.UseBasicBlockLocks);
  H.addWord(Config.Planner.LoopBodyThreshold);
  H.addWord(static_cast<uint64_t>(Config.LockOrder));
  return H.digest();
}

std::unique_ptr<instrument::InstrumentationPlan>
ChimeraPipeline::planFromArtifacts(uint64_t Key) const {
  std::vector<uint8_t> Bytes;
  if (!Config.Artifacts->lookup(service::ArtifactKind::Plan, Key, Bytes))
    return nullptr;
  replay::ByteCursor C(Bytes);
  auto P = std::make_unique<instrument::InstrumentationPlan>();
  // Structural damage (or a certificate whose fingerprint does not
  // match the decoded content) degrades to a miss — the planner runs
  // and overwrites nothing (first writer wins keeps load-time bytes).
  if (!service::decodePlan(C, *P) || !C.atEnd())
    return nullptr;
  return P;
}

const instrument::InstrumentationPlan &ChimeraPipeline::plan() const {
  return Plan.get([&]() -> std::unique_ptr<instrument::InstrumentationPlan> {
    // Persistent plan cache: every input to the stages below is folded
    // into the key, so a decoded hit is bit-identical to running them.
    // Skipped entirely while a test corruptor is installed — a forged
    // plan must never be persisted or satisfied from persistence.
    const uint64_t CacheKey =
        Config.Artifacts && !PlanCorruptor ? planCacheKey() : 0;
    if (Config.Artifacts && !PlanCorruptor) {
      if (auto Cached = planFromArtifacts(CacheKey)) {
        if (ObsRegistry)
          obs::Scope(ObsRegistry.get(), "pipeline")
              .sub("plan.cache")
              .counter("hits")
              .inc();
        return Cached;
      }
      if (ObsRegistry)
        obs::Scope(ObsRegistry.get(), "pipeline")
            .sub("plan.cache")
            .counter("misses")
            .inc();
    }
    const race::RaceReport &Report = raceReport();
    // Without the function-lock optimization the planner ignores the
    // profile, so don't pay for profile runs.
    profile::ProfileData Empty;
    const ProfileOutcome *Profiled =
        Config.Planner.UseFunctionLocks ? &profile() : nullptr;
    const profile::ProfileData &Prof = Profiled ? Profiled->Data : Empty;
    obs::ScopedTimer T(stageCounter("plan"));
    CHIMERA_TRACE_SPAN(trace(), "pipeline.plan");
    auto P = std::make_unique<instrument::InstrumentationPlan>(
        instrument::planInstrumentation(*EvalModule, Report, Prof,
                                        Config.Planner, ObsRegistry.get()));
    if (Config.LockOrder != analysis::LockOrderMode::Off)
      certifyOrRepair(*P);
    // The corruptor runs AFTER certification, so tests can both forge
    // certificates and make a freshly stamped one stale by editing the
    // plan out from under it.
    if (PlanCorruptor) {
      PlanCorruptor(*P);
    } else if (Config.Artifacts && !(Profiled && Profiled->Failure)) {
      std::vector<uint8_t> Bytes;
      service::encodePlan(*P, Bytes);
      Config.Artifacts->insert(service::ArtifactKind::Plan, CacheKey,
                               std::move(Bytes));
    }
    return P;
  });
}

/// Runs the lock-order analysis over \p P (instrumenting a scratch
/// module clone — the cached instrumented module does not exist yet at
/// plan time), repairs cyclic plans under Enforce by coalescing each
/// cyclic lock set into one Function-granularity lock, re-analyzes
/// until acyclic, and stamps the certificate. Under Audit a cyclic plan
/// is certified as cyclic: the report carries the witness chains and
/// executions still run (with polling).
void ChimeraPipeline::certifyOrRepair(
    instrument::InstrumentationPlan &P) const {
  const Analyses &A = analyses();
  const analysis::MayHappenInParallel &Mhp = mhp();
  obs::ScopedTimer T(stageCounter("lockorder"));
  CHIMERA_TRACE_SPAN(trace(), "pipeline.lockorder");

  uint64_t Coalesced = 0, Rounds = 0;
  uint64_t FirstCycles = 0, FirstEdges = 0;
  // Each repair round strictly shrinks the set of locks carrying
  // non-entry guards, so the loop terminates; the cap is a backstop.
  const uint64_t MaxRounds = P.Locks.size() + 2;
  for (;;) {
    std::unique_ptr<ir::Module> IM =
        instrument::instrumentModule(*EvalModule, P);
    analysis::LockOrderGraph G(*IM, *EvalModule, A.CG, Mhp);
    if (Rounds == 0) {
      FirstCycles = G.stats().CyclesFeasible;
      FirstEdges = G.stats().Edges;
    }
    if (G.acyclic() ||
        Config.LockOrder != analysis::LockOrderMode::Enforce ||
        Rounds >= MaxRounds) {
      instrument::certifyLockOrder(P, G);
      break;
    }
    Coalesced += instrument::repairLockOrder(P, G.cyclicLockSets());
    ++Rounds;
  }
  // Keep the pre-repair findings in the certificate (certifyLockOrder
  // records the final graph, which is cycle-free after a repair).
  P.Certificate.CyclesFound = FirstCycles;
  P.Certificate.CoalescedLocks = Coalesced;
  P.Certificate.RepairRounds = Rounds;

  if (ObsRegistry) {
    obs::Scope LO =
        obs::Scope(ObsRegistry.get(), "pipeline").sub("lockorder");
    LO.counter("edges").add(FirstEdges);
    LO.counter("cycles_found").add(FirstCycles);
    LO.counter("locks_coalesced").add(Coalesced);
    LO.counter("repair_rounds").add(Rounds);
    if (P.Certificate.Acyclic)
      LO.counter("certified_plans").inc();
  }
}

const ir::Module &ChimeraPipeline::instrumentedModule() const {
  return Instrumented.get([&] {
    const instrument::InstrumentationPlan &P = plan();
    obs::ScopedTimer T(stageCounter("instrument"));
    CHIMERA_TRACE_SPAN(trace(), "pipeline.instrument");
    std::unique_ptr<ir::Module> Module =
        instrument::instrumentModule(*EvalModule, P);
    std::vector<std::string> Problems = ir::verifyModule(*Module);
    assert(Problems.empty() && "instrumented module failed verification");
    (void)Problems;
    return Module;
  });
}

const instrument::AuditResult &ChimeraPipeline::planAudit() const {
  return Audit.get([&] {
    const race::RaceReport &Report = raceReport();
    const instrument::InstrumentationPlan &P = plan();
    const ir::Module &IM = instrumentedModule();
    obs::ScopedTimer T(stageCounter("audit"));
    CHIMERA_TRACE_SPAN(trace(), "pipeline.audit");
    return std::make_unique<instrument::AuditResult>(
        instrument::auditPlan(*EvalModule, Report, P, IM));
  });
}

const instrument::LockOrderAuditResult &
ChimeraPipeline::lockOrderAudit() const {
  return LockOrderCell.get([&] {
    const instrument::InstrumentationPlan &P = plan();
    const ir::Module &IM = instrumentedModule();
    const Analyses &A = analyses();
    const analysis::MayHappenInParallel &Mhp = mhp();
    obs::ScopedTimer T(stageCounter("lockorder_audit"));
    CHIMERA_TRACE_SPAN(trace(), "pipeline.lockorder_audit");
    return std::make_unique<instrument::LockOrderAuditResult>(
        instrument::auditLockOrder(*EvalModule, P, IM, A.CG, Mhp,
                                   Config.LockOrder));
  });
}

void ChimeraPipeline::setPlannerOptions(
    const instrument::PlannerOptions &Opts) {
  Config.Planner = Opts;
  Plan.reset();
  Instrumented.reset();
  Audit.reset();
  LockOrderCell.reset();
}

void ChimeraPipeline::corruptPlanForTest(
    std::function<void(instrument::InstrumentationPlan &)> Fn) {
  PlanCorruptor = std::move(Fn);
  Plan.reset();
  Instrumented.reset();
  Audit.reset();
  LockOrderCell.reset();
}

support::Expected<const ir::Module *> ChimeraPipeline::auditedModule() {
  if (const support::Error &E = profileError())
    return E;
  if (Config.AuditPlan) {
    const instrument::AuditResult &Result = planAudit();
    if (!Result.ok())
      return Result.Failure.context("plan audit failed");
  }
  if (Config.LockOrder != analysis::LockOrderMode::Off) {
    const instrument::LockOrderAuditResult &Result = lockOrderAudit();
    if (!Result.ok())
      return Result.Failure.context("lock-order audit failed");
  }
  return &instrumentedModule();
}

/// An instrumented execution under a plan that fails its audit is
/// meaningless (the weak-locks may not cover the races the log format
/// assumes are covered), so the failure becomes the run's result.
static rt::ExecutionResult auditFailure(const support::Error &E) {
  rt::ExecutionResult Result;
  Result.Ok = false;
  Result.Error = E.message();
  return Result;
}

rt::ExecutionResult
ChimeraPipeline::runInstrumented(const rt::MachineOptions &MO) {
  support::Expected<const ir::Module *> IM = auditedModule();
  if (!IM)
    return auditFailure(IM.error());
  return rt::Machine(**IM, MO).run();
}

rt::MachineOptions ChimeraPipeline::machineOptions(rt::ExecMode Mode,
                                                   uint64_t Seed) const {
  rt::MachineOptions MO;
  MO.Mode = Mode;
  MO.NumCores = Config.NumCores;
  // Replay must not depend on the seed, so it always gets the same one.
  MO.Seed = Mode == rt::ExecMode::Replay ? 0xdeadbeef : Seed;
  MO.Costs = Config.Costs;
  MO.DispatchBatch = Config.DispatchBatch;
  MO.QuantumMin = Config.QuantumMin;
  MO.QuantumMax = Config.QuantumMax;
  MO.WeakLockTimeout = Config.WeakLockTimeout;
  MO.Metrics = ObsRegistry.get();
  MO.Trace = trace();
  return MO;
}

rt::ExecutionResult ChimeraPipeline::runOriginalNative(
    uint64_t Seed, rt::ExecutionObserver *Obs) {
  auto MO = machineOptions(rt::ExecMode::Native, Seed);
  MO.Observer = Obs;
  return rt::Machine(*EvalModule, MO).run();
}

rt::ExecutionResult ChimeraPipeline::runInstrumentedNative(uint64_t Seed) {
  return runInstrumented(machineOptions(rt::ExecMode::Native, Seed));
}

rt::ExecutionResult ChimeraPipeline::record(uint64_t Seed,
                                            rt::ExecutionObserver *Obs) {
  auto MO = machineOptions(rt::ExecMode::Record, Seed);
  MO.Observer = Obs;
  return runInstrumented(MO);
}

rt::ExecutionResult ChimeraPipeline::replay(const rt::ExecutionLog &Log,
                                            rt::ExecutionObserver *Obs) {
  auto MO = machineOptions(rt::ExecMode::Replay, 0);
  MO.ReplayLog = &Log;
  MO.Observer = Obs;
  return runInstrumented(MO);
}

uint64_t ChimeraPipeline::workloadFingerprint() const {
  const ir::Module &M = instrumentedModule();
  Hasher H;
  H.addString(M.Name);
  H.addWord(M.Functions.size());
  H.addWord(M.totalInstructions());
  H.addWord(M.Syncs.size());
  H.addWord(M.WeakLocks.size());
  H.addWord(M.globalSegmentWords());
  H.addWord(Config.NumCores);
  return H.digest();
}

support::Expected<rt::ExecutionResult>
ChimeraPipeline::recordStreamed(const std::string &Path, uint64_t Seed,
                                rt::ExecutionObserver *Obs) {
  // Gate before the writer opens the file: a failed gate leaves none.
  // Its errors already say which check failed.
  support::Expected<const ir::Module *> IM = auditedModule();
  if (!IM)
    return IM.error();

  replay::LogWriter::Options WO;
  WO.SegmentBytes = Config.SegmentBytes;
  WO.Fingerprint = workloadFingerprint();
  WO.Pool = &pool();
  WO.Metrics = ObsRegistry.get();
  replay::LogWriter Writer(Path, WO);

  auto MO = machineOptions(rt::ExecMode::Record, Seed);
  MO.Observer = Obs;
  MO.LogSink = &Writer;
  MO.CheckpointEvery = Config.CheckpointEvery;
  rt::ExecutionResult Result = rt::Machine(**IM, MO).run();
  if (support::Error E = Writer.finish())
    return E.context("writing " + Path);
  if (!Result.Ok)
    return support::Error::failure("record run failed: " + Result.Error);
  return Result;
}

rt::ExecutionResult
ChimeraPipeline::replayResumed(const rt::ExecutionLog &Log,
                               const rt::MachineSnapshot &Snap,
                               rt::ExecutionObserver *Obs) {
  auto MO = machineOptions(rt::ExecMode::Replay, 0);
  MO.ReplayLog = &Log;
  MO.ResumeFrom = &Snap;
  MO.Observer = Obs;
  return runInstrumented(MO);
}

replay::ParallelReplayer::Result
ChimeraPipeline::replayParallel(replay::LogReader &Reader, unsigned Jobs) {
  support::Expected<const ir::Module *> IM = auditedModule();
  if (!IM) {
    replay::ParallelReplayer::Result Res;
    Res.Exec = auditFailure(IM.error());
    return Res;
  }
  replay::ParallelReplayer::Options PO;
  PO.Jobs = Jobs ? Jobs : Config.ReplayJobs;
  PO.Pool = &pool();
  PO.Metrics = ObsRegistry.get();
  // Epoch machines override the per-run sinks and the log pointers.
  PO.Machine = machineOptions(rt::ExecMode::Replay, 0);
  return replay::ParallelReplayer::replay(**IM, Reader, PO);
}

ChimeraPipeline::RecordReplayOutcome ChimeraPipeline::recordAndReplay(
    uint64_t Seed) {
  RecordReplayOutcome Outcome;
  Outcome.Record = record(Seed);
  if (!Outcome.Record.Ok)
    return Outcome;
  Outcome.Replay = replay(Outcome.Record.Log);
  Outcome.Deterministic = Outcome.Replay.Ok &&
                          Outcome.Replay.StateHash ==
                              Outcome.Record.StateHash;
  return Outcome;
}

uint64_t ChimeraPipeline::dynamicRaceCount(uint64_t Seed) {
  race::DynamicDetector Detector;
  if (!record(Seed, &Detector).Ok)
    return UINT64_MAX;
  return Detector.raceCount();
}
