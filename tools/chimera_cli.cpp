//===- tools/chimera_cli.cpp - Command-line driver --------------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The `chimera` command-line tool: compile a MiniC program, inspect the
// static race report and instrumentation plan, record executions to a
// log file, and replay them deterministically.
//
//   chimera races   prog.mc [--jobs N] [--mhp=MODE] [--race-stats]
//   chimera plan    prog.mc [--naive|--func|--loop]
//   chimera ir      prog.mc [--instrumented]
//   chimera run     prog.mc [--seed N] [--cores N]
//   chimera record  prog.mc -o run.clog [--seed N] [--cores N]
//                   [--segment-bytes N] [--checkpoint-every N]
//   chimera replay  prog.mc run.clog [--verify-log] [--replay-jobs N]
//   chimera batch   a.mc b.mc ... [--sessions N] [--repeat N]
//                   [--cache cache.cart] [--deadline-ms N]
//   chimera stress  [--seeds N] [--base-seed N] [--jobs N] [--no-shrink]
//                   [--repro-dir DIR] [--report FILE] [--repro FILE]
//
// `record` streams events into the crash-safe segmented log format
// (docs/LOG_FORMAT.md) with periodic state checkpoints; `replay` reads
// segmented logs through the streaming reader (recovering what it can
// from damaged files). With --replay-jobs=N the log is partitioned at
// its checkpoints and the epochs replay concurrently — bit-identical
// to sequential replay for every N.
//
// `batch` runs every listed program as a concurrent analysis *session*
// (service::SessionManager) over one shared persistent artifact cache:
// with --cache=FILE the cache is loaded before the first session and
// saved back afterwards, so a second batch run warm-starts past RELAY
// and the planning/certification loop. Exit codes are uniform and
// documented in --help: 0 success, 1 pipeline/session failure, 2 usage
// error.
//
// Observability is uniform across commands: `--metrics[=json|table]`
// prints the pipeline's registry snapshot after the command finishes,
// `--trace-out=FILE` writes a Chrome trace_event JSON file, and
// `--obs=off|sampled|full` picks the mode explicitly (both flags imply
// full otherwise). Option parsing and `--help` are generated from one
// declarative table in core/Cli.{h,cpp}.
//
//===----------------------------------------------------------------------===//

#include "core/Cli.h"
#include "core/Pipeline.h"
#include "ir/Printer.h"
#include "replay/LogCodec.h"
#include "replay/LogReader.h"
#include "service/SessionManager.h"
#include "stress/Stress.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace chimera;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  Out = Buf.str();
  return true;
}

bool readBytes(const std::string &Path, std::vector<uint8_t> &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

void printOutput(const rt::ExecutionResult &R) {
  for (uint64_t V : R.Output)
    std::printf("%lld\n", static_cast<long long>(static_cast<int64_t>(V)));
}

void printStats(const rt::ExecutionResult &R) {
  std::fprintf(stderr,
               "[chimera] %llu instructions, %llu cycles makespan, "
               "%llu weak-lock acquisitions, %llu log records\n",
               static_cast<unsigned long long>(R.Stats.Instructions),
               static_cast<unsigned long long>(R.Stats.MakespanCycles),
               static_cast<unsigned long long>(
                   R.Stats.weakAcquiresTotal()),
               static_cast<unsigned long long>(R.Stats.LogEvents));
}

/// End-of-command observability sinks: the metrics snapshot to stdout
/// and the trace file to disk. Returns false when the trace file could
/// not be written (the command itself already succeeded).
bool emitObservability(const core::ChimeraPipeline &Pipeline,
                       const core::CliOptions &Opts,
                       obs::TraceRecorder *Trace) {
  if (Opts.Metrics != core::MetricsFormat::None) {
    support::Expected<obs::Snapshot> Snap = Pipeline.metrics();
    if (!Snap) {
      std::fprintf(stderr, "%s\n", Snap.error().message().c_str());
      return false;
    }
    std::string Rendered = Opts.Metrics == core::MetricsFormat::Table
                               ? Snap->toTable()
                               : Snap->toJson();
    std::printf("%s\n", Rendered.c_str());
  }
  if (Trace) {
    if (support::Error E = Trace->writeFile(Opts.TraceOutPath)) {
      std::fprintf(stderr, "%s\n",
                   E.context("writing " + Opts.TraceOutPath)
                       .message()
                       .c_str());
      return false;
    }
    std::fprintf(stderr, "[chimera] %zu trace span(s) written to %s\n",
                 Trace->spanCount(), Opts.TraceOutPath.c_str());
  }
  return true;
}

/// `chimera batch`: every program in \p Paths becomes one session per
/// --repeat on a shared SessionManager; artifacts persist through
/// --cache across processes. Returns the process exit code.
int runBatch(const std::vector<std::string> &Paths,
             const core::CliOptions &Opts) {
  // Read every program up front so a missing file fails the batch
  // before any session is admitted.
  std::vector<std::string> Sources(Paths.size());
  for (size_t I = 0; I < Paths.size(); ++I)
    if (!readFile(Paths[I], Sources[I])) {
      std::fprintf(stderr, "cannot read %s\n", Paths[I].c_str());
      return 1;
    }

  service::ArtifactCache Cache;
  if (!Opts.CachePath.empty()) {
    support::Expected<uint64_t> Loaded = Cache.loadFile(Opts.CachePath);
    if (!Loaded) {
      std::fprintf(stderr, "%s\n", Loaded.error().message().c_str());
      return 1;
    }
    if (*Loaded)
      std::fprintf(stderr,
                   "[chimera] warm start: %llu artifact(s) loaded from %s\n",
                   static_cast<unsigned long long>(*Loaded),
                   Opts.CachePath.c_str());
  }

  obs::Registry Metrics;
  service::SessionManager::Options MO;
  MO.Concurrency = Opts.Sessions;
  MO.MaxSessions = Paths.size() * Opts.Repeat;
  MO.Artifacts = &Cache;
  MO.Metrics = &Metrics;
  service::SessionManager Manager(MO);

  for (unsigned Rep = 0; Rep < Opts.Repeat; ++Rep)
    for (size_t I = 0; I < Paths.size(); ++I) {
      core::PipelineConfig Config;
      Config.Name = Paths[I];
      Config.NumCores = Opts.Cores;
      Config.AnalysisJobs = Opts.Jobs;
      Config.Planner = Opts.Planner;
      Config.Mhp = Opts.Mhp;
      Config.LockOrder = Opts.LockOrder;
      Config.Observability = Opts.effectiveObsMode();
      service::SessionOptions SO;
      SO.Seed = Opts.Seed;
      SO.DeadlineMs = Opts.DeadlineMs;
      support::Expected<uint64_t> Id = Manager.submit(
          {.Eval = Sources[I], .Config = Config, .Tag = Paths[I]}, SO);
      if (!Id) {
        std::fprintf(stderr, "%s\n", Id.error().message().c_str());
        return 1;
      }
    }

  std::vector<service::SessionResult> Results = Manager.drainAll();

  bool AllOk = true;
  for (const service::SessionResult &R : Results) {
    if (R.Ok) {
      std::printf("session %llu %s: ok (plan %016llx, state %016llx, "
                  "%llu us)\n",
                  static_cast<unsigned long long>(R.Id), R.Tag.c_str(),
                  static_cast<unsigned long long>(R.PlanFingerprint),
                  static_cast<unsigned long long>(R.RecordStateHash),
                  static_cast<unsigned long long>(R.WallUs));
    } else {
      std::printf("session %llu %s: FAILED: %s\n",
                  static_cast<unsigned long long>(R.Id), R.Tag.c_str(),
                  R.Error.c_str());
      AllOk = false;
    }
  }

  // Duplicate sessions of the same program must be bit-identical:
  // same plan fingerprint, same state hashes, same encoded log.
  bool Identical = true;
  std::map<std::string, const service::SessionResult *> FirstByTag;
  for (const service::SessionResult &R : Results) {
    if (!R.Ok)
      continue;
    auto [It, Inserted] = FirstByTag.emplace(R.Tag, &R);
    if (Inserted)
      continue;
    const service::SessionResult *F = It->second;
    if (R.PlanFingerprint != F->PlanFingerprint ||
        R.RecordStateHash != F->RecordStateHash ||
        R.ReplayStateHash != F->ReplayStateHash ||
        R.LogBytes != F->LogBytes) {
      std::fprintf(stderr,
                   "bit-identity MISMATCH between sessions %llu and %llu "
                   "of %s\n",
                   static_cast<unsigned long long>(F->Id),
                   static_cast<unsigned long long>(R.Id), R.Tag.c_str());
      Identical = false;
    }
  }
  if (Identical && !Results.empty())
    std::printf("bit-identity: ok across %zu session(s)\n", Results.size());

  if (!Opts.CachePath.empty() && AllOk) {
    if (support::Error E = Cache.saveFile(Opts.CachePath)) {
      std::fprintf(stderr, "%s\n", E.message().c_str());
      return 1;
    }
    std::fprintf(stderr, "[chimera] %zu artifact(s) saved to %s\n",
                 Cache.entryCount(), Opts.CachePath.c_str());
  }

  Cache.publishTo(obs::Scope(&Metrics, "service").sub("cache"));
  if (Opts.Metrics != core::MetricsFormat::None) {
    obs::Snapshot Snap = Metrics.snapshot();
    std::printf("%s\n", Opts.Metrics == core::MetricsFormat::Table
                            ? Snap.toTable().c_str()
                            : Snap.toJson().c_str());
  }
  return AllOk && Identical ? 0 : 1;
}

/// `chimera stress --repro FILE`: re-run one minimized repro. Exit 0
/// when the trial passes (the bug is fixed), 1 when it still fails.
int runRepro(const core::CliOptions &Opts) {
  support::Expected<stress::TrialCase> Case =
      stress::readReproFile(Opts.ReproPath);
  if (!Case) {
    std::fprintf(stderr, "%s\n", Case.error().message().c_str());
    return 1;
  }
  stress::TrialResult R = stress::runTrial(*Case);
  if (R.Passed) {
    std::printf("repro %s: PASS (oracle %s, seed %llu, state %016llx)\n",
                Opts.ReproPath.c_str(), stress::oracleName(Case->Oracle),
                static_cast<unsigned long long>(Case->Seed),
                static_cast<unsigned long long>(R.RecordHash));
    return 0;
  }
  std::printf("repro %s: FAIL (oracle %s, seed %llu)\n  %s\n",
              Opts.ReproPath.c_str(), stress::oracleName(Case->Oracle),
              static_cast<unsigned long long>(Case->Seed),
              R.Failure.c_str());
  return 1;
}

/// `chimera stress`: the seeded differential campaign (ISSUE 10).
int runStress(const core::CliOptions &Opts) {
  if (!Opts.ReproPath.empty())
    return runRepro(Opts);

  obs::Registry Metrics;
  stress::CampaignOptions CO;
  CO.Seeds = Opts.StressSeeds;
  CO.BaseSeed = Opts.BaseSeed;
  CO.Jobs = Opts.Jobs;
  CO.Shrink = Opts.Shrink;
  CO.ReproDir = Opts.ReproDir;
  CO.Metrics = &Metrics;
  uint64_t Stride = Opts.StressSeeds / 20 ? Opts.StressSeeds / 20 : 1;
  CO.Progress = [Stride](uint64_t Done, uint64_t Total) {
    if (Done % Stride == 0 || Done == Total)
      std::fprintf(stderr, "\r[chimera] stress %llu/%llu trial(s)",
                   static_cast<unsigned long long>(Done),
                   static_cast<unsigned long long>(Total));
    if (Done == Total)
      std::fputc('\n', stderr);
  };

  stress::CampaignReport Rep = stress::runCampaign(CO);

  std::printf("stress: %llu trial(s), %llu passed, %llu failed "
              "(base seed %llu)\n",
              static_cast<unsigned long long>(Rep.Trials),
              static_cast<unsigned long long>(Rep.Passed),
              static_cast<unsigned long long>(Rep.Failed),
              static_cast<unsigned long long>(Opts.BaseSeed));
  for (const auto &[Name, Count] : Rep.TrialsPerOracle) {
    auto It = Rep.FailuresPerOracle.find(Name);
    uint64_t Fails = It == Rep.FailuresPerOracle.end() ? 0 : It->second;
    std::printf("  %-18s %5llu trial(s)  %llu failed\n", Name.c_str(),
                static_cast<unsigned long long>(Count),
                static_cast<unsigned long long>(Fails));
  }
  for (const stress::CampaignFailure &F : Rep.Failures) {
    std::printf("FAILURE #%llu: oracle %s, source %s, seed %llu\n  %s\n",
                static_cast<unsigned long long>(F.Index),
                stress::oracleName(F.Case.Oracle),
                F.Case.SourceName.c_str(),
                static_cast<unsigned long long>(F.Case.Seed),
                F.Result.Failure.c_str());
    if (!F.ReproPath.empty())
      std::printf("  minimized repro: %s (replay with `chimera stress "
                  "--repro %s`)\n",
                  F.ReproPath.c_str(), F.ReproPath.c_str());
  }

  if (!Opts.ReportPath.empty()) {
    std::ofstream Out(Opts.ReportPath, std::ios::trunc);
    if (!Out.good()) {
      std::fprintf(stderr, "cannot write %s\n", Opts.ReportPath.c_str());
      return 1;
    }
    Out << Rep.toJson();
    Out.close();
    std::fprintf(stderr, "[chimera] campaign report written to %s\n",
                 Opts.ReportPath.c_str());
  }
  if (Opts.Metrics != core::MetricsFormat::None) {
    obs::Snapshot Snap = Metrics.snapshot();
    std::printf("%s\n", Opts.Metrics == core::MetricsFormat::Table
                            ? Snap.toTable().c_str()
                            : Snap.toJson().c_str());
  }
  return Rep.allPassed() ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  // `chimera --help` (any position) prints usage without needing a
  // command or program.
  for (int I = 1; I < argc; ++I)
    if (std::string(argv[I]) == "--help") {
      std::fputs(core::usageText().c_str(), stdout);
      return 0;
    }
  // `stress` takes no program argument — every flag after the command
  // belongs to the option table.
  if (argc >= 2 && std::string(argv[1]) == "stress") {
    core::CliOptions Opts;
    if (support::Error E =
            core::parseCliOptions(argc, argv, 2, "stress", Opts)) {
      std::fprintf(stderr, "%s\n", E.message().c_str());
      return 2;
    }
    return runStress(Opts);
  }

  if (argc < 3) {
    std::fputs(core::usageText().c_str(), stderr);
    return 2;
  }
  std::string Command = argv[1];
  std::string Path = argv[2];

  core::CliOptions Opts;
  if (support::Error E =
          core::parseCliOptions(argc, argv, 3, Command, Opts)) {
    std::fprintf(stderr, "%s\n", E.message().c_str());
    return 2;
  }

  if (Command == "batch") {
    std::vector<std::string> Paths;
    Paths.push_back(Path);
    Paths.insert(Paths.end(), Opts.Inputs.begin(), Opts.Inputs.end());
    return runBatch(Paths, Opts);
  }

  std::string Source;
  if (!readFile(Path, Source)) {
    std::fprintf(stderr, "cannot read %s\n", Path.c_str());
    return 1;
  }

  // The CLI owns the trace recorder; the pipeline only borrows it.
  // Sampled mode keeps every 8th span — metrics stay exact either way.
  std::unique_ptr<obs::TraceRecorder> Trace;
  obs::ObsMode ObsMode = Opts.effectiveObsMode();
  if (!Opts.TraceOutPath.empty() && ObsMode != obs::ObsMode::Off)
    Trace = std::make_unique<obs::TraceRecorder>(
        ObsMode == obs::ObsMode::Sampled ? 8 : 1);

  core::PipelineConfig Config;
  Config.Name = Path;
  Config.NumCores = Opts.Cores;
  Config.AnalysisJobs = Opts.Jobs;
  Config.Planner = Opts.Planner;
  Config.Mhp = Opts.Mhp;
  Config.Observability = ObsMode;
  Config.Trace = Trace.get();
  Config.SegmentBytes = Opts.SegmentBytes;
  Config.CheckpointEvery = Opts.CheckpointEvery;
  Config.ReplayJobs = Opts.ReplayJobs;
  Config.LockOrder = Opts.LockOrder;
  auto MaybePipeline =
      core::ChimeraPipeline::create({.Eval = Source, .Config = Config});
  if (!MaybePipeline) {
    std::fprintf(stderr, "%s\n", MaybePipeline.error().message().c_str());
    return 1;
  }
  std::unique_ptr<core::ChimeraPipeline> Pipeline = MaybePipeline.take();

  if (Command == "races") {
    const race::RaceReport &Races = Pipeline->raceReport();
    std::printf("%zu potential race pair(s)\n", Races.Pairs.size());
    std::printf("%s", Races.str(Pipeline->originalModule()).c_str());
    if (Opts.RaceStats) {
      // Read back through the registry (the supported stats path). When
      // observability is off, publish into a local one.
      obs::Registry Local;
      obs::Registry *Reg = Pipeline->metricsRegistry();
      if (!Reg) {
        Races.publishTo(obs::Scope(&Local, "pipeline").sub("mhp"));
        Reg = &Local;
      }
      obs::Snapshot Snap = Reg->snapshot();
      std::printf("mhp mode=%s pairs-before=%lld pairs-after=%lld "
                  "pruned-forkjoin=%lld pruned-barrier=%lld\n",
                  analysis::mhpModeName(Races.Mhp.Mode),
                  static_cast<long long>(
                      Snap.value("pipeline.mhp.pairs_before", 0)),
                  static_cast<long long>(
                      Snap.value("pipeline.mhp.pairs_after", 0)),
                  static_cast<long long>(
                      Snap.value("pipeline.mhp.pruned_forkjoin", 0)),
                  static_cast<long long>(
                      Snap.value("pipeline.mhp.pruned_barrier", 0)));
      const ir::Module &M = Pipeline->originalModule();
      for (const race::PrunedRace &P : Races.PrunedPairs) {
        auto describe = [&](const race::RacyAccess &A) {
          const ir::Function &F = M.function(A.FuncId);
          const ir::Instruction *Inst = F.findInst(A.Ident);
          return F.Name + ":" +
                 (Inst ? std::to_string(Inst->Loc.Line) : "?");
        };
        std::printf(
            "pruned (%s): %s <-> %s\n",
            P.Reason == analysis::MhpOrdering::OrderedForkJoin
                ? "forkjoin"
                : "barrier",
            describe(P.Pair.A).c_str(), describe(P.Pair.B).c_str());
      }
    }
    return emitObservability(*Pipeline, Opts, Trace.get()) ? 0 : 1;
  }

  if (Command == "plan") {
    if (const support::Error &E = Pipeline->profileError()) {
      std::fprintf(stderr, "%s\n", E.message().c_str());
      return 1;
    }
    std::printf("%s",
                Pipeline->plan()
                    .summary(Pipeline->originalModule())
                    .c_str());
    const instrument::AuditResult &Audit = Pipeline->planAudit();
    if (!Audit.ok()) {
      std::fprintf(stderr, "plan audit FAILED: %s\n",
                   Audit.Failure.message().c_str());
      return 1;
    }
    std::printf("plan audit: ok (%llu pairs, %llu accesses, %llu ranged "
                "guards checked)\n",
                static_cast<unsigned long long>(Audit.Stats.PairsChecked),
                static_cast<unsigned long long>(
                    Audit.Stats.AccessesChecked),
                static_cast<unsigned long long>(
                    Audit.Stats.RangedGuardsChecked));
    if (Opts.LockOrderReport ||
        Opts.LockOrder != analysis::LockOrderMode::Off) {
      const instrument::LockOrderAuditResult &LO =
          Pipeline->lockOrderAudit();
      if (!LO.ok()) {
        std::fprintf(stderr, "lock-order audit FAILED: %s\n",
                     LO.Failure.message().c_str());
        return 1;
      }
      std::printf("%s", LO.Report.c_str());
      if (LO.Certified)
        std::printf("lock-order certificate: valid\n");
    }
    return emitObservability(*Pipeline, Opts, Trace.get()) ? 0 : 1;
  }

  if (Command == "ir") {
    const ir::Module &M = Opts.Instrumented
                              ? Pipeline->instrumentedModule()
                              : Pipeline->originalModule();
    std::printf("%s", ir::printModule(M).c_str());
    return 0;
  }

  if (Command == "run") {
    auto R = Pipeline->runOriginalNative(Opts.Seed);
    if (!R.Ok) {
      std::fprintf(stderr, "runtime error: %s\n", R.Error.c_str());
      return 1;
    }
    printOutput(R);
    printStats(R);
    return emitObservability(*Pipeline, Opts, Trace.get()) ? 0 : 1;
  }

  if (Command == "record") {
    std::string OutPath = Opts.OutPath.empty() ? Path + ".clog"
                                               : Opts.OutPath;
    auto MaybeR = Pipeline->recordStreamed(OutPath, Opts.Seed);
    if (!MaybeR) {
      std::fprintf(stderr, "%s\n", MaybeR.error().message().c_str());
      return 1;
    }
    rt::ExecutionResult R = MaybeR.take();
    printOutput(R);
    printStats(R);
    auto Sizes = replay::measureLog(R.Log);
    std::fprintf(stderr,
                 "[chimera] segmented log written to %s (compresses to "
                 "%llu input + %llu order)\n",
                 OutPath.c_str(),
                 static_cast<unsigned long long>(Sizes.InputCompressed),
                 static_cast<unsigned long long>(Sizes.OrderCompressed));
    return emitObservability(*Pipeline, Opts, Trace.get()) ? 0 : 1;
  }

  if (Command == "replay") {
    if (Opts.LogPath.empty()) {
      std::fprintf(stderr, "replay needs a log file argument\n");
      return 2;
    }
    std::vector<uint8_t> Bytes;
    if (!readBytes(Opts.LogPath, Bytes)) {
      std::fprintf(stderr, "cannot read %s\n", Opts.LogPath.c_str());
      return 1;
    }

    bool Segmented =
        Bytes.size() >= 4 &&
        std::memcmp(Bytes.data(), replay::FileMagic, 4) == 0;
    if (!Segmented) {
      std::fprintf(stderr,
                   "%s: not a segmented log (record one with "
                   "`chimera record`)\n",
                   Opts.LogPath.c_str());
      return 1;
    }
    replay::LogReader::Options ROpts;
    ROpts.ExpectedFingerprint = Pipeline->workloadFingerprint();
    ROpts.CheckFingerprint = true;
    ROpts.Metrics = Pipeline->metricsRegistry();
    auto Reader = replay::LogReader::open(std::move(Bytes), ROpts);
    if (!Reader) {
      std::fprintf(stderr, "%s: %s\n", Opts.LogPath.c_str(),
                   Reader.error().message().c_str());
      return 1;
    }

    if (Opts.ReplayJobs > 1) {
      // Epoch-parallel path: recovery, stitching, and the sequential
      // fallback on damage all live inside the replayer.
      auto Res = Pipeline->replayParallel(*Reader, Opts.ReplayJobs);
      if (!Res.LogComplete) {
        // Same policy as the sequential branch below: a log that does
        // not recover through its End record is an error, not a silent
        // partial replay.
        std::fprintf(stderr, "%s: %s (--verify-log for details)\n",
                     Opts.LogPath.c_str(), Res.LogError.c_str());
        return 1;
      }
      if (!Res.Exec.Ok) {
        std::fprintf(stderr, "replay error: %s\n",
                     Res.Exec.Error.c_str());
        return 1;
      }
      printOutput(Res.Exec);
      printStats(Res.Exec);
      std::fprintf(stderr,
                   "[chimera] %u epoch(s), %llu stitch check(s)%s%s\n",
                   Res.Epochs,
                   static_cast<unsigned long long>(Res.StitchChecks),
                   Res.UsedCheckpointIndex ? ", checkpoint index" : "",
                   Res.FellBackSequential ? ", fell back sequential"
                                          : "");
      std::fprintf(stderr,
                   "[chimera] replay state fingerprint %016llx\n",
                   static_cast<unsigned long long>(Res.Exec.StateHash));
      return emitObservability(*Pipeline, Opts, Trace.get()) ? 0 : 1;
    }

    replay::LogReader::RecoveredLog RL = Reader->recover();
    if (Opts.VerifyLog) {
      std::printf("%s: %llu segment(s), %llu record(s), %llu "
                  "checkpoint(s); %s\n",
                  Opts.LogPath.c_str(),
                  static_cast<unsigned long long>(RL.SegmentsRead),
                  static_cast<unsigned long long>(RL.RecordsRecovered),
                  static_cast<unsigned long long>(RL.CheckpointsMerged),
                  RL.Complete ? "complete"
                              : RL.Failure.message().c_str());
      return RL.Complete ? 0 : 1;
    }
    if (!RL.Complete) {
      std::fprintf(stderr,
                   "%s: %s\n[chimera] recovered %llu record(s) across "
                   "%llu segment(s) before the damage "
                   "(--verify-log for details)\n",
                   Opts.LogPath.c_str(), RL.Failure.message().c_str(),
                   static_cast<unsigned long long>(RL.RecordsRecovered),
                   static_cast<unsigned long long>(RL.SegmentsRead));
      return 1;
    }
    rt::ExecutionLog DecodedLog = std::move(RL.Log);
    auto R = Pipeline->replay(DecodedLog);
    if (!R.Ok) {
      std::fprintf(stderr, "replay error: %s\n", R.Error.c_str());
      return 1;
    }
    printOutput(R);
    printStats(R);
    std::fprintf(stderr, "[chimera] replay state fingerprint %016llx\n",
                 static_cast<unsigned long long>(R.StateHash));
    return emitObservability(*Pipeline, Opts, Trace.get()) ? 0 : 1;
  }

  std::fputs(core::usageText().c_str(), stderr);
  return 2;
}
