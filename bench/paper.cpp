//===- bench/paper.cpp - The paper's evaluation in one run -----------------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the paper's evaluation: Table 1, Table 2, Figures 5-8, the
/// design ablations and the §7.3 profile-run study, followed by the
/// deterministic work counters of the runs behind them.
///
/// Each (workload, workers) pipeline is built once, and each distinct
/// execution runs once: one native run per pipeline, the
/// all-optimizations record at 2, 4 and 8 workers, the three reduced
/// planner configurations at 4 workers, one replay of each 4-worker
/// record, and radix's non-default loop-body thresholds. Every table is
/// printed from those results.
///
/// The output holds simulated cycles and counts only, so it is a pure
/// function of the source tree. bench/paper.golden pins it (ctest
/// `bench.paper`); regenerate with `build/bench/paper >
/// bench/paper.golden` and review the diff.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/CallGraph.h"
#include "analysis/Escape.h"
#include "codegen/CodeGen.h"
#include "race/RelayDetector.h"
#include "replay/LogCodec.h"

#include <cmath>
#include <vector>

using namespace chimera;
using namespace chimera::bench;
using namespace chimera::workloads;
using instrument::PlannerOptions;

namespace {

/// Figure 8's worker counts; every other figure runs at 4 workers.
const unsigned WorkerCounts[] = {2, 4, 8};
constexpr unsigned At4 = 1;

/// Figures 5 and 6's planner configurations; the last is the shipping
/// one, which every other table uses.
struct PlannerConfig {
  const char *Name;
  PlannerOptions Opts;
};
const PlannerConfig Configs[] = {
    {"instr", PlannerOptions::naive()},
    {"inst+func", PlannerOptions::functionOnly()},
    {"inst+loop", PlannerOptions::loopOnly()},
    {"inst+bb+loop+func", PlannerOptions::full()},
};
constexpr unsigned NumConfigs = 4;
constexpr unsigned FullConfig = NumConfigs - 1;

/// The loop-body thresholds the ablation sweeps on radix.
const uint64_t Thresholds[] = {0, 16, 48, 128, 1024};

/// The work counters read from each 4-worker pipeline's metrics after
/// its native run and its all-optimizations record and replay.
const char *const WorkCounters[] = {
    "runtime.native.sched.loop_iterations",
    "runtime.native.sched.dispatch_chunks",
    "runtime.record.sched.loop_iterations",
    "runtime.record.sched.idle_hops",
    "runtime.record.sched.dispatch_chunks",
    "runtime.replay.sched.loop_iterations",
    "runtime.replay.sched.idle_hops",
    "runtime.replay.sched.dispatch_chunks",
    "runtime.record.log.order.total.bytes",
};
constexpr unsigned NumWorkCounters = 9;

/// One row of the loop-body-threshold ablation.
struct ThresholdRow {
  uint64_t Threshold;
  uint64_t LoopSites;
  uint64_t OtherSites; ///< Basic-block and instruction sites.
  rt::RunStats Record;
};

/// Every execution result the tables read for one workload.
struct WorkloadRuns {
  WorkloadKind Kind;
  rt::RunStats Native[3]; ///< Per WorkerCounts entry.
  rt::RunStats Record[3]; ///< All optimizations, per WorkerCounts entry.
  /// Per Configs entry at 4 workers; the last equals Record[At4].
  rt::RunStats ByConfig[NumConfigs];
  rt::RunStats Replay; ///< Of Record[At4]'s log.
  replay::LogSizes Sizes;
  uint64_t Work[NumWorkCounters] = {};
  /// The profile stage's cumulative pair count after each run it made.
  std::vector<uint64_t> PairsAfterRun;
  std::vector<ThresholdRow> Ablation; ///< Radix only.
};

const char *nameOf(WorkloadKind K) { return workloadInfo(K).Name; }

rt::RunStats statsOf(const rt::ExecutionResult &R, const char *What) {
  requireOk(R, What);
  return R.Stats;
}

double overheadOf(const rt::RunStats &Run, const rt::RunStats &Native) {
  return static_cast<double>(Run.MakespanCycles) /
         static_cast<double>(Native.MakespanCycles);
}

double geomean(const std::vector<double> &Values) {
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

obs::Snapshot metricsOf(const core::ChimeraPipeline &P) {
  auto S = P.metrics();
  if (!S) {
    std::fprintf(stderr, "metrics: %s\n", S.error().message().c_str());
    std::exit(1);
  }
  return S.take();
}

/// Loop-body-threshold sweep on the 4-worker radix pipeline; the
/// shipping threshold reuses the all-optimizations record.
void sweepThresholds(core::ChimeraPipeline &P, WorkloadRuns &W) {
  for (uint64_t Threshold : Thresholds) {
    PlannerOptions Opts = PlannerOptions::full();
    bool Shipping = Threshold == Opts.LoopBodyThreshold;
    Opts.LoopBodyThreshold = Threshold;
    P.setPlannerOptions(Opts);
    const auto &Plan = P.plan();
    ThresholdRow Row{Threshold, Plan.SidesLoopRanged + Plan.SidesLoopUnranged,
                     Plan.SidesBasicBlock + Plan.SidesInstr, W.Record[At4]};
    if (!Shipping)
      Row.Record = statsOf(P.record(BenchSeed), "record");
    W.Ablation.push_back(Row);
  }
}

WorkloadRuns measure(WorkloadKind K) {
  WorkloadRuns W;
  W.Kind = K;
  for (unsigned C = 0; C != 3; ++C) {
    // Worker count is a program parameter, so each count is its own
    // pipeline (profiling transfers across counts by design).
    core::PipelineConfig Config;
    Config.Observability = obs::ObsMode::Sampled; // Exact metrics.
    auto Built = buildPipelineEx(K, WorkerCounts[C], Config);
    if (!Built) {
      std::fprintf(stderr, "failed to build %s: %s\n", nameOf(K),
                   Built.error().message().c_str());
      std::exit(1);
    }
    core::ChimeraPipeline &P = **Built;
    obs::Snapshot Before = metricsOf(P);
    W.Native[C] = statsOf(P.runOriginalNative(BenchSeed), "native");
    if (C != At4) {
      W.Record[C] = statsOf(P.record(BenchSeed), "record");
      continue;
    }

    auto Out = P.recordAndReplay(BenchSeed);
    requireOk(Out.Record, "record");
    requireOk(Out.Replay, "replay");
    // StateHash covers memory and the output stream.
    if (!Out.Deterministic) {
      std::fprintf(stderr, "%s replay diverged\n", nameOf(K));
      std::exit(1);
    }
    obs::Snapshot Work = metricsOf(P).diff(Before);
    for (unsigned I = 0; I != NumWorkCounters; ++I)
      W.Work[I] = static_cast<uint64_t>(Work.value(WorkCounters[I]));
    const auto ProfileRuns = Work.value("pipeline.profile.runs");
    for (int64_t Run = 0; Run != ProfileRuns; ++Run)
      W.PairsAfterRun.push_back(static_cast<uint64_t>(Work.value(
          "pipeline.profile.pairs_after_run." + std::to_string(Run))));
    W.Record[C] = W.ByConfig[FullConfig] = Out.Record.Stats;
    W.Replay = Out.Replay.Stats;
    W.Sizes = replay::measureLog(Out.Record.Log);

    for (unsigned F = 0; F != FullConfig; ++F) {
      P.setPlannerOptions(Configs[F].Opts);
      W.ByConfig[F] = statsOf(P.record(BenchSeed), Configs[F].Name);
    }
    if (K == WorkloadKind::Radix)
      sweepThresholds(P, W);
  }
  return W;
}

void section(const char *Name) { std::printf("=== [%s] ===\n", Name); }

//===----------------------------------------------------------------------===//
// Table 1: the benchmark suite with source sizes and the profiling vs
// evaluation environments. (The paper's LOC column counts CIL-processed
// C; ours counts MiniC lines.)
//===----------------------------------------------------------------------===//

void printTable1() {
  section("table1");
  std::printf("Table 1: benchmarks and inputs used for profiling and "
              "evaluating Chimera\n");
  std::printf("(MiniC reimplementations of the paper's suite; LOC is "
              "MiniC source lines)\n\n");
  std::printf("%-10s %-11s %5s  %-46s %s\n", "app", "category", "LOC",
              "profile environment", "evaluation environment");
  hrule(140);

  for (WorkloadKind K : allWorkloads()) {
    const WorkloadInfo &Info = workloadInfo(K);
    std::printf("%-10s %-11s %5u  %-46s %s\n", Info.Name, Info.Category,
                workloadLineCount(K), Info.ProfileEnv, Info.EvalEnv);
  }

  std::printf("\nprofiling: 20 runs per application, each with a "
              "different input seed (paper: 20 runs, varied inputs)\n");
}

//===----------------------------------------------------------------------===//
// Table 2: per application, the DRF log volume (syscalls + original
// synchronization), weak-lock log counts by granularity, record and
// replay overheads, and compressed log sizes. Every replay was verified
// bit-exact against its recording in measure().
//===----------------------------------------------------------------------===//

void printTable2(const std::vector<WorkloadRuns> &Runs) {
  using G = ir::WeakLockGranularity;
  section("table2");
  std::printf("Table 2: Chimera record and replay performance "
              "(4 worker threads, all optimizations)\n\n");
  std::printf("%-10s | %9s %9s | %9s %9s %9s %9s | %9s %9s | %6s %6s | "
              "%8s %8s\n",
              "app", "syscalls", "synch.ops", "instr.log", "bblk.log",
              "loop.log", "func.log", "native", "record", "rec.ov",
              "rep.ov", "in.KB", "ord.KB");
  hrule(146);

  std::vector<double> RecOverheads, RepOverheads;
  for (const WorkloadRuns &W : Runs) {
    const rt::RunStats &S = W.Record[At4];
    const rt::RunStats &Native = W.Native[At4];
    double RecOv = overheadOf(S, Native);
    double RepOv = overheadOf(W.Replay, Native);
    RecOverheads.push_back(RecOv);
    RepOverheads.push_back(RepOv);

    // DRF logs: nondeterministic inputs plus the order of original
    // synchronization (the paper's "sufficient for data-race-free
    // programs" column).
    uint64_t SyncLogs = S.SyncOps + S.OutputOps + S.SpawnedThreads;

    std::printf("%-10s | %9llu %9llu | %9llu %9llu %9llu %9llu | "
                "%9llu %9llu | %6.2f %6.2f | %8.1f %8.1f\n",
                nameOf(W.Kind), static_cast<unsigned long long>(S.Syscalls),
                static_cast<unsigned long long>(SyncLogs),
                static_cast<unsigned long long>(
                    S.WeakAcquires[unsigned(G::Instr)]),
                static_cast<unsigned long long>(
                    S.WeakAcquires[unsigned(G::BasicBlock)]),
                static_cast<unsigned long long>(
                    S.WeakAcquires[unsigned(G::Loop)]),
                static_cast<unsigned long long>(
                    S.WeakAcquires[unsigned(G::Function)]),
                static_cast<unsigned long long>(Native.MakespanCycles),
                static_cast<unsigned long long>(S.MakespanCycles), RecOv,
                RepOv, W.Sizes.InputCompressed / 1024.0,
                W.Sizes.OrderCompressed / 1024.0);
  }

  hrule(146);
  std::printf("%-10s | %*s geomean record overhead %.2fx, replay "
              "overhead %.2fx\n",
              "summary", 40, "", geomean(RecOverheads),
              geomean(RepOverheads));
  std::printf("\npaper reference: ~2.4%% overhead for desktop/server, "
              "~86%% for scientific; replay similar to record except "
              "I/O-bound apps replay much faster\n");
  std::printf("all replays verified bit-exact (memory + output "
              "fingerprints)\n");
}

//===----------------------------------------------------------------------===//
// Figures 5 and 6: one value per planner configuration — "instr" (every
// potential race guarded at instruction granularity), "inst+func"
// (profile-driven function-locks added), "inst+loop" (symbolic-bounds
// loop-locks added), and "inst+bb+loop+func" (everything).
//===----------------------------------------------------------------------===//

/// One row per workload and a geomean row, each value printed as
/// `Value` followed by \p Unit.
template <typename ValueFn>
void printPerConfig(const std::vector<WorkloadRuns> &Runs, const char *Unit,
                    ValueFn &&Value) {
  std::printf("%-10s %12s %12s %12s %18s\n", "app", "instr", "inst+func",
              "inst+loop", "inst+bb+loop+func");
  hrule(70);

  std::vector<std::vector<double>> PerConfig(NumConfigs);
  auto Cell = [Unit](unsigned C, double V) {
    std::printf("  %*.2f%s", C == FullConfig ? 16 : 10, V, Unit);
  };
  for (const WorkloadRuns &W : Runs) {
    std::printf("%-10s", nameOf(W.Kind));
    for (unsigned C = 0; C != NumConfigs; ++C) {
      double V = Value(W, C);
      PerConfig[C].push_back(V);
      Cell(C, V);
    }
    std::printf("\n");
  }

  hrule(70);
  std::printf("%-10s", "geomean");
  for (unsigned C = 0; C != NumConfigs; ++C)
    Cell(C, geomean(PerConfig[C]));
}

// Figure 5: normalized recording overhead per configuration. The
// paper's headline: naive 53x average drops to 1.39x with all
// optimizations. Absolute factors differ on our simulated substrate;
// the ordering and the per-application rescuer (function-locks for
// pfscan/water, loop-locks for apache/ocean/fft/radix) should hold.
void printFig5(const std::vector<WorkloadRuns> &Runs) {
  section("fig5");
  std::printf("Figure 5: normalized recording overhead per "
              "instrumentation configuration (4 workers)\n\n");
  printPerConfig(Runs, "x", [](const WorkloadRuns &W, unsigned C) {
    return overheadOf(W.ByConfig[C], W.Native[At4]);
  });
  std::printf("\n\npaper reference: instr 53x -> inst+func 27x -> "
              "inst+loop 33x -> all 1.39x (average)\n");
}

// Figure 6: dynamic weak-lock operations relative to dynamic memory
// operations. The paper: naive instrumentation touches ~14% of memory
// operations, the full stack ~0.02%. Our programs are hot-loop
// dominated, so the absolute percentages are higher, but the
// orders-of-magnitude reduction is the reproduced shape.
void printFig6(const std::vector<WorkloadRuns> &Runs) {
  section("fig6");
  std::printf("Figure 6: weak-lock operations per 100 dynamic memory "
              "operations (4 workers)\n\n");
  printPerConfig(Runs, "%", [](const WorkloadRuns &W, unsigned C) {
    // Acquire+release both hit the log, as in the paper's counting.
    return 200.0 * static_cast<double>(W.ByConfig[C].weakAcquiresTotal()) /
           static_cast<double>(W.ByConfig[C].MemOps);
  });
  std::printf("\n\npaper reference: ~14%% of dynamic memory operations "
              "naively -> ~0.02%% with all optimizations (their "
              "programs have far more non-racy background code than "
              "our kernels, so absolute levels differ; the reduction "
              "factor is the comparable quantity)\n");
}

//===----------------------------------------------------------------------===//
// Figure 7: the sources of recording overhead in the fully optimized
// configuration, split per weak-lock type into the logging / lock-op CPU
// cost and the contention (stall) cost, plus the baseline DRF logging
// cost. The paper's findings: loop-lock contention dominates for ocean
// and fft (imprecise bounds over-serialize); water pays in fine-grained
// lock CPU (its force loop contains a call, defeating the
// intra-procedural bounds analysis).
//===----------------------------------------------------------------------===//

void printFig7(const std::vector<WorkloadRuns> &Runs) {
  using G = ir::WeakLockGranularity;
  section("fig7");
  std::printf("Figure 7: sources of recording overhead, normalized to "
              "native time (4 workers, all optimizations)\n\n");
  std::printf("%-10s | %9s | %9s %9s | %9s %9s | %9s %9s | %9s %9s | "
              "%7s\n",
              "app", "drf.log", "func.cpu", "func.wait", "loop.cpu",
              "loop.wait", "bb.cpu", "bb.wait", "instr.cpu", "instr.wait",
              "total");
  hrule(128);

  const rt::CostModel Costs; // Default model, same as the pipeline's.
  for (const WorkloadRuns &W : Runs) {
    const rt::RunStats &S = W.Record[At4];
    double Base = static_cast<double>(W.Native[At4].MakespanCycles);

    // DRF logging: one log record per input and per original sync op.
    double DrfLog =
        static_cast<double>((S.Syscalls + S.SyncOps + S.OutputOps) *
                            Costs.LogEvent) /
        Base;
    auto Cpu = [&](G Gran) {
      return static_cast<double>(S.WeakCpuCycles[unsigned(Gran)]) / Base;
    };
    auto Wait = [&](G Gran) {
      // Stall time accrues per blocked thread; dividing by the worker
      // count approximates its critical-path share.
      return static_cast<double>(S.WeakWaitCycles[unsigned(Gran)]) / Base /
             4.0;
    };

    double Total = overheadOf(S, W.Native[At4]) - 1.0;
    std::printf("%-10s | %8.3fx | %8.3fx %8.3fx | %8.3fx %8.3fx | "
                "%8.3fx %8.3fx | %8.3fx %8.3fx | %6.2fx\n",
                nameOf(W.Kind), DrfLog, Cpu(G::Function), Wait(G::Function),
                Cpu(G::Loop), Wait(G::Loop), Cpu(G::BasicBlock),
                Wait(G::BasicBlock), Cpu(G::Instr), Wait(G::Instr), Total);
  }

  hrule(128);
  std::printf("\ncolumns are additive contributions above native (cpu = "
              "lock ops + log appends; wait = contention stalls / "
              "workers); 'total' is measured record overhead minus 1\n");
  std::printf("paper reference: loop-lock contention dominates ocean and "
              "fft; water pays in fine-grained lock CPU\n");
}

//===----------------------------------------------------------------------===//
// Figure 8: recording overhead at 2, 4, and 8 workers (8 simulated cores
// throughout, like the paper's 8-core Xeon). I/O-bound applications stay
// flat near 1.0x, while contention-bound scientific applications degrade
// as workers multiply conflicts on loop-locks.
//===----------------------------------------------------------------------===//

void printFig8(const std::vector<WorkloadRuns> &Runs) {
  section("fig8");
  std::printf("Figure 8: recording overhead vs worker count "
              "(8 simulated cores)\n\n");
  std::printf("%-10s %12s %12s %12s\n", "app", "2 workers", "4 workers",
              "8 workers");
  hrule(52);

  std::vector<std::vector<double>> PerCount(3);
  for (const WorkloadRuns &W : Runs) {
    std::printf("%-10s", nameOf(W.Kind));
    for (unsigned C = 0; C != 3; ++C) {
      double Ov = overheadOf(W.Record[C], W.Native[C]);
      PerCount[C].push_back(Ov);
      std::printf("  %10.2fx", Ov);
    }
    std::printf("\n");
  }

  hrule(52);
  std::printf("%-10s", "geomean");
  for (unsigned C = 0; C != 3; ++C)
    std::printf("  %10.2fx", geomean(PerCount[C]));
  std::printf("\n\npaper reference: overhead grows with thread count for "
              "loop-lock-contended scientific applications; "
              "desktop/server stay near 1.0x\n");
}

//===----------------------------------------------------------------------===//
// Ablations of design decisions beyond the paper's Figure 5:
//  1. The §5.3 loop-body threshold: when bounds are underivable, below
//     what body size is serializing the loop cheaper than per-iteration
//     locks? Swept on radix, whose histogram loop is the canonical
//     underivable case.
//  2. Points-to flavor: how many race pairs does Steensgaard
//     (unification) inflate the detector to, against Andersen
//     (inclusion)? RELAY combines both; access sets default to Andersen.
//===----------------------------------------------------------------------===//

void printAblations(const WorkloadRuns &Radix) {
  section("ablation");
  std::printf("Ablation 1: loop-body-threshold sweep on radix "
              "(underivable-bounds loops)\n\n");
  std::printf("%-12s %14s %14s %12s\n", "threshold", "loop sites",
              "bb/instr sites", "rec overhead");
  hrule(56);
  for (const ThresholdRow &Row : Radix.Ablation)
    std::printf("%-12llu %14llu %14llu %11.2fx\n",
                static_cast<unsigned long long>(Row.Threshold),
                static_cast<unsigned long long>(Row.LoopSites),
                static_cast<unsigned long long>(Row.OtherSites),
                overheadOf(Row.Record, Radix.Native[At4]));
  std::printf("\nthe default threshold (48) keeps the small histogram "
              "loop at loop granularity (paper Fig. 4's unranged "
              "loop-lock) without serializing big loops\n\n");

  std::printf("Ablation 2: race pairs under Andersen vs Steensgaard "
              "points-to\n\n");
  std::printf("%-10s %10s %12s\n", "app", "Andersen", "Steensgaard");
  hrule(36);
  for (WorkloadKind K : allWorkloads()) {
    auto Compiled = compileMiniCEx(workloadSource(K, evalParams(K, 4)),
                                   nameOf(K));
    if (!Compiled) {
      std::fprintf(stderr, "compile failed: %s\n",
                   Compiled.error().message().c_str());
      std::exit(1);
    }
    auto M = Compiled.take();
    analysis::CallGraph CG(*M);

    size_t Counts[2];
    for (int Flavor = 0; Flavor != 2; ++Flavor) {
      analysis::PointsTo PT(*M, Flavor == 0
                                    ? analysis::PointsToFlavor::Andersen
                                    : analysis::PointsToFlavor::Steensgaard);
      analysis::EscapeAnalysis Escape(*M, PT);
      race::RelayDetector Detector(*M, CG, PT, Escape);
      Counts[Flavor] = Detector.detect().Pairs.size();
    }
    std::printf("%-10s %10zu %12zu\n", nameOf(K), Counts[0], Counts[1]);
  }
  std::printf("\nboth are sound; Steensgaard's unification merges "
              "pointer targets and can only report more (never fewer) "
              "pairs — the §3.3 imprecision this project's "
              "optimizations then absorb\n");
}

//===----------------------------------------------------------------------===//
// §7.3 profile-run sensitivity: the set of observed concurrent function
// pairs saturates after a few profile runs (the paper reports five for
// pfscan and three for water). Prints, for every workload, the
// cumulative pair count after each run its 4-worker pipeline's profile
// stage made, read from the stage's metrics.
//===----------------------------------------------------------------------===//

void printProfileRuns(const std::vector<WorkloadRuns> &Runs) {
  section("profile_runs");
  std::printf("Profile-run sensitivity (paper §7.3): cumulative "
              "concurrent-function-pair count after each run the profile "
              "stage made (4 workers)\n\n");
  for (const WorkloadRuns &W : Runs) {
    std::printf("%-8s:", nameOf(W.Kind));
    unsigned SaturatedAt = 0;
    for (unsigned Run = 0; Run != W.PairsAfterRun.size(); ++Run) {
      std::printf(" %3llu",
                  static_cast<unsigned long long>(W.PairsAfterRun[Run]));
      if (Run == 0 || W.PairsAfterRun[Run] != W.PairsAfterRun[Run - 1])
        SaturatedAt = Run + 1;
    }
    std::printf("   (%zu runs, saturates after run %u)\n",
                W.PairsAfterRun.size(), SaturatedAt);
  }
  std::printf("\nthe stage runs waves of 4 and stops after the first wave "
              "past the first that adds no pair\n"
              "paper reference: pairs saturate after ~5 runs (pfscan) and "
              "~3 runs (water)\n");
}

//===----------------------------------------------------------------------===//
// Work counters: how much scheduler and log work the Table 2 record and
// replay did. They are functions of the simulated schedule alone, so a
// change that only saves host time leaves them alone, and one that moves
// the schedule shows up here.
//===----------------------------------------------------------------------===//

void printWorkCounters(const std::vector<WorkloadRuns> &Runs) {
  section("work_counters");
  std::printf("Work counters of the Table 2 runs (4 workers, all "
              "optimizations)\n\n");
  // A bar before the native, the record, the replay and the log group.
  auto Bar = [](unsigned I) { return I == 0 || I == 2 || I == 5 || I == 8; };
  const char *const Heads[NumWorkCounters] = {
      "nat.iters", "nat.chunks", "rec.iters",  "rec.idle", "rec.chunks",
      "rep.iters", "rep.idle",   "rep.chunks", "order.B"};
  std::printf("%-10s", "app");
  for (unsigned I = 0; I != NumWorkCounters; ++I)
    std::printf("%s%10s", Bar(I) ? " | " : " ", Heads[I]);
  std::printf("\n");
  hrule(118);
  for (const WorkloadRuns &W : Runs) {
    std::printf("%-10s", nameOf(W.Kind));
    for (unsigned I = 0; I != NumWorkCounters; ++I)
      std::printf("%s%10llu", Bar(I) ? " | " : " ",
                  static_cast<unsigned long long>(W.Work[I]));
    std::printf("\n");
  }
  hrule(118);
  std::printf("\ncolumns: runtime.native.sched.{loop_iterations,"
              "dispatch_chunks}, runtime.{record,replay}.sched."
              "{loop_iterations,idle_hops,dispatch_chunks} and "
              "runtime.record.log.order.total.bytes\n");
}

} // namespace

int main() {
  std::vector<WorkloadRuns> Runs;
  for (WorkloadKind K : allWorkloads())
    Runs.push_back(measure(K));

  printTable1();
  std::printf("\n");
  printTable2(Runs);
  std::printf("\n");
  printFig5(Runs);
  std::printf("\n");
  printFig6(Runs);
  std::printf("\n");
  printFig7(Runs);
  std::printf("\n");
  printFig8(Runs);
  std::printf("\n");
  for (const WorkloadRuns &W : Runs)
    if (W.Kind == WorkloadKind::Radix)
      printAblations(W);
  std::printf("\n");
  printProfileRuns(Runs);
  std::printf("\n");
  printWorkCounters(Runs);
  return 0;
}
