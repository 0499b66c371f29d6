//===- bench/table2_record_replay.cpp - Paper Table 2 ----------------------===//
//
// Reproduces Table 2: per application, the DRF log volume (syscalls +
// original synchronization), weak-lock log counts by granularity, record
// and replay overheads (all optimizations enabled, 4 worker threads),
// and compressed log sizes. Every replay is verified bit-exact against
// its recording before being reported.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "replay/LogCodec.h"

using namespace chimera;
using namespace chimera::bench;
using namespace chimera::workloads;
using GranularityIndex = ir::WeakLockGranularity;

int main() {
  std::printf("Table 2: Chimera record and replay performance "
              "(4 worker threads, all optimizations)\n\n");
  std::printf("%-10s | %9s %9s | %9s %9s %9s %9s | %9s %9s | %6s %6s | "
              "%8s %8s\n",
              "app", "syscalls", "synch.ops", "instr.log", "bblk.log",
              "loop.log", "func.log", "native", "record", "rec.ov",
              "rep.ov", "in.KB", "ord.KB");
  hrule(146);

  std::vector<double> RecOverheads, RepOverheads;

  for (WorkloadKind K : allWorkloads()) {
    auto P = pipelineFor(K, /*Workers=*/4);
    auto Native = P->runOriginalNative(BenchSeed);
    requireOk(Native, "native");
    auto Out = P->recordAndReplay(BenchSeed);
    requireOk(Out.Record, "record");
    requireOk(Out.Replay, "replay");
    // StateHash covers memory and the output stream.
    if (!Out.Deterministic) {
      std::fprintf(stderr, "%s replay diverged\n", workloadInfo(K).Name);
      return 1;
    }

    const rt::RunStats &S = Out.Record.Stats;
    replay::LogSizes Sizes = replay::measureLog(Out.Record.Log);
    double RecOv = overheadOf(Out.Record, Native);
    double RepOv = overheadOf(Out.Replay, Native);
    RecOverheads.push_back(RecOv);
    RepOverheads.push_back(RepOv);

    // DRF logs: nondeterministic inputs plus the order of original
    // synchronization (the paper's "sufficient for data-race-free
    // programs" column).
    uint64_t SyncLogs = S.SyncOps + S.OutputOps + S.SpawnedThreads;

    std::printf("%-10s | %9llu %9llu | %9llu %9llu %9llu %9llu | "
                "%9llu %9llu | %6.2f %6.2f | %8.1f %8.1f\n",
                workloadInfo(K).Name,
                static_cast<unsigned long long>(S.Syscalls),
                static_cast<unsigned long long>(SyncLogs),
                static_cast<unsigned long long>(
                    S.WeakAcquires[unsigned(GranularityIndex::Instr)]),
                static_cast<unsigned long long>(
                    S.WeakAcquires[unsigned(GranularityIndex::BasicBlock)]),
                static_cast<unsigned long long>(
                    S.WeakAcquires[unsigned(GranularityIndex::Loop)]),
                static_cast<unsigned long long>(
                    S.WeakAcquires[unsigned(GranularityIndex::Function)]),
                static_cast<unsigned long long>(
                    Native.Stats.MakespanCycles),
                static_cast<unsigned long long>(S.MakespanCycles), RecOv,
                RepOv, Sizes.InputCompressed / 1024.0,
                Sizes.OrderCompressed / 1024.0);
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

  // -- Epoch-parallel replay, 8 jobs -------------------------------------
  // Each app re-recorded through the streaming engine and replayed at 8
  // jobs; the speedup column is the critical-path projection
  // (sequential wall / slowest epoch), hardware-independent.
  std::printf("\nEpoch-parallel replay (8 jobs, checkpoint every 64 "
              "events)\n\n");
  std::printf("%-10s %8s %10s %12s %12s\n", "app", "epochs", "seq wall",
              "crit. path", "proj. spdup");
  hrule(58);
  std::vector<double> Speedups;
  for (WorkloadKind K : allWorkloads()) {
    core::PipelineConfig Config;
    Config.CheckpointEvery = 64;
    auto PE = workloads::buildPipelineEx(K, /*Workers=*/4, Config);
    if (!PE) {
      std::fprintf(stderr, "failed to build %s: %s\n", workloadInfo(K).Name,
                   PE.error().message().c_str());
      return 1;
    }
    ReplayJobsSweep Sweep =
        replayJobsSweep(**PE, workloadInfo(K).Name, {8});
    const ReplayJobsPoint &Pt = Sweep.Points.front();
    Speedups.push_back(Pt.ProjectedSpeedup);
    std::printf("%-10s %8u %9.3fs %11.3fs %11.2fx\n", workloadInfo(K).Name,
                Pt.Epochs, Sweep.SequentialSeconds, Pt.CriticalPathSeconds,
                Pt.ProjectedSpeedup);
  }
  hrule(58);
  std::printf("%-10s geomean projected speedup %.2fx; every parallel "
              "replay verified bit-identical to sequential\n",
              "summary", geomean(Speedups));
  return 0;
}
