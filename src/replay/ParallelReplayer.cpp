//===- replay/ParallelReplayer.cpp - Epoch-parallel log replay -------------===//

#include "replay/ParallelReplayer.h"

#include <algorithm>
#include <chrono>
#include <utility>

using namespace chimera;
using namespace chimera::replay;

namespace {

uint64_t nowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One epoch's decoded record range, in stream order. Ordered/input
/// events keep their object/thread key so fragments concatenate into an
/// ExecutionLog without re-reading the file.
struct Fragment {
  std::vector<std::pair<uint32_t, rt::OrderedEvent>> Ordered;
  std::vector<std::pair<uint32_t, rt::InputEvent>> Inputs;
  std::vector<rt::RevocationEvent> Revocations;

  bool SawMeta = false; ///< Legal only in epoch 0, as the first record.
  uint32_t NumSyncObjects = 0, NumWeakLocks = 0;

  bool SawEnd = false; ///< Legal only in the final epoch.
  uint32_t NumThreads = 0;
  uint64_t TotalOrdered = 0, TotalInputs = 0;

  uint64_t BoundaryHash = 0; ///< The terminating checkpoint's StateHash.
  bool HitBoundary = false;

  /// Anything inconsistent with the checkpoint chain (decode error,
  /// early EOF, unexpected record). Triggers the sequential fallback —
  /// never a guess.
  bool Bad = false;
};

/// Streams \p Cur until the epoch's terminating checkpoint (the
/// \p CkptsToConsume-th one) or, for the final epoch, the End record.
void decodeFragment(LogReader &Cur, size_t CkptsToConsume, bool IsFirst,
                    bool IsLast, Fragment &F) {
  LogReader::Record R;
  size_t Seen = 0;
  for (;;) {
    support::Expected<bool> Got = Cur.next(R);
    if (!Got) {
      F.Bad = true;
      return;
    }
    if (!*Got) {
      // Clean EOF is only legal after the final epoch's End record.
      F.Bad = true;
      return;
    }
    switch (R.Tag) {
    case RecordTag::Meta:
      if (!IsFirst || F.SawMeta || !F.Ordered.empty() || !F.Inputs.empty() ||
          !F.Revocations.empty()) {
        F.Bad = true;
        return;
      }
      F.SawMeta = true;
      F.NumSyncObjects = R.NumSyncObjects;
      F.NumWeakLocks = R.NumWeakLocks;
      break;
    case RecordTag::Ordered:
      F.Ordered.emplace_back(R.Obj, rt::OrderedEvent{R.Tid, R.Op});
      break;
    case RecordTag::Input:
      F.Inputs.emplace_back(R.Tid, rt::InputEvent{R.Kind, R.Value});
      break;
    case RecordTag::Revocation:
      F.Revocations.push_back(R.Rev);
      break;
    case RecordTag::Checkpoint:
      ++Seen;
      if (!IsLast && Seen == CkptsToConsume) {
        F.BoundaryHash = R.Snapshot.StateHash;
        F.HitBoundary = true;
        return;
      }
      if (Seen > CkptsToConsume) {
        F.Bad = true; // More checkpoints than the chain enumerated.
        return;
      }
      break;
    case RecordTag::End:
      if (!IsLast) {
        F.Bad = true;
        return;
      }
      F.SawEnd = true;
      F.NumThreads = R.NumThreads;
      F.TotalOrdered = R.TotalOrdered;
      F.TotalInputs = R.TotalInputs;
      return;
    }
  }
}

/// Epoch boundaries: checkpoint indices chosen so epochs carry roughly
/// equal log-event counts. The total is estimated as the last
/// checkpoint's event count plus one average inter-checkpoint gap for
/// the tail after it.
std::vector<size_t>
pickBoundaries(const std::vector<LogReader::CheckpointInfo> &Infos,
               unsigned K) {
  std::vector<size_t> B;
  size_t N = Infos.size();
  if (K <= 1 || N == 0)
    return B;
  uint64_t Tlast = Infos.back().LogEventsAtCapture;
  uint64_t Est = Tlast + Tlast / N;
  size_t Next = 0;
  for (unsigned I = 1; I < K; ++I) {
    uint64_t Target = Est * I / K;
    size_t Pick = Next;
    while (Pick < N && Infos[Pick].LogEventsAtCapture < Target)
      ++Pick;
    if (Pick >= N)
      break;
    B.push_back(Pick);
    Next = Pick + 1;
  }
  return B;
}

/// Concatenates fragments in epoch order, validating every boundary
/// against its snapshot's log position (stitch check #1) and the End
/// totals. Returns false on any mismatch.
bool mergeFragments(const std::vector<Fragment> &Frags,
                    const LogReader::CheckpointChain &Chain,
                    rt::ExecutionLog &Log, uint64_t &Stitches) {
  size_t K = Frags.size();
  if (Frags[0].Bad || !Frags[0].SawMeta)
    return false;
  Log.NumSyncObjects = Frags[0].NumSyncObjects;
  Log.NumWeakLocks = Frags[0].NumWeakLocks;
  Log.PerObject.assign(Log.numOrderedObjects(), {});

  for (size_t J = 0; J != K; ++J) {
    const Fragment &F = Frags[J];
    bool Last = J + 1 == K;
    if (F.Bad || (!Last && !F.HitBoundary) || (Last && !F.SawEnd))
      return false;
    if (J > 0 && F.SawMeta)
      return false;

    for (const auto &OE : F.Ordered) {
      if (OE.first >= Log.PerObject.size())
        return false;
      Log.PerObject[OE.first].push_back(OE.second);
    }
    for (const auto &IE : F.Inputs) {
      if (IE.first >= Log.PerThreadInputs.size())
        Log.PerThreadInputs.resize(IE.first + 1);
      Log.PerThreadInputs[IE.first].push_back(IE.second);
    }
    Log.Revocations.insert(Log.Revocations.end(), F.Revocations.begin(),
                           F.Revocations.end());

    if (!Last) {
      // The log prefix merged so far must sit exactly at the boundary
      // snapshot's recorded position.
      const rt::MachineSnapshot &S = Chain.Snapshots[J];
      if (S.GateCursors.size() != Log.PerObject.size())
        return false;
      for (size_t O = 0; O != Log.PerObject.size(); ++O)
        if (Log.PerObject[O].size() != S.GateCursors[O])
          return false;
      size_t Threads =
          std::max(S.InputCursors.size(), Log.PerThreadInputs.size());
      for (size_t T = 0; T != Threads; ++T) {
        uint64_t Want = T < S.InputCursors.size() ? S.InputCursors[T] : 0;
        uint64_t Have =
            T < Log.PerThreadInputs.size() ? Log.PerThreadInputs[T].size() : 0;
        if (Want != Have)
          return false;
      }
      if (Log.Revocations.size() != S.RevocationsDone)
        return false;
      if (F.BoundaryHash != S.StateHash)
        return false;
      ++Stitches;
    } else {
      Log.NumThreads = F.NumThreads;
      if (Log.PerThreadInputs.size() < F.NumThreads)
        Log.PerThreadInputs.resize(F.NumThreads);
      if (Log.totalOrderedEvents() != F.TotalOrdered ||
          Log.totalInputEvents() != F.TotalInputs)
        return false;
      ++Stitches;
    }
  }
  return true;
}

rt::MachineOptions replayOptions(const ParallelReplayer::Options &Opts,
                                 const rt::ExecutionLog &Log) {
  rt::MachineOptions MO = Opts.Machine;
  MO.Mode = rt::ExecMode::Replay;
  MO.Seed = 0xdeadbeef; // Replay must not depend on the seed.
  MO.ReplayLog = &Log;
  MO.ResumeFrom = nullptr;
  MO.StopAt = nullptr;
  // Per-run sinks stay off in epoch machines: they would see partial
  // executions, and the registry is published once by the stitcher.
  MO.Observer = nullptr;
  MO.LogSink = nullptr;
  MO.Metrics = nullptr;
  MO.Trace = nullptr;
  return MO;
}

/// Sequential recovery + cold replay: the reference semantics every
/// parallel outcome is pinned to, and the landing pad whenever the
/// parallel path finds the log (or itself) inconsistent.
ParallelReplayer::Result sequentialReplay(const ir::Module &M,
                                          LogReader &Reader,
                                          const ParallelReplayer::Options &Opts,
                                          bool FellBack) {
  ParallelReplayer::Result Res;
  Res.Epochs = 1;
  Res.FellBackSequential = FellBack;
  LogReader::RecoveredLog RL = Reader.recover();
  Res.LogComplete = RL.Complete;
  if (!RL.Complete)
    Res.LogError = RL.Failure.message();
  Res.Log = std::move(RL.Log);
  // The recovered prefix of a damaged log still replays (the machine
  // rejects it gracefully when the damage predates the Meta record).
  rt::MachineOptions MO = replayOptions(Opts, Res.Log);
  rt::Machine Mach(M, MO);
  Res.Exec = Mach.run();
  return Res;
}

void publishMetrics(obs::Registry *Reg, const ParallelReplayer::Result &Res) {
  if (!Reg)
    return;
  obs::Scope S(Reg, "replay.parallel");
  S.gauge("epochs").set(static_cast<int64_t>(Res.Epochs));
  S.gauge("stitch_checks").set(static_cast<int64_t>(Res.StitchChecks));
  S.gauge("used_index").set(Res.UsedCheckpointIndex ? 1 : 0);
  S.gauge("fallback_sequential").set(Res.FellBackSequential ? 1 : 0);
  uint64_t Max = 0, Sum = 0;
  for (uint64_t W : Res.EpochWallUs) {
    Max = std::max(Max, W);
    Sum += W;
  }
  S.gauge("epoch_wall_us_max").set(static_cast<int64_t>(Max));
  S.gauge("epoch_wall_us_total").set(static_cast<int64_t>(Sum));
  // Max epoch over the ideal (mean) epoch, percent: 100 = perfectly
  // balanced, 2x skew = 200.
  if (Sum > 0 && !Res.EpochWallUs.empty())
    S.gauge("imbalance_pct")
        .set(static_cast<int64_t>(Max * 100 * Res.EpochWallUs.size() / Sum));
}

} // namespace

ParallelReplayer::Result ParallelReplayer::replay(const ir::Module &M,
                                                  LogReader &Reader,
                                                  const Options &Opts) {
  unsigned Jobs = std::max(1u, Opts.Jobs);
  if (Jobs == 1 || !Opts.Pool) {
    Result Res = sequentialReplay(M, Reader, Opts, /*FellBack=*/false);
    publishMetrics(Opts.Metrics, Res);
    return Res;
  }

  // Enumerate + decode the checkpoint chain (O(1) via the CIDX footer
  // when present), keeping only the epoch-boundary snapshots. No usable
  // boundaries -> the log is one epoch.
  LogReader::CheckpointChain Chain = Reader.loadCheckpointChain(
      [Jobs](const std::vector<LogReader::CheckpointInfo> &Infos) {
        return pickBoundaries(
            Infos, static_cast<unsigned>(std::min<uint64_t>(
                       Jobs, static_cast<uint64_t>(Infos.size()) + 1)));
      });
  size_t N = Chain.Infos.size();
  const std::vector<size_t> &B = Chain.Picked;
  unsigned K = static_cast<unsigned>(B.size()) + 1;
  if (K == 1) {
    Result Res = sequentialReplay(M, Reader, Opts, /*FellBack=*/false);
    publishMetrics(Opts.Metrics, Res);
    return Res;
  }

  Result Res;
  Res.Epochs = K;
  Res.UsedCheckpointIndex = Reader.hasCheckpointIndex();

  // Independent cursors: the caller's reader streams epoch 0 from the
  // start; every other epoch gets a fork positioned right after its
  // starting checkpoint, delta accumulators seeded from its snapshot.
  std::vector<LogReader> Forks;
  Forks.reserve(K - 1);
  for (unsigned J = 1; J != K; ++J) {
    support::Expected<LogReader> C =
        Reader.openAt(Chain.Infos[B[J - 1]], &Chain.Snapshots[J - 1]);
    if (!C) {
      Result Seq = sequentialReplay(M, Reader, Opts, /*FellBack=*/true);
      publishMetrics(Opts.Metrics, Seq);
      return Seq;
    }
    Forks.push_back(C.take());
  }
  Reader.rewind();

  // Phase 1: epoch-parallel fragment decode. Per-epoch wall starts
  // here — an epoch's cost is its decode plus its replay, and both
  // parallelize, so the critical-path projection must count both.
  std::vector<Fragment> Frags(K);
  Res.EpochWallUs.assign(K, 0);
  Opts.Pool->parallelFor(K, [&](size_t J) {
    uint64_t T0 = nowUs();
    LogReader &Cur = J == 0 ? Reader : Forks[J - 1];
    bool Last = J + 1 == K;
    size_t FirstCkpt = J == 0 ? 0 : B[J - 1] + 1;
    size_t Ckpts = Last ? N - FirstCkpt : B[J] + 1 - FirstCkpt;
    decodeFragment(Cur, Ckpts, /*IsFirst=*/J == 0, Last, Frags[J]);
    Res.EpochWallUs[J] = nowUs() - T0;
  });

  // Stitch check #1: fragments concatenate exactly onto the snapshots'
  // recorded log positions.
  if (!mergeFragments(Frags, Chain, Res.Log, Res.StitchChecks)) {
    Result Seq = sequentialReplay(M, Reader, Opts, /*FellBack=*/true);
    publishMetrics(Opts.Metrics, Seq);
    return Seq;
  }

  // Phase 2: epoch-parallel replay. Epoch J resumes from checkpoint
  // B[J-1] and runs under the StopAt fence of checkpoint B[J]; the
  // final epoch runs to the end of the log.
  std::vector<rt::ExecutionResult> Epochs(K);
  Opts.Pool->parallelFor(K, [&](size_t J) {
    uint64_t T0 = nowUs();
    rt::MachineOptions MO = replayOptions(Opts, Res.Log);
    if (J > 0)
      MO.ResumeFrom = &Chain.Snapshots[J - 1];
    if (J + 1 != K)
      MO.StopAt = &Chain.Snapshots[J];
    rt::Machine Mach(M, MO);
    Epochs[J] = Mach.run();
    Res.EpochWallUs[J] += nowUs() - T0;
  });

  // Stitch check #2: every epoch ran, and every non-final epoch parked
  // exactly on its boundary snapshot's state.
  bool Stitched = true;
  for (unsigned J = 0; J != K && Stitched; ++J) {
    if (!Epochs[J].Ok)
      Stitched = false;
    if (J + 1 != K && Epochs[J].StateHash != Chain.Snapshots[J].StateHash)
      Stitched = false;
    ++Res.StitchChecks;
  }
  if (!Stitched) {
    Result Seq = sequentialReplay(M, Reader, Opts, /*FellBack=*/true);
    publishMetrics(Opts.Metrics, Seq);
    return Seq;
  }

  // Merge: the final epoch carries the end state (its machine restored
  // the last boundary and ran to completion); countable work sums
  // across epochs. Cycle-domain stats follow the resumed-replay
  // contract: state is bit-identical, timing is not compared.
  Res.Exec = std::move(Epochs[K - 1]);
  for (unsigned J = 0; J + 1 != K; ++J) {
    const rt::RunStats &S = Epochs[J].Stats;
    rt::RunStats &D = Res.Exec.Stats;
    D.CpuBusyCycles += S.CpuBusyCycles;
    D.Instructions += S.Instructions;
    D.MemOps += S.MemOps;
    D.SyncOps += S.SyncOps;
    D.Syscalls += S.Syscalls;
    D.OutputOps += S.OutputOps;
    D.SpawnedThreads += S.SpawnedThreads;
    D.Revocations += S.Revocations;
    D.LogEvents += S.LogEvents;
    for (unsigned G = 0; G != 4; ++G) {
      D.WeakAcquires[G] += S.WeakAcquires[G];
      D.WeakCpuCycles[G] += S.WeakCpuCycles[G];
      D.WeakWaitCycles[G] += S.WeakWaitCycles[G];
    }
  }
  publishMetrics(Opts.Metrics, Res);
  return Res;
}
