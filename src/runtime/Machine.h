//===- runtime/Machine.h - The Chimera execution simulator ------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multicore execution simulator that substitutes for the paper's
/// modified Linux/pthreads testbed. It interprets Chimera IR on N
/// simulated cores with a cycle cost model, supports three modes —
///
///  - Native: run the program; scheduler quanta and input values come
///    from a seeded RNG, so runs are repeatable per seed but exhibit
///    genuine cross-seed nondeterminism.
///  - Record: Native plus logging — input values per thread, a total
///    order per synchronization object (including Chimera's weak-locks,
///    the output stream, and the thread table), and any weak-lock
///    revocation points. Logging costs simulated cycles, which is what
///    the paper's "recording overhead" measures.
///  - Replay: inputs come from the log and every ordered operation is
///    gated on its object's recorded sequence; blocking input latencies
///    are skipped (so I/O-bound programs replay faster, as in the
///    paper). Divergence (a gate that can never open, or an input-log
///    mismatch) is detected and reported.
///
/// Weak-lock semantics (paper §2.3) including ranged loop-locks and
/// timeout revocation are implemented here with WeakLockManager.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_RUNTIME_MACHINE_H
#define CHIMERA_RUNTIME_MACHINE_H

#include "ir/Module.h"
#include "runtime/CostModel.h"
#include "runtime/Decoded.h"
#include "runtime/ExecutionLog.h"
#include "runtime/Memory.h"
#include "runtime/Observer.h"
#include "runtime/Scheduler.h"
#include "runtime/SyncObjects.h"
#include "runtime/Thread.h"
#include "runtime/WeakLock.h"
#include "support/Expected.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/Trace.h"

#include <memory>
#include <string>

namespace chimera {
namespace rt {

class LogEventSink;
struct MachineSnapshot;

enum class ExecMode : uint8_t { Native, Record, Replay };

struct MachineOptions {
  ExecMode Mode = ExecMode::Native;
  unsigned NumCores = 4;
  uint64_t Seed = 1;
  CostModel Costs = CostModel::defaultModel();

  /// Scheduler quantum bounds in cycles (record/native draws uniformly;
  /// replay uses QuantumMin).
  uint64_t QuantumMin = 3000;
  uint64_t QuantumMax = 9000;

  /// Weak-lock revocation threshold in cycles. Generous by default so
  /// that (as in the paper) benchmarks never time out; tests shrink it.
  uint64_t WeakLockTimeout = 500'000'000;

  /// Upper bound on instructions dispatched per scheduling decision,
  /// counted across the busy cores a batch passes through. Purely a
  /// host-side amortization knob: the batch follows the lowest-clock
  /// busy core and ends early at any point where a sleeper wakeup, slice
  /// expiry, due checkpoint, newly ready thread, maturing weak wait, or
  /// an idle core that is not parked could be observed (idle cores that
  /// can only hop behind the lowest busy clock are parked and written
  /// back where they would stand), so results (hashes, logs,
  /// checkpoints, stats) are bit-identical for every value; 1
  /// reproduces unbatched dispatch instruction for instruction.
  unsigned DispatchBatch = 64;

  /// Hard cap to catch runaway simulations.
  uint64_t MaxInstructions = 2'000'000'000;

  const ExecutionLog *ReplayLog = nullptr; ///< Required in Replay mode.
  ExecutionObserver *Observer = nullptr;   ///< Optional event sink.

  /// Record mode: streaming sink receiving every log record as it is
  /// appended (see runtime/LogEvents.h). The in-memory ExecutionLog is
  /// still built, so results are unchanged by attaching one.
  LogEventSink *LogSink = nullptr;

  /// Record mode with a LogSink: emit a checkpoint every this many log
  /// events (0 = never). A checkpoint is taken at the top of the
  /// scheduling loop right after the dispatch attempt that logged its
  /// event, where no thread is mid-operation, so the file does not
  /// depend on DispatchBatch.
  uint64_t CheckpointEvery = 0;

  /// Replay mode: resume from this checkpoint instead of a cold start.
  /// The snapshot must come from a recording of the same module and
  /// ReplayLog must be the full recorded log.
  const MachineSnapshot *ResumeFrom = nullptr;

  /// Replay mode: stop at this checkpoint instead of running to the end
  /// of the log (epoch-parallel replay). Each thread is parked exactly
  /// at the retired-instruction count the snapshot records for it, gate
  /// and input cursors are clamped at the snapshot's positions, and the
  /// run ends successfully once every thread is parked with all cursors
  /// matching — ExecutionResult::StateHash is then the state at the
  /// boundary, comparable to the snapshot's StateHash. Any mismatch
  /// (overshoot, cursor divergence, thread-count drift) fails the run.
  const MachineSnapshot *StopAt = nullptr;

  /// Observability sinks (both optional, both host-side only).
  ///
  /// Unlike \c Observer, these add nothing to execFast's loop: metrics
  /// are collected into plain per-machine counters at points the
  /// generic path already visits (sync ops, log appends, scheduling
  /// decisions) and published to the registry once at the end of
  /// run(). Nothing here feeds back into simulated state, so logs,
  /// hashes, and stats are bit-identical with or without them.
  obs::Registry *Metrics = nullptr;
  obs::TraceRecorder *Trace = nullptr;
};

/// Counters collected during one run; the benchmark tables are printed
/// from these.
struct RunStats {
  uint64_t MakespanCycles = 0;
  uint64_t CpuBusyCycles = 0;
  uint64_t Instructions = 0;
  uint64_t MemOps = 0;       ///< Dynamic loads+stores.
  uint64_t SyncOps = 0;      ///< Original-program sync operations.
  uint64_t Syscalls = 0;     ///< input/net_recv/file_read executed.
  uint64_t OutputOps = 0;
  uint64_t SpawnedThreads = 0;
  uint64_t Revocations = 0;
  uint64_t LogEvents = 0;    ///< Total log records appended (record mode).

  // Indexed by ir::WeakLockGranularity.
  uint64_t WeakAcquires[4] = {0, 0, 0, 0};
  uint64_t WeakCpuCycles[4] = {0, 0, 0, 0};  ///< Lock-op + log CPU cost.
  uint64_t WeakWaitCycles[4] = {0, 0, 0, 0}; ///< Contention stall time.

  uint64_t weakAcquiresTotal() const {
    return WeakAcquires[0] + WeakAcquires[1] + WeakAcquires[2] +
           WeakAcquires[3];
  }
};

struct ExecutionResult {
  bool Ok = false;
  std::string Error;
  uint64_t StateHash = 0; ///< Memory + output fingerprint.
  std::vector<uint64_t> Output;
  RunStats Stats;
  ExecutionLog Log; ///< Populated in Record mode.
};

class Machine {
public:
  Machine(const ir::Module &M, MachineOptions Opts);

  /// Runs the program to completion (or fault); single use.
  ExecutionResult run();

  /// Snapshot of the attached metrics registry; fails when the machine
  /// was built without one (MachineOptions::Metrics == nullptr).
  support::Expected<obs::Snapshot> metrics() const;

  /// Captures resumable machine state (record mode, between dispatches).
  /// Record-only scheduling state is normalized into replay-expressible
  /// form; see runtime/Snapshot.h for the contract.
  MachineSnapshot captureSnapshot() const;

private:
  enum class Step : uint8_t {
    Continue, ///< Instruction done, thread still on core.
    Yielded,  ///< Thread goes back to the ready queue.
    Blocked,  ///< Thread left the core (sleep/queue/gate).
    Finished, ///< Thread completed.
    Fault,    ///< Machine must stop.
  };

  /// Where the idle cores parked behind a dispatch batch would stand if
  /// they had hopped after every attempt, over one run of attempts on
  /// the same core (see stepCore). Each parked core stands 0 or 1 cycle
  /// past the lowest busy clock; O is that offset when the run began.
  /// A parked core with a lower index than the running core sits one
  /// cycle past the clock before the latest attempt; a higher-index one
  /// sits F(O) cycles past it, where each attempt composes onto F
  /// "keep" (0 cycles), "flip" (1 cycle) or "set to 1" (longer).
  struct IdlePhase {
    uint64_t LastStart = 0; ///< Core clock before the latest attempt.
    bool Keep = true, Flip = false; ///< F(O) = (Keep & O) ^ Flip.
    bool LastKeep = true, LastFlip = false; ///< F before the latest attempt.
    void step(uint64_t From, uint64_t To) {
      LastStart = From;
      LastKeep = Keep;
      LastFlip = Flip;
      uint64_t D = To - From;
      if (D == 1) {
        Flip = !Flip;
      } else if (D > 1) {
        Keep = false;
        Flip = true;
      }
    }
    /// Where the parked core \p C stood before the latest attempt of a
    /// run on \p Core, given its offset \p O when the run began.
    uint64_t lastClock(unsigned C, unsigned Core, uint8_t O) const {
      return LastStart + (C < Core ? 1 : ((LastKeep & (O != 0)) ^ LastFlip));
    }
  };

  // -- Top-level loop (Machine.cpp).
  void startThread(uint32_t FuncId, const std::vector<uint64_t> &Args,
                   uint32_t ParentTid, uint64_t Now);
  /// Dispatches up to Opts.DispatchBatch instructions (each preceded by
  /// pending-op handling), binding a new thread to \p Core first if the
  /// core is idle. The batch starts on \p Core and passes to whichever
  /// busy core holds the lowest (clock, index) key, as the main loop
  /// would; it ends at the first point where the main loop's
  /// per-instruction observations could differ from re-entering it (see
  /// the implementation). Returns false when the core could make no
  /// progress.
  bool stepCore(unsigned Core);
  /// Does in one pass what the main loop's per-hop iterations would do
  /// when nothing can happen on an idle core: every idle core below the
  /// lowest busy core's (clock, index) key jumps to that clock + 1.
  void hopInertIdleCores();
  /// True when a streamed checkpoint is due at the next loop iteration.
  bool checkpointDue() const {
    return NextCheckpointAt && Stats.LogEvents >= NextCheckpointAt;
  }
  bool wakeSleepers(uint64_t Now);
  uint64_t nextWakeTime() const;
  void fail(const std::string &Message);
  bool allFinished() const;
  void reportStall(); ///< Deadlock / replay divergence diagnosis.

  // -- Epoch fence (MachineOptions::StopAt).
  /// Retired-instruction target for \p Tid at the epoch boundary, or
  /// UINT64_MAX when unfenced.
  uint64_t stopTarget(uint32_t Tid) const;
  /// Parks \p T at the boundary (BlockReason::EpochEnd); fails the run
  /// on overshoot.
  Step parkAtEpochEnd(Thread &T, unsigned Core);
  /// Called when no core can make progress under StopAt: verifies every
  /// thread is parked exactly at its target with gate/input cursors
  /// matching the snapshot. On success the run ends as an epoch.
  bool epochComplete();

  // -- Per-instruction execution (Interpreter.cpp).
  /// Executes one scheduler- or log-visible instruction (sync, spawn,
  /// join, I/O, yield, weak-lock); the pure opcodes are execFast's.
  Step execInstruction(Thread &T, unsigned Core);
  /// The interpreter of the pure opcodes: retires up to \p MaxInsts
  /// straight-line instructions (ALU/memory/branch/call/ret — nothing
  /// scheduler- or log-visible) with frame, register file, and core
  /// clock hoisted into locals, stopping early once the core clock
  /// reaches \p StopTime or the next opcode needs execInstruction.
  /// \p Retired reports the count; state is written back exactly as if
  /// each instruction had been dispatched individually. With an observer
  /// attached, each memory access, call and return is reported to it.
  /// Each retired instruction (and a faulting one) is one dispatch
  /// attempt for \p Phase; the first attempt began at \p AttemptStart.
  Step execFast(Thread &T, unsigned Core, uint64_t MaxInsts,
                uint64_t StopTime, uint64_t AttemptStart, IdlePhase &Phase,
                uint64_t &Retired);
  /// execFast's loop, inlined into it once per value of \p Observed
  /// (Opts.Observer != nullptr), so the unobserved loop has no observer
  /// code at all.
  template <bool Observed>
  Step execChunk(Thread &T, unsigned Core, uint64_t MaxInsts,
                 uint64_t StopTime, uint64_t AttemptStart, IdlePhase &Phase,
                 uint64_t &Retired);
  Step execPending(Thread &T, unsigned Core); ///< Revocations/reacquires.
  /// False when execPending would return Continue without acting: no
  /// replayed revocations, no cond-wait mutex, no forced reacquisition.
  bool hasPending(const Thread &T) const {
    return HasRevocations || PendingMutex[T.Tid] >= 0 ||
           !T.PendingReacquire.empty();
  }
  void advance(Thread &T);          ///< Move past the current instruction.
  uint64_t reg(Thread &T, ir::Reg R) const;
  void setReg(Thread &T, ir::Reg R, uint64_t Value);

  // -- Ordered-object helpers (Machine.cpp).
  /// Record mode: appends (Tid, Op) to the object's order log.
  void recordOrdered(uint32_t Obj, uint32_t Tid, OrderedOp Op,
                     unsigned Core);
  /// Replay mode: true when (Tid, Op) is next in the object's order.
  bool gateOpen(uint32_t Obj, uint32_t Tid, OrderedOp Op) const;
  /// Replay mode: consume the gate entry and wake gate waiters.
  void gateAdvance(uint32_t Obj, uint64_t Now);
  /// Blocks \p T at the replay gate of \p Obj.
  void blockOnGate(Thread &T, uint32_t Obj, uint64_t Now);
  void wakeGateWaiters(uint32_t Obj, uint64_t Now);
  bool isReplay() const { return Opts.Mode == ExecMode::Replay; }
  bool isRecord() const { return Opts.Mode == ExecMode::Record; }

  // -- Synchronization implementations (Machine.cpp).
  Step doMutexLock(Thread &T, uint32_t MutexId, unsigned Core);
  Step doMutexUnlock(Thread &T, uint32_t MutexId, unsigned Core);
  Step doBarrierWait(Thread &T, uint32_t BarrierId, unsigned Core);
  Step doCondWait(Thread &T, uint32_t CondId, uint32_t MutexId,
                  unsigned Core);
  Step doCondSignal(Thread &T, uint32_t CondId, bool Broadcast,
                    unsigned Core);
  Step doSpawn(Thread &T, const DecodedInst &Inst, unsigned Core);
  Step doJoin(Thread &T, uint32_t ChildTid, unsigned Core);
  Step doOutput(Thread &T, uint64_t Value, unsigned Core);
  Step doInputOp(Thread &T, InputKind Kind, ir::Reg Dst, unsigned Core);
  Step doWeakAcquire(Thread &T, uint32_t LockId, unsigned SiteGran,
                     bool HasRange, uint64_t Lo, uint64_t Hi, unsigned Core);
  Step doWeakRelease(Thread &T, uint32_t LockId, unsigned Core,
                     bool Forced);
  /// Replay: apply every recorded forced-release episode due at \p V's
  /// current instruction boundary. An episode is the run of consecutive
  /// pending revocation events with \p V's instret and no repeated lock,
  /// and applies all-or-nothing once every lock in it is held with its
  /// release gate open. With \p ParkOnShutGate (the self-application
  /// path, where \p V is the running thread) a due-but-gated episode
  /// blocks \p V on the shut gate; otherwise (the machine-side sweep
  /// over blocked victims) it is simply retried later. Returns Blocked
  /// only in the former case.
  Step applyForcedReleases(Thread &V, unsigned Core, bool ParkOnShutGate);

  void grantMutexToNextWaiter(uint32_t MutexId, uint64_t Now,
                              unsigned Core);
  void grantWeakWaiters(uint32_t LockId, uint64_t Now);
  /// Returns true when a revocation was performed (it may touch another
  /// core's clock, so a dispatch batch must end).
  bool checkWeakTimeouts(uint64_t Now);
  /// First clock at which the earliest weak wait has lasted
  /// WeakLockTimeout (saturating); UINT64_MAX when none ever does.
  uint64_t weakMaturity() const;
  /// True when a weak-lock is held and weakMaturity() has passed at
  /// \p Now — the only case in which checkWeakTimeouts can revoke.
  bool weakWaitMatured(uint64_t Now) const;
  /// True when thread \p Tid is stalled with no way to make progress on
  /// its own: blocked on a strong primitive, or blocked on a weak-lock
  /// whose obstruction chain (holders and earlier conflicting waiters)
  /// itself bottoms out in a strong blockage or a weak-wait cycle.
  /// Chains whose tail is Running/Ready/Sleeping are alive — every
  /// participant eventually releases — so revoking them is unnecessary.
  /// \p Mark is the DFS state (0 unseen / 1 on path / 2 known-alive).
  bool weakChainStuck(uint32_t Tid, std::vector<uint8_t> &Mark) const;
  /// The distinguished revocation beneficiary: the lowest-tid thread
  /// blocked on a weak-lock whose obstruction chain is stuck, or
  /// UINT32_MAX when none. Revocations feed only this thread (and its
  /// choice depends only on simulated state, so record is
  /// deterministic); a stable priority is what guarantees progress —
  /// see checkWeakTimeouts.
  uint32_t stuckBeneficiary(std::vector<uint8_t> &Mark) const;
  /// Absolute time at which the current beneficiary's wait matures
  /// (Since + WeakLockTimeout, saturating); UINT64_MAX when there is no
  /// beneficiary or the timeout is effectively infinite. Drives the
  /// all-idle rescue wakeup.
  uint64_t revocationMaturityTime() const;
  void performRevocation(const WeakLockManager::Timeout &TO, uint64_t Now);
  void makeReady(uint32_t Tid, uint64_t Now);
  void finishThread(Thread &T, uint64_t Now);

  void chargeWeakCpu(uint32_t LockId, unsigned SiteGran, uint64_t Cycles,
                     unsigned Core);

  // -- Observability (Machine.cpp). Collection is gated on CollectObs
  // and uses plain (non-atomic) members: the machine runs on one host
  // thread, and the registry is only touched once, in publishObs().
  void unbindCore(unsigned Core); ///< CoreThread[Core] = -1 + quantum obs.
  void obsRecordOrdered(OrderedOp Op, uint64_t PackedValue);
  void publishObs();

  // -- Checkpointing (Snapshot.cpp).
  /// Rebuilds machine state from a checkpoint (replay mode, called from
  /// run() in place of starting the main thread).
  void restoreFromSnapshot(const MachineSnapshot &Snap);
  /// Hash of current memory + output, same formula as the final
  /// ExecutionResult::StateHash.
  uint64_t stateHashNow() const;

  const ir::Module &M;
  MachineOptions Opts;
  DecodedProgram Prog; ///< Execution-format view of M (built once).
  Memory Mem;
  SyncObjectTable Syncs;
  WeakLockManager Weak;
  Scheduler Sched;
  Rng SchedRng;
  Rng InputRng;

  std::vector<std::unique_ptr<Thread>> Threads;
  /// Per-thread: pending mutex to acquire before the next instruction
  /// (cond-wait wakeups). -1 when none.
  std::vector<int64_t> PendingMutex;

  ExecutionLog Log;                   ///< Being built (record mode).
  std::vector<uint32_t> GateCursor;   ///< Replay per-object position.
  std::vector<std::vector<uint32_t>> GateWaiters; ///< Tids per object.
  std::vector<uint32_t> InputCursor;  ///< Replay per-thread input index.
  std::vector<std::vector<RevocationEvent>> PendingRevocations;
  std::vector<uint32_t> RevocationCursor;

  std::vector<uint64_t> Output;
  RunStats Stats;
  std::string Error;
  bool Failed = false;

  /// Thread currently bound to each core (-1 = idle) and the end of its
  /// scheduling quantum. Cores advance in near-lockstep — the main loop
  /// always steps the minimum-clock core one instruction — so memory
  /// operations of concurrent threads genuinely interleave.
  std::vector<int64_t> CoreThread;
  std::vector<uint64_t> CoreSliceEnd;
  unsigned SleepingThreads = 0;
  unsigned LiveThreads = 0;   ///< Threads not yet Finished (O(1) allFinished).
  /// Weak-timeout cadence: one tick per dispatch attempt (an execFast
  /// chunk of R instructions is R attempts), a poll every 64 ticks.
  uint64_t WeakCheckTick = 0;
  /// Next Stats.LogEvents threshold at which a checkpoint is emitted
  /// (record mode with a sink and CheckpointEvery > 0; 0 = never).
  uint64_t NextCheckpointAt = 0;
  /// An idle core the current dispatch batch parks, with its offset (0
  /// or 1) past the lowest busy clock when the batch's current run on
  /// one core began. Parked clocks in Sched are stale until the batch
  /// writes them back.
  struct ParkedCore {
    unsigned Core;
    uint8_t Offset;
  };
  std::vector<ParkedCore> Parked;
  /// The busy cores of the current dispatch batch (a core that unbinds
  /// ends the batch, so the set is fixed within one).
  std::vector<unsigned> BatchBusy;
  /// Replaying a log that contains revocations: machine-side forced
  /// releases must be re-checked before every instruction, so dispatch
  /// batching is disabled.
  bool HasRevocations = false;
  /// StopAt fence reached cleanly: every thread parked at its target.
  bool EpochDone = false;

  // -- Observability collection (all dead weight unless CollectObs).
  bool CollectObs = false; ///< Opts.Metrics != nullptr.
  struct LockObs {
    uint64_t Acquires = 0;
    uint64_t WaitCycles = 0;
    uint64_t CpuCycles = 0;
    uint64_t Revocations = 0;
  };
  std::vector<LockObs> ObsPerLock; ///< Indexed by weak-lock id.
  static constexpr unsigned NumOrderedOps = 16; ///< 4-bit op space.
  uint64_t ObsOrderCount[NumOrderedOps] = {};
  uint64_t ObsOrderBytes[NumOrderedOps] = {};
  uint64_t ObsInputCount = 0, ObsInputBytes = 0;
  uint64_t ObsRevCount = 0, ObsRevBytes = 0;
  uint64_t ObsQuanta = 0;
  uint64_t ObsQuantumGranted = 0, ObsQuantumUsed = 0;
  uint64_t ObsWeakPolls = 0;        ///< checkWeakTimeouts scans performed.
  uint64_t ObsWeakPollsSkipped = 0; ///< Polls that returned at a gate.
  uint64_t ObsLoopIterations = 0;   ///< Main scheduling-loop iterations.
  uint64_t ObsIdleHops = 0;         ///< Iterations that only hop an idle core.
  uint64_t ObsDispatchChunks = 0;   ///< execFast chunks + generic attempts.
  std::vector<uint64_t> CoreSliceStart; ///< Bind-time clock per core.
};

} // namespace rt
} // namespace chimera

#endif // CHIMERA_RUNTIME_MACHINE_H
