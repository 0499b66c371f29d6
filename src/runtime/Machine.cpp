//===- runtime/Machine.cpp - The Chimera execution simulator ---------------===//
//
// Top-level scheduling loop, synchronization semantics, weak-lock
// handling, and record/replay order enforcement. Per-instruction
// interpretation lives in Interpreter.cpp.
//
// Instruction-advance convention: every operation that completes calls
// advance() (or assigns the frame's flat Ip for terminators) exactly
// once, either inline or out-of-band in the waker that completes it. The
// dispatcher never advances.
//
//===----------------------------------------------------------------------===//

#include "runtime/Machine.h"

#include "runtime/LogEvents.h"
#include "runtime/Snapshot.h"

#include <algorithm>
#include <cassert>

using namespace chimera;
using namespace chimera::rt;
using ir::WeakLockGranularity;

LogEventSink::~LogEventSink() = default;
void LogEventSink::onStart(uint32_t, uint32_t) {}
void LogEventSink::onOrdered(uint32_t, uint32_t, OrderedOp) {}
void LogEventSink::onInput(uint32_t, InputKind, uint64_t) {}
void LogEventSink::onRevocation(const RevocationEvent &) {}
void LogEventSink::onCheckpoint(const MachineSnapshot &) {}
void LogEventSink::onEnd(uint32_t, uint64_t, uint64_t) {}

ExecutionObserver::~ExecutionObserver() = default;
void ExecutionObserver::onThreadStart(uint32_t, uint32_t, uint32_t,
                                      uint64_t) {}
void ExecutionObserver::onThreadFinish(uint32_t, uint64_t) {}
void ExecutionObserver::onJoin(uint32_t, uint32_t, uint64_t) {}
void ExecutionObserver::onFunctionEnter(uint32_t, uint32_t, uint64_t) {}
void ExecutionObserver::onFunctionExit(uint32_t, uint32_t, uint64_t) {}
void ExecutionObserver::onMemoryAccess(uint32_t, uint64_t, bool, uint32_t,
                                       ir::InstId, uint64_t) {}
void ExecutionObserver::onSync(uint32_t, ObservedSync, uint32_t, uint64_t,
                               uint64_t) {}
void ExecutionObserver::onWeak(uint32_t, bool, uint32_t, bool, uint64_t,
                               uint64_t, uint64_t) {}

/// Encoded size of \p Value as a LEB128 varint; used to attribute log
/// bytes to record types without re-encoding the log.
static uint64_t varintSize(uint64_t Value) {
  uint64_t Size = 1;
  while (Value >= 0x80) {
    Value >>= 7;
    ++Size;
  }
  return Size;
}

Machine::Machine(const ir::Module &M, MachineOptions Opts)
    : M(M), Opts(Opts) {
  assert((Opts.Mode != ExecMode::Replay || Opts.ReplayLog) &&
         "replay mode requires a log");

  CollectObs = Opts.Metrics != nullptr;
  if (CollectObs)
    ObsPerLock.resize(M.WeakLocks.size());

  Prog.init(M);
  Mem.init(M);
  Syncs.init(M);
  Weak.init(static_cast<uint32_t>(M.WeakLocks.size()));
  Sched.init(Opts.NumCores);
  SchedRng.reseed(Opts.Seed * 0x9e3779b97f4a7c15ull + 1);
  InputRng.reseed(Opts.Seed * 0xd1b54a32d192ed03ull + 2);

  Log.NumSyncObjects = static_cast<uint32_t>(M.Syncs.size());
  Log.NumWeakLocks = static_cast<uint32_t>(M.WeakLocks.size());
  Log.PerObject.resize(Log.numOrderedObjects());
  GateWaiters.resize(Log.numOrderedObjects());

  if (isReplay()) {
    const ExecutionLog &RL = *Opts.ReplayLog;
    // Graceful, not an assert: callers replay logs recovered from
    // damaged files, and a log truncated before its Meta record has no
    // PerObject tables at all — replaying it would index out of bounds.
    // run() checks Failed before its first dispatch.
    if (RL.NumSyncObjects != Log.NumSyncObjects ||
        RL.NumWeakLocks != Log.NumWeakLocks ||
        RL.PerObject.size() != RL.numOrderedObjects()) {
      fail("replay log does not match this module (wrong workload, or "
           "log truncated before its Meta record)");
    } else {
      GateCursor.assign(RL.numOrderedObjects(), 0);
      InputCursor.assign(RL.NumThreads, 0);
      PendingRevocations.resize(RL.NumThreads);
      for (const RevocationEvent &Rev : RL.Revocations)
        if (Rev.Tid < PendingRevocations.size())
          PendingRevocations[Rev.Tid].push_back(Rev);
      RevocationCursor.assign(RL.NumThreads, 0);
      HasRevocations = !RL.Revocations.empty();
    }
  }
}

//===----------------------------------------------------------------------===//
// Thread lifecycle
//===----------------------------------------------------------------------===//

void Machine::startThread(uint32_t FuncId,
                          const std::vector<uint64_t> &Args,
                          uint32_t ParentTid, uint64_t Now) {
  const ir::Function &Func = M.function(FuncId);
  assert(Args.size() == Func.NumParams && "spawn argument count mismatch");

  // Under an epoch fence every spawn inside the epoch has a slot in the
  // boundary snapshot; one past it means the spawn gate failed to clamp.
  if (Opts.StopAt && Threads.size() >= Opts.StopAt->Threads.size()) {
    fail("epoch fence: thread spawned past the boundary snapshot");
    return;
  }

  auto T = std::make_unique<Thread>();
  T->Tid = static_cast<uint32_t>(Threads.size());
  T->State = ThreadState::Ready;
  T->ReadyTime = Now;

  Frame F;
  F.DFunc = &Prog.function(FuncId);
  F.Regs.assign(Func.NumRegs, 0);
  std::copy(Args.begin(), Args.end(), F.Regs.begin());
  T->Stack.push_back(std::move(F));

  uint32_t Tid = T->Tid;
  Threads.push_back(std::move(T));
  PendingMutex.push_back(-1);
  Sched.addReady(Tid, Now);
  ++Stats.SpawnedThreads;
  ++LiveThreads;

  if (Opts.Observer) {
    Opts.Observer->onThreadStart(Tid, ParentTid, FuncId, Now);
    Opts.Observer->onFunctionEnter(Tid, FuncId, Now);
  }
}

void Machine::makeReady(uint32_t Tid, uint64_t Now) {
  Thread &T = *Threads[Tid];
  assert(T.State != ThreadState::Finished && "waking a finished thread");
  if (T.State == ThreadState::Ready || T.State == ThreadState::Running)
    return;
  T.State = ThreadState::Ready;
  T.Reason = BlockReason::None;
  T.ReadyTime = std::max(T.ReadyTime, Now);
  Sched.addReady(Tid, T.ReadyTime);
}

void Machine::finishThread(Thread &T, uint64_t Now) {
  T.State = ThreadState::Finished;
  assert(LiveThreads > 0 && "finishing with no live threads");
  --LiveThreads;
  if (Opts.Observer)
    Opts.Observer->onThreadFinish(T.Tid, Now);

  if (!T.HeldWeak.empty())
    fail("thread " + std::to_string(T.Tid) +
         " finished while holding a weak-lock (instrumenter bug)");

  // Joiners re-attempt their join instruction, which now completes.
  for (uint32_t Joiner : T.JoinWaiters)
    makeReady(Joiner, Now);
  T.JoinWaiters.clear();
}

bool Machine::allFinished() const { return LiveThreads == 0; }

void Machine::fail(const std::string &Message) {
  if (Failed)
    return;
  Failed = true;
  Error = Message;
}

//===----------------------------------------------------------------------===//
// Main loop
//===----------------------------------------------------------------------===//

bool Machine::wakeSleepers(uint64_t Now) {
  if (!SleepingThreads)
    return false;
  bool Woke = false;
  for (auto &T : Threads) {
    if (T->State == ThreadState::Sleeping && T->WakeTime <= Now) {
      T->State = ThreadState::Ready;
      T->ReadyTime = std::max(T->ReadyTime, T->WakeTime);
      Sched.addReady(T->Tid, T->ReadyTime);
      --SleepingThreads;
      Woke = true;
    }
  }
  return Woke;
}

uint64_t Machine::nextWakeTime() const {
  uint64_t Best = UINT64_MAX;
  for (const auto &T : Threads)
    if (T->State == ThreadState::Sleeping)
      Best = std::min(Best, T->WakeTime);
  return Best;
}

void Machine::reportStall() {
  if (allFinished())
    return;
  std::string Who;
  for (const auto &T : Threads) {
    if (T->State == ThreadState::Finished)
      continue;
    Who += " t" + std::to_string(T->Tid) + "(";
    switch (T->Reason) {
    case BlockReason::None: Who += "none"; break;
    case BlockReason::Mutex: Who += "mutex"; break;
    case BlockReason::Barrier: Who += "barrier"; break;
    case BlockReason::CondVar: Who += "cond"; break;
    case BlockReason::Join: Who += "join"; break;
    case BlockReason::WeakLock: Who += "weak"; break;
    case BlockReason::ReplayGate: {
      // Name the object and what its recorded order expects next — gate
      // stalls are unreadable without it.
      Who += "gate obj" + std::to_string(T->WaitObject);
      if (isReplay() && Opts.ReplayLog &&
          T->WaitObject < Opts.ReplayLog->PerObject.size()) {
        const auto &Seq = Opts.ReplayLog->PerObject[T->WaitObject];
        uint32_t Cur = GateCursor[T->WaitObject];
        if (Cur < Seq.size())
          Who += " wants t" + std::to_string(Seq[Cur].Tid) + " op" +
                 std::to_string(static_cast<int>(Seq[Cur].Op));
        else
          Who += " exhausted";
      }
      break;
    }
    case BlockReason::EpochEnd: Who += "epoch-end"; break;
    }
    Who += ")";
  }
  // A replay stall with unapplied forced releases usually means one of
  // them is stuck behind its application guard; name the first per
  // victim so the divergence is diagnosable.
  if (isReplay() && HasRevocations) {
    for (uint32_t Tid = 0; Tid != PendingRevocations.size(); ++Tid) {
      const auto &Pending = PendingRevocations[Tid];
      if (RevocationCursor[Tid] >= Pending.size())
        continue;
      const RevocationEvent &Rev = Pending[RevocationCursor[Tid]];
      Who += " [rev t" + std::to_string(Rev.Tid) + " wl" +
             std::to_string(Rev.LockId) + "@" +
             std::to_string(Rev.Instret);
      if (Rev.Tid < Threads.size()) {
        const Thread &V = *Threads[Rev.Tid];
        Who += " instret=" + std::to_string(V.Instret) +
               " holds=" + (V.holdsWeak(Rev.LockId) ? "y" : "n") +
               " gate=" +
               (gateOpen(Log.weakLockObject(Rev.LockId), Rev.Tid,
                         OrderedOp::WeakRelease)
                    ? "open"
                    : "shut");
      }
      Who += "]";
    }
  }
  fail(std::string(isReplay() ? "replay divergence: no runnable thread"
                              : "deadlock: no runnable thread") +
       " —" + Who);
}

//===----------------------------------------------------------------------===//
// Epoch fence (MachineOptions::StopAt)
//===----------------------------------------------------------------------===//

uint64_t Machine::stopTarget(uint32_t Tid) const {
  if (!Opts.StopAt || Tid >= Opts.StopAt->Threads.size())
    return UINT64_MAX;
  return Opts.StopAt->Threads[Tid].Instret;
}

Machine::Step Machine::parkAtEpochEnd(Thread &T, unsigned Core) {
  uint64_t Target = stopTarget(T.Tid);
  if (T.Instret > Target) {
    fail("epoch fence: thread " + std::to_string(T.Tid) + " overshot its "
         "boundary instruction count (" + std::to_string(T.Instret) +
         " > " + std::to_string(Target) + ")");
    return Step::Fault;
  }
  T.State = ThreadState::Blocked;
  T.Reason = BlockReason::EpochEnd;
  T.BlockStart = Sched.coreTime(Core);
  // Parked threads sit on no waiter list, so nothing can wake them.
  return Step::Blocked;
}

bool Machine::epochComplete() {
  const MachineSnapshot &Stop = *Opts.StopAt;
  auto Diverge = [this](const std::string &What) {
    fail("epoch fence: " + What + " does not match the boundary snapshot");
    return false;
  };
  if (Threads.size() != Stop.Threads.size())
    return Diverge("thread count");
  for (uint32_t Tid = 0; Tid != Threads.size(); ++Tid)
    if (Threads[Tid]->Instret != Stop.Threads[Tid].Instret)
      return Diverge("thread " + std::to_string(Tid) +
                     " instruction count");
  for (uint32_t Obj = 0; Obj != GateCursor.size(); ++Obj)
    if (GateCursor[Obj] != Stop.GateCursors[Obj])
      return Diverge("gate cursor of object " + std::to_string(Obj));
  for (uint32_t Tid = 0; Tid != InputCursor.size(); ++Tid)
    if (Tid < Stop.InputCursors.size() &&
        InputCursor[Tid] != Stop.InputCursors[Tid])
      return Diverge("input cursor of thread " + std::to_string(Tid));
  uint64_t RevsDone = 0;
  for (uint32_t Cur : RevocationCursor)
    RevsDone += Cur;
  if (RevsDone != Stop.RevocationsDone)
    return Diverge("revocation count");
  EpochDone = true;
  return true;
}

ExecutionResult Machine::run() {
  const char *SpanName = isReplay()  ? "machine.run.replay"
                         : isRecord() ? "machine.run.record"
                                      : "machine.run.native";
  CHIMERA_TRACE_SPAN(Opts.Trace, SpanName);
  CoreThread.assign(Opts.NumCores, -1);
  CoreSliceEnd.assign(Opts.NumCores, 0);
  CoreSliceStart.assign(Opts.NumCores, 0);
  Parked.reserve(Opts.NumCores);
  BatchBusy.reserve(Opts.NumCores);

  const bool Streaming = isRecord() && Opts.LogSink != nullptr;
  if (Streaming) {
    Opts.LogSink->onStart(Log.NumSyncObjects, Log.NumWeakLocks);
    NextCheckpointAt = Opts.CheckpointEvery; // 0 disables checkpoints.
  }

  if (isReplay() && Opts.ResumeFrom)
    restoreFromSnapshot(*Opts.ResumeFrom);
  else
    startThread(M.MainFunction, {}, /*ParentTid=*/0, /*Now=*/0);

  while (!Failed && !allFinished()) {
    if (CollectObs)
      ++ObsLoopIterations;
    hopInertIdleCores();
    unsigned Core = Sched.minTimeCore();
    uint64_t Now = Sched.coreTime(Core);
    wakeSleepers(Now);

    // Periodic checkpoints, taken here because no thread is mid-operation
    // between dispatches; "every N log events" keeps the cadence a
    // function of recorded work, not wall time, so it is deterministic.
    // A dispatch batch ends right after the attempt that makes one due,
    // so this is the first iteration after that attempt for every batch
    // size.
    if (checkpointDue()) {
      Opts.LogSink->onCheckpoint(captureSnapshot());
      NextCheckpointAt = Stats.LogEvents + Opts.CheckpointEvery;
    }

    // Forced releases recorded against blocked victims must be applied
    // machine-side during replay, or their waiters would gate forever
    // (in the recording, the kernel preempted the victim asynchronously).
    // A victim that reaches its boundary still running self-applies in
    // execPending instead; see applyForcedReleases for the episode rules.
    if (HasRevocations) {
      for (uint32_t Tid = 0;
           Tid != PendingRevocations.size() && Tid < Threads.size(); ++Tid) {
        Thread &V = *Threads[Tid];
        if (V.State == ThreadState::Running)
          continue;
        applyForcedReleases(V, Core, /*ParkOnShutGate=*/false);
      }
    }

    if (!stepCore(Core)) {
      // The core is idle with nothing runnable: advance its clock to the
      // next event — a sleeper wake, another core's progress, or a
      // weak-lock timeout rescue (paper §2.3's deadlock-breaking case).
      // Only hops where something can happen get here: a thread became
      // ready, a sleeper or checkpoint is due, replay applies forced
      // releases, a weak wait matures, or no core is busy. Every other
      // hop is taken in bulk by hopInertIdleCores or, inside a batch,
      // by parking (stepCore).
      uint64_t Wake = nextWakeTime();
      for (unsigned C = 0; C != Opts.NumCores; ++C)
        if (CoreThread[C] >= 0)
          Wake = std::min(Wake, Sched.coreTime(C) + 1);
      // The timeout rescue (paper §2.3) runs for every plan, certified
      // or not.
      if (Wake == UINT64_MAX && !isReplay()) {
        // Wake exactly when the beneficiary's wait matures (saturating:
        // an effectively-infinite timeout means no rescue). Its Since
        // resets each time a revocation lets it acquire one more lock
        // of its guard set, so the earliest waiter overall is the wrong
        // clock — polling there would spin one cycle at a time until
        // the beneficiary catches up.
        Wake = revocationMaturityTime();
      }
      if (Wake == UINT64_MAX) {
        if (Opts.StopAt) {
          // Nothing can run under the epoch fence: either every thread
          // is exactly at the boundary (epoch done) or this is a real
          // divergence — epochComplete() fails with the mismatch.
          epochComplete();
          break;
        }
        reportStall();
        break;
      }
      if (CollectObs)
        ++ObsIdleHops;
      Sched.setCoreTime(Core, std::max(Now + 1, Wake));
      if (!isReplay() && !M.WeakLocks.empty())
        checkWeakTimeouts(Sched.coreTime(Core));
      continue;
    }
    // Weak-timeout polling for dispatched instructions happens inside
    // stepCore, once per instruction (the pre-batching cadence).
  }

  ExecutionResult Result;
  Result.Ok = !Failed && (allFinished() || EpochDone);
  Result.Error = Error;
  Result.Output = Output;
  Stats.MakespanCycles = Sched.maxTime();
  Result.Stats = Stats;

  Result.StateHash = stateHashNow();

  if (isRecord()) {
    Log.NumThreads = static_cast<uint32_t>(Threads.size());
    Log.PerThreadInputs.resize(Threads.size());
    if (Opts.LogSink)
      Opts.LogSink->onEnd(Log.NumThreads, Log.totalOrderedEvents(),
                          Log.totalInputEvents());
    Result.Log = std::move(Log);
  }
  if (CollectObs)
    publishObs();
  return Result;
}

support::Expected<obs::Snapshot> Machine::metrics() const {
  if (!Opts.Metrics)
    return support::Error::failure(
        "machine has no metrics registry attached; point "
        "MachineOptions::Metrics at an obs::Registry (pipelines do this "
        "automatically when PipelineConfig::Observability != Off)");
  return Opts.Metrics->snapshot();
}

/// Publishes the run's collected counters into the registry, scoped by
/// execution mode (e.g. "runtime.record.*"). Counters accumulate across
/// runs that share a registry — a bench can sum nine workloads into one
/// snapshot; gauges report the last run.
void Machine::publishObs() {
  const char *ModeName = isReplay()  ? "replay"
                         : isRecord() ? "record"
                                      : "native";
  obs::Scope Root(Opts.Metrics, std::string("runtime.") + ModeName);

  obs::Scope Run = Root.sub("run");
  Run.counter("runs").inc();
  Run.counter("instructions").add(Stats.Instructions);
  Run.counter("mem_ops").add(Stats.MemOps);
  Run.counter("sync_ops").add(Stats.SyncOps);
  Run.counter("syscalls").add(Stats.Syscalls);
  Run.counter("output_ops").add(Stats.OutputOps);
  Run.counter("spawned_threads").add(Stats.SpawnedThreads);
  Run.counter("log_events").add(Stats.LogEvents);
  Run.counter("makespan_cycles").add(Stats.MakespanCycles);
  Run.counter("cpu_busy_cycles").add(Stats.CpuBusyCycles);

  obs::Scope WL = Root.sub("weaklock");
  uint64_t TotAcq = 0, TotWait = 0, TotCpu = 0, TotRev = 0;
  for (uint32_t Id = 0; Id != ObsPerLock.size(); ++Id) {
    const LockObs &LO = ObsPerLock[Id];
    TotAcq += LO.Acquires;
    TotWait += LO.WaitCycles;
    TotCpu += LO.CpuCycles;
    TotRev += LO.Revocations;
    if (LO.Acquires == 0 && LO.Revocations == 0)
      continue; // Untouched locks would only bloat the snapshot.
    obs::Scope L = WL.sub(
        "wl" + std::to_string(Id) + "_" +
        obs::sanitizeMetricSegment(M.WeakLocks[Id].Name));
    L.counter("acquires").add(LO.Acquires);
    L.counter("wait_cycles").add(LO.WaitCycles);
    L.counter("cpu_cycles").add(LO.CpuCycles);
    L.counter("revocations").add(LO.Revocations);
  }
  if (!ObsPerLock.empty()) {
    obs::Scope Tot = WL.sub("total");
    Tot.counter("acquires").add(TotAcq);
    Tot.counter("wait_cycles").add(TotWait);
    Tot.counter("cpu_cycles").add(TotCpu);
    Tot.counter("revocations").add(TotRev);
    for (unsigned G = 0; G != 4; ++G) {
      obs::Scope GS = WL.sub("gran").sub(obs::sanitizeMetricSegment(
          ir::weakLockGranularityName(static_cast<WeakLockGranularity>(G))));
      GS.counter("acquires").add(Stats.WeakAcquires[G]);
      GS.counter("cpu_cycles").add(Stats.WeakCpuCycles[G]);
      GS.counter("wait_cycles").add(Stats.WeakWaitCycles[G]);
    }
  }

  if (isRecord()) {
    obs::Scope LogS = Root.sub("log");
    uint64_t OrderCount = 0, OrderBytes = 0;
    for (unsigned Op = 0; Op != NumOrderedOps; ++Op) {
      OrderCount += ObsOrderCount[Op];
      OrderBytes += ObsOrderBytes[Op];
      if (ObsOrderCount[Op] == 0)
        continue;
      obs::Scope OpS = LogS.sub("order").sub(obs::sanitizeMetricSegment(
          orderedOpName(static_cast<OrderedOp>(Op))));
      OpS.counter("records").add(ObsOrderCount[Op]);
      OpS.counter("bytes").add(ObsOrderBytes[Op]);
    }
    LogS.counter("order.total.records").add(OrderCount);
    LogS.counter("order.total.bytes").add(OrderBytes);
    LogS.counter("input.records").add(ObsInputCount);
    LogS.counter("input.bytes").add(ObsInputBytes);
    LogS.counter("revocation.records").add(ObsRevCount);
    LogS.counter("revocation.bytes").add(ObsRevBytes);
  }

  if (!isReplay()) {
    // Weak-timeout poll attribution: how many scans ran and how many
    // returned at the held or maturity gate.
    obs::Scope Wk = Root.sub("weak");
    Wk.counter("poll").add(ObsWeakPolls);
    Wk.counter("poll_skipped").add(ObsWeakPollsSkipped);
  }

  obs::Scope SchedS = Root.sub("sched");
  SchedS.counter("loop_iterations").add(ObsLoopIterations);
  SchedS.counter("idle_hops").add(ObsIdleHops);
  SchedS.counter("dispatch_chunks").add(ObsDispatchChunks);
  SchedS.counter("quanta").add(ObsQuanta);
  SchedS.counter("quantum_cycles_granted").add(ObsQuantumGranted);
  SchedS.counter("quantum_cycles_used").add(ObsQuantumUsed);

  if (isReplay()) {
    // Divergence-check progress: how far through the recorded orders the
    // replay got. On a clean replay consumed == total; on a divergence
    // the gap points at the stuck object.
    const ExecutionLog &RL = *Opts.ReplayLog;
    uint64_t GatesTotal = RL.totalOrderedEvents();
    uint64_t GatesDone = 0;
    for (uint32_t Cur : GateCursor)
      GatesDone += Cur;
    uint64_t InputsTotal = RL.totalInputEvents();
    uint64_t InputsDone = 0;
    for (uint32_t Cur : InputCursor)
      InputsDone += Cur;
    obs::Scope Prog = Root.sub("progress");
    Prog.gauge("gates_total").set(static_cast<int64_t>(GatesTotal));
    Prog.gauge("gates_consumed").set(static_cast<int64_t>(GatesDone));
    Prog.gauge("inputs_total").set(static_cast<int64_t>(InputsTotal));
    Prog.gauge("inputs_consumed").set(static_cast<int64_t>(InputsDone));
  }
}

bool Machine::stepCore(unsigned Core) {
  // Bind a thread if the core is idle.
  if (CoreThread[Core] < 0) {
    if (!Sched.hasReady())
      return false;
    uint32_t Tid = Sched.popReady(isReplay() ? nullptr : &SchedRng,
                                  Sched.coreTime(Core));
    Thread &T = *Threads[Tid];
    T.State = ThreadState::Running;
    if (T.ReadyTime > Sched.coreTime(Core))
      Sched.setCoreTime(Core, T.ReadyTime);
    uint64_t Quantum =
        isReplay() ? Opts.QuantumMin
                   : SchedRng.nextInRange(Opts.QuantumMin, Opts.QuantumMax);
    CoreThread[Core] = Tid;
    CoreSliceEnd[Core] = Sched.coreTime(Core) + Quantum;
    CoreSliceStart[Core] = Sched.coreTime(Core);
  }

  const bool PollWeak = !isReplay() && !M.WeakLocks.empty();

  Thread *T = Threads[CoreThread[Core]].get();
  if (Failed) {
    if (T->State == ThreadState::Running)
      T->State = ThreadState::Faulted;
    unbindCore(Core);
    // The pre-batching loop ticked the weak-timeout counter after every
    // dispatch, including this one.
    if (PollWeak && (++WeakCheckTick & 0x3f) == 0)
      checkWeakTimeouts(Sched.coreTime(Core));
    return true;
  }

  // Dispatch a bounded batch of attempts without returning to the main
  // loop. Batching is invisible to the simulation: between attempts the
  // only machine state the main loop could act on is (a) which busy core
  // holds the lowest (clock, index) key, (b) a sleeper's wake time
  // arriving, (c) a replayed machine-side forced release becoming
  // applicable, (d) a streamed checkpoint falling due, or (e) an idle
  // core hopping — the sleeper set and idle clocks cannot change while
  // the busy cores run. For (a) the batch does what the main loop does:
  // it hands itself to the busy core that now holds the lowest key, with
  // that core's slice end, epoch target and bounds. It ends at the first
  // attempt after which (b) could hold, is disabled outright for (c), and
  // ends right after the attempt that logs a checkpoint's event for (d),
  // so every batch size yields the bit-identical schedule, log,
  // checkpoints, and result. Attempts count across handoffs, so
  // DispatchBatch 1 is the per-attempt reference.
  //
  // (e) is the idle rule. An idle core with nothing to pick up only ever
  // hops to the lowest busy clock + 1, each time the lowest busy key
  // passes its own. While nothing can become ready, no sleeper or
  // checkpoint falls due, replay applies no forced release, and no weak
  // wait matures, such hops change nothing but the idle clock, so idle
  // cores standing 0 or 1 cycle past the lowest busy clock (and above its
  // key) are parked: they do not bound the batch, and their clocks follow
  // from the sequence of lowest busy keys alone (IdlePhase within a run
  // on one core, the hop rule itself at each handoff). When the batch
  // ends they are written back exactly where the per-hop loop would
  // stand. Idle cores further ahead bound the batch instead.
  uint64_t Batch = HasRevocations ? 1 : Opts.DispatchBatch;
  if (Batch == 0)
    Batch = 1;

  // Sort the other cores into busy, parked, and idle ones that bound
  // the batch; of the latter only the lowest (clock, index) key matters.
  // A batch of one attempt ends after it whatever its bounds, so it
  // skips them.
  const uint64_t Start = Sched.coreTime(Core);
  const bool CanPark = !Sched.hasReady();
  BatchBusy.clear();
  Parked.clear();
  uint64_t IdleClock = UINT64_MAX;
  unsigned IdleCore = 0;
  auto BoundBy = [&](unsigned C, uint64_t Clock) {
    if (Clock < IdleClock || (Clock == IdleClock && C < IdleCore)) {
      IdleClock = Clock;
      IdleCore = C;
    }
  };
  for (unsigned C = 0; Batch > 1 && C != Opts.NumCores; ++C) {
    uint64_t Clock = Sched.coreTime(C);
    if (CoreThread[C] >= 0)
      BatchBusy.push_back(C);
    else if (CanPark && (Clock == Start + 1 || (Clock == Start && C > Core)))
      Parked.push_back({C, static_cast<uint8_t>(Clock - Start)});
    else
      BoundBy(C, Clock);
  }

  // A run on core C keeps the lowest busy key while C's clock stays
  // below BusyLimit (set by Next, the busy core with the next-lowest
  // key), and stays below every bounding idle core's key while it is
  // below IdleLimit. Ties go to the lowest index.
  unsigned Next = 0;
  uint64_t BusyLimit = 0, IdleLimit = 0;
  auto Bound = [&](unsigned C) {
    Next = Opts.NumCores;
    for (unsigned B : BatchBusy)
      if (B != C && (Next == Opts.NumCores ||
                     Sched.coreTime(B) < Sched.coreTime(Next)))
        Next = B;
    BusyLimit = Next == Opts.NumCores
                    ? UINT64_MAX
                    : Sched.coreTime(Next) + (Next > C ? 1 : 0);
    IdleLimit = IdleClock == UINT64_MAX ? UINT64_MAX
                                        : IdleClock + (IdleCore > C ? 1 : 0);
  };
  Bound(Core);
  if (!Parked.empty() && Start >= BusyLimit) {
    // Binding moved this core's clock past another busy core's key, so
    // the parked clocks are not relative to the lowest busy clock.
    for (const ParkedCore &P : Parked)
      BoundBy(P.Core, Start + P.Offset);
    Parked.clear();
    Bound(Core);
  }
  // A parked core's hop to clock + 1 polls weak timeouts there; end the
  // batch before such a poll could find a matured wait. Waits begun
  // during the batch block their thread, which ends it anyway.
  uint64_t MatureLimit = UINT64_MAX;
  if (PollWeak && !Parked.empty()) {
    uint64_t Mature = weakMaturity();
    if (Mature != UINT64_MAX)
      MatureLimit = std::max<uint64_t>(Mature, 1) - 1;
  }
  const uint64_t NextWake =
      SleepingThreads && Batch > 1 ? nextWakeTime() : UINT64_MAX;

  // Straight-line runs of pure instructions go through execFast, which
  // retires a whole chunk with machine state hoisted into locals (and
  // reports to the observer, if any). A chunk of R retired instructions
  // stands for R dispatch attempts of the pre-batching loop (execPending
  // is provably vacuous between pure instructions: nothing in a chunk
  // can set a pending mutex or reacquisition, and replay-with-revocations
  // forces Batch = 1). The chunk bound keeps every per-attempt
  // observation intact: it never crosses the batch end, a weak-poll tick
  // boundary, the instruction budget, or a due checkpoint, and execFast
  // itself stops the moment the core clock reaches the earliest of the
  // run's limits, the next wake and the slice end.

  // Epoch fence: the boundary snapshot pins the retired-instruction
  // count at which each thread must freeze. The check runs before every
  // instruction (and bounds execFast chunks), so a thread is parked at
  // exactly its target — anything past it is a divergence.
  uint64_t StopTarget = Opts.StopAt ? stopTarget(T->Tid) : UINT64_MAX;

  IdlePhase Phase{Start};
  for (;;) {
    const uint64_t AttemptStart = Sched.coreTime(Core);
    bool PhaseDone = false; // execFast steps Phase itself.
    uint64_t Attempts = 1;
    Step S = hasPending(*T) ? execPending(*T, Core) : Step::Continue;
    if (S == Step::Continue && T->Instret >= StopTarget)
      S = parkAtEpochEnd(*T, Core);
    else if (S == Step::Continue) {
      uint64_t CountLimit = Batch;
      if (PollWeak)
        CountLimit = std::min(CountLimit, 64 - (WeakCheckTick & 0x3f));
      CountLimit = std::min(CountLimit,
                            Opts.MaxInstructions + 1 - Stats.Instructions);
      if (StopTarget != UINT64_MAX)
        CountLimit = std::min(CountLimit, StopTarget - T->Instret);
      // The pending ops logged a checkpoint's event: this attempt, and
      // with it the batch, ends after one instruction.
      if (checkpointDue())
        CountLimit = 1;
      uint64_t StopTime = std::min(
          {BusyLimit, IdleLimit, MatureLimit, NextWake, CoreSliceEnd[Core]});
      uint64_t Retired = 0;
      S = execFast(*T, Core, CountLimit, StopTime, AttemptStart, Phase,
                   Retired);
      if (Retired == 0 && S == Step::Continue) {
        S = execInstruction(*T, Core); // A visible op heads the chunk.
      } else {
        Attempts = Retired + (S == Step::Fault ? 1 : 0);
        PhaseDone = true;
      }
    }
    if (!PhaseDone)
      Phase.step(AttemptStart, Sched.coreTime(Core));
    if (CollectObs)
      ++ObsDispatchChunks;

    bool StayBound = false;
    switch (S) {
    case Step::Continue:
      if (Stats.Instructions > Opts.MaxInstructions) {
        fail("instruction budget exceeded (runaway program?)");
        unbindCore(Core);
        break;
      }
      if (Sched.coreTime(Core) >= CoreSliceEnd[Core]) {
        T->State = ThreadState::Ready;
        T->ReadyTime = Sched.coreTime(Core);
        Sched.addReady(T->Tid, T->ReadyTime);
        unbindCore(Core);
        break;
      }
      StayBound = true;
      break;
    case Step::Yielded:
      T->State = ThreadState::Ready;
      T->ReadyTime = Sched.coreTime(Core);
      Sched.addReady(T->Tid, T->ReadyTime);
      unbindCore(Core);
      break;
    case Step::Blocked:
      // Per-thread times are monotonic: when next woken, the thread
      // resumes no earlier than where it blocked.
      T->ReadyTime = std::max(T->ReadyTime, Sched.coreTime(Core));
      if (T->State == ThreadState::Sleeping)
        ++SleepingThreads;
      unbindCore(Core);
      break;
    case Step::Finished:
    case Step::Fault:
      unbindCore(Core);
      break;
    }

    // A thread made ready here would be picked up by a parked core's
    // next hop, so it ends the batch like the other observations.
    const uint64_t Now = Sched.coreTime(Core);
    bool End = !StayBound || Failed || Attempts >= Batch ||
               Now >= IdleLimit || Now >= MatureLimit || Now >= NextWake ||
               checkpointDue() || (!Parked.empty() && Sched.hasReady());
    if (End) {
      // Parked cores go back to where the per-hop loop would stand.
      for (const ParkedCore &P : Parked)
        Sched.setCoreTime(P.Core, Phase.lastClock(P.Core, Core, P.Offset));
      Parked.clear();
    }

    // Weak-timeout polling at the pre-batching cadence: one tick per
    // dispatch attempt, check every 64. The chunk bound above never lets
    // a fast-path chunk cross a tick boundary, so the boundary test here
    // fires for exactly the attempts it would have pre-batching. Parked
    // cores are back in place before a poll that can revoke (MatureLimit
    // ends the batch before any wait matures). A performed revocation
    // may move another core's clock, so it also ends the batch.
    bool Revoked = false;
    if (PollWeak) {
      WeakCheckTick += Attempts;
      if ((WeakCheckTick & 0x3f) == 0)
        Revoked = checkWeakTimeouts(Now);
    }
    assert((!Revoked || Parked.empty()) && "revoked past parked cores");

    if (End || Revoked)
      return true;
    Batch -= Attempts;
    if (Now < BusyLimit)
      continue;

    // Hand the batch to the busy core that now holds the lowest key. The
    // main loop would first hop every parked core below that key to its
    // clock + 1, from where it stood before this core's latest attempt.
    const unsigned From = Core;
    Core = Next;
    const uint64_t Lowest = Sched.coreTime(Core);
    for (ParkedCore &P : Parked) {
      uint64_t Clock = Phase.lastClock(P.Core, From, P.Offset);
      if (Clock < Lowest || (Clock == Lowest && P.Core < Core))
        Clock = Lowest + 1;
      assert(Clock - Lowest <= 1 && "parked core left the lowest clock");
      P.Offset = static_cast<uint8_t>(Clock - Lowest);
    }
    T = Threads[CoreThread[Core]].get();
    StopTarget = Opts.StopAt ? stopTarget(T->Tid) : UINT64_MAX;
    Bound(Core);
    Phase = IdlePhase{Lowest};
  }
}

void Machine::hopInertIdleCores() {
  // The lowest busy (clock, index) key, and whether any idle core is
  // below it — only those are hopped by the main loop before it.
  unsigned Busy = Opts.NumCores;
  for (unsigned C = 0; C != Opts.NumCores; ++C)
    if (CoreThread[C] >= 0 &&
        (Busy == Opts.NumCores || Sched.coreTime(C) < Sched.coreTime(Busy)))
      Busy = C;
  if (Busy == Opts.NumCores)
    return;
  const uint64_t BusyTime = Sched.coreTime(Busy);
  auto Below = [&](unsigned C) {
    uint64_t Clock = Sched.coreTime(C);
    return CoreThread[C] < 0 &&
           (Clock < BusyTime || (Clock == BusyTime && C < Busy));
  };
  bool Any = false;
  for (unsigned C = 0; C != Opts.NumCores && !Any; ++C)
    Any = Below(C);
  if (!Any)
    return;

  // Each such hop would wake no sleeper (their clocks are at most
  // BusyTime), bind nothing, take no checkpoint, apply no forced
  // release, land on BusyTime + 1, and poll there without revoking.
  const uint64_t To = BusyTime + 1;
  if (HasRevocations || Sched.hasReady() || checkpointDue() ||
      (SleepingThreads && nextWakeTime() < To) ||
      (!isReplay() && !M.WeakLocks.empty() && weakWaitMatured(To)))
    return;
  for (unsigned C = 0; C != Opts.NumCores; ++C)
    if (Below(C))
      Sched.setCoreTime(C, To);
}

//===----------------------------------------------------------------------===//
// Ordered-object helpers (record append / replay gates)
//===----------------------------------------------------------------------===//

void Machine::unbindCore(unsigned Core) {
  if (CollectObs && CoreThread[Core] >= 0) {
    uint64_t Start = CoreSliceStart[Core];
    uint64_t Now = Sched.coreTime(Core);
    ++ObsQuanta;
    ObsQuantumGranted += CoreSliceEnd[Core] - Start;
    // A batch may retire past the slice end by part of one instruction;
    // clamp so utilization stays a fraction of the grant.
    ObsQuantumUsed += std::min(Now, CoreSliceEnd[Core]) -
                      std::min(Start, CoreSliceEnd[Core]);
  }
  CoreThread[Core] = -1;
}

void Machine::obsRecordOrdered(OrderedOp Op, uint64_t PackedValue) {
  unsigned Idx = static_cast<unsigned>(Op) & (NumOrderedOps - 1);
  ++ObsOrderCount[Idx];
  ObsOrderBytes[Idx] += varintSize(PackedValue);
}

void Machine::recordOrdered(uint32_t Obj, uint32_t Tid, OrderedOp Op,
                            unsigned Core) {
  assert(isRecord() && "recordOrdered outside record mode");
  assert(Obj < Log.PerObject.size() && "ordered object out of range");
  Log.PerObject[Obj].push_back({Tid, Op});
  ++Stats.LogEvents;
  if (Opts.LogSink)
    Opts.LogSink->onOrdered(Obj, Tid, Op);
  if (CollectObs)
    obsRecordOrdered(Op, (static_cast<uint64_t>(Tid) << 4) |
                             static_cast<uint64_t>(Op));
  Sched.advanceCore(Core, Opts.Costs.LogEvent);
  Stats.CpuBusyCycles += Opts.Costs.LogEvent;
}

bool Machine::gateOpen(uint32_t Obj, uint32_t Tid, OrderedOp Op) const {
  assert(isReplay() && "gateOpen outside replay mode");
  const auto &Seq = Opts.ReplayLog->PerObject[Obj];
  uint32_t Cursor = GateCursor[Obj];
  // Epoch fence: gate entries past the boundary snapshot's cursor belong
  // to the next epoch; clamping here leaves every boundary-straddling
  // operation pending exactly as the snapshot captured it.
  uint32_t Limit = static_cast<uint32_t>(Seq.size());
  if (Opts.StopAt)
    Limit = std::min(Limit, Opts.StopAt->GateCursors[Obj]);
  if (Cursor >= Limit)
    return false;
  return Seq[Cursor].Tid == Tid && Seq[Cursor].Op == Op;
}

void Machine::gateAdvance(uint32_t Obj, uint64_t Now) {
  assert(isReplay() && "gateAdvance outside replay mode");
  ++GateCursor[Obj];
  wakeGateWaiters(Obj, Now);
}

void Machine::blockOnGate(Thread &T, uint32_t Obj, uint64_t Now) {
  T.State = ThreadState::Blocked;
  T.Reason = BlockReason::ReplayGate;
  T.WaitObject = Obj;
  T.BlockStart = Now;
  GateWaiters[Obj].push_back(T.Tid);
}

void Machine::wakeGateWaiters(uint32_t Obj, uint64_t Now) {
  auto Waiters = std::move(GateWaiters[Obj]);
  GateWaiters[Obj].clear();
  for (uint32_t Tid : Waiters)
    makeReady(Tid, Now);
}

//===----------------------------------------------------------------------===//
// Mutexes
//===----------------------------------------------------------------------===//

Machine::Step Machine::doMutexLock(Thread &T, uint32_t MutexId,
                                   unsigned Core) {
  uint64_t Now = Sched.coreTime(Core);
  SyncState &Mx = Syncs.state(MutexId);
  assert(Mx.Kind == ir::SyncKind::Mutex && "lock on non-mutex");

  if (isReplay()) {
    if (!gateOpen(MutexId, T.Tid, OrderedOp::MutexLock)) {
      blockOnGate(T, MutexId, Now);
      return Step::Blocked;
    }
    assert(Mx.Owner == -1 && "replay order admitted lock on held mutex");
    Mx.Owner = T.Tid;
    Sched.advanceCore(Core, Opts.Costs.SyncOp);
    Stats.CpuBusyCycles += Opts.Costs.SyncOp;
    ++Stats.SyncOps;
    gateAdvance(MutexId, Now);
    if (Opts.Observer)
      Opts.Observer->onSync(T.Tid, ObservedSync::MutexLock, MutexId, 0, Now);
    advance(T);
    return Step::Continue;
  }

  if (Mx.Owner == -1) {
    Mx.Owner = T.Tid;
    Sched.advanceCore(Core, Opts.Costs.SyncOp);
    Stats.CpuBusyCycles += Opts.Costs.SyncOp;
    ++Stats.SyncOps;
    if (isRecord())
      recordOrdered(MutexId, T.Tid, OrderedOp::MutexLock, Core);
    if (Opts.Observer)
      Opts.Observer->onSync(T.Tid, ObservedSync::MutexLock, MutexId, 0, Now);
    advance(T);
    return Step::Continue;
  }

  Mx.MutexWaiters.push_back(T.Tid);
  T.State = ThreadState::Blocked;
  T.Reason = BlockReason::Mutex;
  T.WaitObject = MutexId;
  T.BlockStart = Now;
  return Step::Blocked;
}

void Machine::grantMutexToNextWaiter(uint32_t MutexId, uint64_t Now,
                                     unsigned Core) {
  assert(!isReplay() && "replay acquires mutexes via gates, not grants");
  SyncState &Mx = Syncs.state(MutexId);
  if (Mx.Owner != -1 || Mx.MutexWaiters.empty())
    return;

  uint32_t Tid = Mx.MutexWaiters.front();
  Mx.MutexWaiters.pop_front();
  Thread &W = *Threads[Tid];
  Mx.Owner = Tid;
  ++Stats.SyncOps;
  if (isRecord())
    recordOrdered(MutexId, Tid, OrderedOp::MutexLock, Core);
  if (Opts.Observer)
    Opts.Observer->onSync(Tid, ObservedSync::MutexLock, MutexId, 0, Now);

  if (PendingMutex[Tid] == static_cast<int64_t>(MutexId)) {
    // Cond-wait reacquisition completes out of band; the cond_wait
    // instruction was already retired when the wait began.
    PendingMutex[Tid] = -1;
  } else {
    advance(W); // The blocked MutexLock instruction completes now.
  }
  W.ReadyTime = std::max(W.ReadyTime, Now + Opts.Costs.SyncOp);
  makeReady(Tid, Now);
}

Machine::Step Machine::doMutexUnlock(Thread &T, uint32_t MutexId,
                                     unsigned Core) {
  uint64_t Now = Sched.coreTime(Core);
  SyncState &Mx = Syncs.state(MutexId);
  assert(Mx.Kind == ir::SyncKind::Mutex && "unlock on non-mutex");

  if (Mx.Owner != static_cast<int64_t>(T.Tid)) {
    fail("thread " + std::to_string(T.Tid) + " unlocked mutex '" +
         M.Syncs[MutexId].Name + "' it does not own");
    return Step::Fault;
  }

  if (isReplay()) {
    if (!gateOpen(MutexId, T.Tid, OrderedOp::MutexUnlock)) {
      blockOnGate(T, MutexId, Now);
      return Step::Blocked;
    }
    Mx.Owner = -1;
    Sched.advanceCore(Core, Opts.Costs.SyncOp);
    Stats.CpuBusyCycles += Opts.Costs.SyncOp;
    ++Stats.SyncOps;
    if (Opts.Observer)
      Opts.Observer->onSync(T.Tid, ObservedSync::MutexUnlock, MutexId, 0,
                            Now);
    gateAdvance(MutexId, Now);
    advance(T);
    return Step::Continue;
  }

  Mx.Owner = -1;
  Sched.advanceCore(Core, Opts.Costs.SyncOp);
  Stats.CpuBusyCycles += Opts.Costs.SyncOp;
  ++Stats.SyncOps;
  if (isRecord())
    recordOrdered(MutexId, T.Tid, OrderedOp::MutexUnlock, Core);
  if (Opts.Observer)
    Opts.Observer->onSync(T.Tid, ObservedSync::MutexUnlock, MutexId, 0, Now);
  grantMutexToNextWaiter(MutexId, Now, Core);
  advance(T);
  return Step::Continue;
}

//===----------------------------------------------------------------------===//
// Barriers
//===----------------------------------------------------------------------===//

Machine::Step Machine::doBarrierWait(Thread &T, uint32_t BarrierId,
                                     unsigned Core) {
  uint64_t Now = Sched.coreTime(Core);
  SyncState &Ba = Syncs.state(BarrierId);
  assert(Ba.Kind == ir::SyncKind::Barrier && "barrier_wait on non-barrier");
  assert(Ba.Parties > 0 && "barrier with zero parties");

  if (isReplay()) {
    if (!gateOpen(BarrierId, T.Tid, OrderedOp::BarrierArrive)) {
      blockOnGate(T, BarrierId, Now);
      return Step::Blocked;
    }
    gateAdvance(BarrierId, Now);
  } else if (isRecord()) {
    recordOrdered(BarrierId, T.Tid, OrderedOp::BarrierArrive, Core);
  }

  Sched.advanceCore(Core, Opts.Costs.SyncOp);
  Stats.CpuBusyCycles += Opts.Costs.SyncOp;
  ++Stats.SyncOps;
  if (Opts.Observer)
    Opts.Observer->onSync(T.Tid, ObservedSync::BarrierArrive, BarrierId,
                          Ba.Generation, Now);

  advance(T); // The arrival retires; waiting happens out of band.
  Ba.Arrived.push_back(T.Tid);
  Ba.ArrivedTimes.push_back(Sched.coreTime(Core));

  if (Ba.Arrived.size() < Ba.Parties) {
    T.State = ThreadState::Blocked;
    T.Reason = BlockReason::Barrier;
    T.WaitObject = BarrierId;
    T.BlockStart = Now;
    return Step::Blocked;
  }

  // Last arrival: release everyone. Core clocks drift apart, so the
  // release instant is the maximum of all arrival timestamps — events
  // after the barrier must not appear to precede events before it.
  uint64_t Release = 0;
  for (uint64_t ArriveTime : Ba.ArrivedTimes)
    Release = std::max(Release, ArriveTime);
  Sched.setCoreTime(Core, std::max(Sched.coreTime(Core), Release));
  uint64_t Gen = Ba.Generation++;
  for (uint32_t Tid : Ba.Arrived) {
    if (Opts.Observer)
      Opts.Observer->onSync(Tid, ObservedSync::BarrierLeave, BarrierId, Gen,
                            Release);
    if (Tid != T.Tid)
      makeReady(Tid, Release);
  }
  Ba.Arrived.clear();
  Ba.ArrivedTimes.clear();
  return Step::Continue;
}

//===----------------------------------------------------------------------===//
// Condition variables
//===----------------------------------------------------------------------===//

Machine::Step Machine::doCondWait(Thread &T, uint32_t CondId,
                                  uint32_t MutexId, unsigned Core) {
  uint64_t Now = Sched.coreTime(Core);
  SyncState &Cv = Syncs.state(CondId);
  SyncState &Mx = Syncs.state(MutexId);
  assert(Cv.Kind == ir::SyncKind::Cond && "cond_wait on non-cond");

  if (Mx.Owner != static_cast<int64_t>(T.Tid)) {
    fail("cond_wait without holding the mutex");
    return Step::Fault;
  }

  if (isReplay()) {
    // The recorder appended CondWaitBegin and the internal MutexUnlock in
    // one atomic step, so both gates must be open before consuming
    // either; blocking on whichever is closed is safe (no cross-object
    // cycle can involve the not-yet-consumed pair).
    if (!gateOpen(CondId, T.Tid, OrderedOp::CondWaitBegin)) {
      blockOnGate(T, CondId, Now);
      return Step::Blocked;
    }
    if (!gateOpen(MutexId, T.Tid, OrderedOp::MutexUnlock)) {
      blockOnGate(T, MutexId, Now);
      return Step::Blocked;
    }
    gateAdvance(CondId, Now);
    Mx.Owner = -1;
    gateAdvance(MutexId, Now);
  } else if (isRecord()) {
    recordOrdered(CondId, T.Tid, OrderedOp::CondWaitBegin, Core);
    recordOrdered(MutexId, T.Tid, OrderedOp::MutexUnlock, Core);
    Mx.Owner = -1;
  } else {
    Mx.Owner = -1;
  }

  Sched.advanceCore(Core, Opts.Costs.SyncOp);
  Stats.CpuBusyCycles += Opts.Costs.SyncOp;
  ++Stats.SyncOps;
  if (Opts.Observer) {
    Opts.Observer->onSync(T.Tid, ObservedSync::MutexUnlock, MutexId, 0, Now);
    Opts.Observer->onSync(T.Tid, ObservedSync::CondWaitBlock, CondId, 0,
                          Now);
  }

  Cv.CondWaiters.push_back(T.Tid);
  T.State = ThreadState::Blocked;
  T.Reason = BlockReason::CondVar;
  T.WaitObject = CondId;
  T.BlockStart = Now;
  advance(T); // Execution continues after the cond_wait on wakeup.
  PendingMutex[T.Tid] = MutexId;

  if (!isReplay())
    grantMutexToNextWaiter(MutexId, Now, Core);
  return Step::Blocked;
}

Machine::Step Machine::doCondSignal(Thread &T, uint32_t CondId,
                                    bool Broadcast, unsigned Core) {
  uint64_t Now = Sched.coreTime(Core);
  SyncState &Cv = Syncs.state(CondId);
  assert(Cv.Kind == ir::SyncKind::Cond && "signal on non-cond");
  OrderedOp Op = Broadcast ? OrderedOp::CondBroadcast : OrderedOp::CondSignal;

  if (isReplay()) {
    if (!gateOpen(CondId, T.Tid, Op)) {
      blockOnGate(T, CondId, Now);
      return Step::Blocked;
    }
    gateAdvance(CondId, Now);
  } else if (isRecord()) {
    recordOrdered(CondId, T.Tid, Op, Core);
  }

  Sched.advanceCore(Core, Opts.Costs.SyncOp);
  Stats.CpuBusyCycles += Opts.Costs.SyncOp;
  ++Stats.SyncOps;
  if (Opts.Observer)
    Opts.Observer->onSync(T.Tid,
                          Broadcast ? ObservedSync::CondBroadcast
                                    : ObservedSync::CondSignal,
                          CondId, 0, Now);

  size_t NumToWake = Broadcast ? Cv.CondWaiters.size()
                               : std::min<size_t>(1, Cv.CondWaiters.size());
  for (size_t I = 0; I != NumToWake; ++I) {
    uint32_t Tid = Cv.CondWaiters.front();
    Cv.CondWaiters.pop_front();
    if (Opts.Observer)
      Opts.Observer->onSync(Tid, ObservedSync::CondWaitWake, CondId, 0, Now);
    // The woken thread reacquires its mutex (PendingMutex set at wait
    // time) before running user code; see execPending.
    makeReady(Tid, Now);
  }
  advance(T);
  return Step::Continue;
}

//===----------------------------------------------------------------------===//
// Threads: spawn / join
//===----------------------------------------------------------------------===//

Machine::Step Machine::doSpawn(Thread &T, const DecodedInst &Inst,
                               unsigned Core) {
  uint64_t Now = Sched.coreTime(Core);
  uint32_t TableObj = Log.threadTableObject();

  if (isReplay()) {
    if (!gateOpen(TableObj, T.Tid, OrderedOp::SpawnThread)) {
      blockOnGate(T, TableObj, Now);
      return Step::Blocked;
    }
    gateAdvance(TableObj, Now);
  } else if (isRecord()) {
    recordOrdered(TableObj, T.Tid, OrderedOp::SpawnThread, Core);
  }

  Sched.advanceCore(Core, Opts.Costs.SpawnCost);
  Stats.CpuBusyCycles += Opts.Costs.SpawnCost;

  std::vector<uint64_t> Args;
  Args.reserve(Inst.ArgsLen);
  const ir::Reg *ArgRegs = T.frame().DFunc->ArgPool.data() + Inst.ArgsIdx;
  for (uint16_t I = 0; I != Inst.ArgsLen; ++I)
    Args.push_back(reg(T, ArgRegs[I]));

  uint32_t ChildTid = static_cast<uint32_t>(Threads.size());
  startThread(Inst.Id, Args, T.Tid, Sched.coreTime(Core));
  setReg(T, Inst.Dst, ChildTid);
  advance(T);
  return Step::Continue;
}

Machine::Step Machine::doJoin(Thread &T, uint32_t ChildTid, unsigned Core) {
  uint64_t Now = Sched.coreTime(Core);
  if (ChildTid >= Threads.size() || ChildTid == T.Tid) {
    fail("join on invalid thread id " + std::to_string(ChildTid));
    return Step::Fault;
  }
  Thread &Child = *Threads[ChildTid];
  uint32_t TableObj = Log.threadTableObject();

  if (Child.State != ThreadState::Finished) {
    Child.JoinWaiters.push_back(T.Tid);
    T.State = ThreadState::Blocked;
    T.Reason = BlockReason::Join;
    T.WaitObject = ChildTid;
    T.BlockStart = Now;
    return Step::Blocked; // Re-executes once the child finishes.
  }

  if (isReplay()) {
    if (!gateOpen(TableObj, T.Tid, OrderedOp::JoinThread)) {
      blockOnGate(T, TableObj, Now);
      return Step::Blocked;
    }
    gateAdvance(TableObj, Now);
  } else if (isRecord()) {
    recordOrdered(TableObj, T.Tid, OrderedOp::JoinThread, Core);
  }

  Sched.advanceCore(Core, Opts.Costs.JoinCost);
  Stats.CpuBusyCycles += Opts.Costs.JoinCost;
  ++Stats.SyncOps;
  if (Opts.Observer)
    Opts.Observer->onJoin(T.Tid, ChildTid, Now);
  advance(T);
  return Step::Continue;
}

//===----------------------------------------------------------------------===//
// I/O
//===----------------------------------------------------------------------===//

Machine::Step Machine::doOutput(Thread &T, uint64_t Value, unsigned Core) {
  uint64_t Now = Sched.coreTime(Core);
  uint32_t Obj = Log.outputObject();

  if (isReplay()) {
    if (!gateOpen(Obj, T.Tid, OrderedOp::Output)) {
      blockOnGate(T, Obj, Now);
      return Step::Blocked;
    }
    gateAdvance(Obj, Now);
  } else if (isRecord()) {
    recordOrdered(Obj, T.Tid, OrderedOp::Output, Core);
  }

  Output.push_back(Value);
  ++Stats.OutputOps;
  Sched.advanceCore(Core, Opts.Costs.OutputCpu);
  Stats.CpuBusyCycles += Opts.Costs.OutputCpu;
  advance(T);

  if (!isReplay() && Opts.Costs.OutputLatency) {
    T.State = ThreadState::Sleeping;
    T.WakeTime = Sched.coreTime(Core) + Opts.Costs.OutputLatency;
    return Step::Blocked;
  }
  return Step::Continue;
}

Machine::Step Machine::doInputOp(Thread &T, InputKind Kind, ir::Reg Dst,
                                 unsigned Core) {
  uint64_t Value = 0;
  uint64_t Latency = 0;
  switch (Kind) {
  case InputKind::Input: Latency = Opts.Costs.InputLatency; break;
  case InputKind::NetRecv: Latency = Opts.Costs.NetLatency; break;
  case InputKind::FileRead: Latency = Opts.Costs.FileLatency; break;
  }

  if (isReplay()) {
    uint32_t &Cursor = InputCursor[T.Tid];
    const auto &Inputs = Opts.ReplayLog->PerThreadInputs[T.Tid];
    // Epoch fence: a consistent epoch never consumes an input past the
    // boundary snapshot's cursor — the thread would have parked first.
    if (Opts.StopAt && T.Tid < Opts.StopAt->InputCursors.size() &&
        Cursor >= Opts.StopAt->InputCursors[T.Tid]) {
      fail("epoch fence: input consumed past the boundary for thread " +
           std::to_string(T.Tid));
      return Step::Fault;
    }
    if (Cursor >= Inputs.size() || Inputs[Cursor].Kind != Kind) {
      fail("replay divergence: input log mismatch for thread " +
           std::to_string(T.Tid));
      return Step::Fault;
    }
    Value = Inputs[Cursor].Value;
    ++Cursor;
    Latency = 0; // Replay feeds inputs without waiting for devices.
  } else {
    Value = InputRng.next() & 0xffffffffull;
    if (isRecord()) {
      if (Log.PerThreadInputs.size() <= T.Tid)
        Log.PerThreadInputs.resize(T.Tid + 1);
      Log.PerThreadInputs[T.Tid].push_back({Kind, Value});
      ++Stats.LogEvents;
      if (Opts.LogSink)
        Opts.LogSink->onInput(T.Tid, Kind, Value);
      if (CollectObs) {
        ++ObsInputCount;
        ObsInputBytes += 1 + varintSize(Value); // kind byte + value.
      }
      Sched.advanceCore(Core, Opts.Costs.LogEvent);
      Stats.CpuBusyCycles += Opts.Costs.LogEvent;
    }
  }

  ++Stats.Syscalls;
  Sched.advanceCore(Core, Opts.Costs.SyscallCpu);
  Stats.CpuBusyCycles += Opts.Costs.SyscallCpu;
  setReg(T, Dst, Value);
  advance(T);

  if (Latency) {
    T.State = ThreadState::Sleeping;
    T.WakeTime = Sched.coreTime(Core) + Latency;
    return Step::Blocked;
  }
  return Step::Continue;
}

//===----------------------------------------------------------------------===//
// Weak-locks
//===----------------------------------------------------------------------===//

void Machine::chargeWeakCpu(uint32_t LockId, unsigned SiteGran,
                            uint64_t Cycles, unsigned Core) {
  assert(SiteGran < 4 && "bad site granularity");
  Sched.advanceCore(Core, Cycles);
  Stats.CpuBusyCycles += Cycles;
  Stats.WeakCpuCycles[SiteGran] += Cycles;
  if (CollectObs)
    ObsPerLock[LockId].CpuCycles += Cycles;
}

Machine::Step Machine::doWeakAcquire(Thread &T, uint32_t LockId,
                                     unsigned SiteGran, bool HasRange,
                                     uint64_t Lo, uint64_t Hi,
                                     unsigned Core) {
  uint64_t Now = Sched.coreTime(Core);
  uint32_t Obj = Log.weakLockObject(LockId);
  assert(!T.holdsWeak(LockId) && "recursive weak-lock acquisition");
  if (HasRange && Lo > Hi)
    std::swap(Lo, Hi);

  if (isReplay()) {
    if (!gateOpen(Obj, T.Tid, OrderedOp::WeakAcquire)) {
      // Defers PendingReacquire processing until this acquire lands —
      // the recorded order completed the blocked acquire first (via
      // grantWeakWaiters) and any revocation-stripped locks after it.
      T.AcquireBeforeReacquire = true;
      blockOnGate(T, Obj, Now);
      return Step::Blocked;
    }
    T.AcquireBeforeReacquire = false;
    WeakRequest Req{T.Tid, HasRange, Lo, Hi, Now,
                    static_cast<uint8_t>(SiteGran)};
    if (!Weak.tryAcquire(LockId, Req)) {
      fail("replay divergence: weak-lock order infeasible");
      return Step::Fault;
    }
    T.HeldWeak.push_back({LockId, HasRange, Lo, Hi,
                          static_cast<uint8_t>(SiteGran)});
    ++Stats.WeakAcquires[SiteGran];
    if (CollectObs)
      ++ObsPerLock[LockId].Acquires;
    chargeWeakCpu(LockId, SiteGran,
                  Opts.Costs.WeakLockOp +
                      (HasRange ? Opts.Costs.RangeCheck : 0),
                  Core);
    gateAdvance(Obj, Now);
    if (Opts.Observer)
      Opts.Observer->onWeak(T.Tid, /*IsAcquire=*/true, LockId, HasRange, Lo,
                            Hi, Now);
    advance(T);
    return Step::Continue;
  }

  WeakRequest Req{T.Tid, HasRange, Lo, Hi, Now,
                  static_cast<uint8_t>(SiteGran)};
  if (Weak.tryAcquire(LockId, Req)) {
    T.HeldWeak.push_back({LockId, HasRange, Lo, Hi,
                          static_cast<uint8_t>(SiteGran)});
    ++Stats.WeakAcquires[SiteGran];
    if (CollectObs)
      ++ObsPerLock[LockId].Acquires;
    chargeWeakCpu(LockId, SiteGran,
                  Opts.Costs.WeakLockOp +
                      (HasRange ? Opts.Costs.RangeCheck : 0),
                  Core);
    if (isRecord())
      recordOrdered(Obj, T.Tid, OrderedOp::WeakAcquire, Core);
    if (Opts.Observer)
      Opts.Observer->onWeak(T.Tid, /*IsAcquire=*/true, LockId, HasRange, Lo,
                            Hi, Now);
    advance(T);
    return Step::Continue;
  }

  Weak.enqueue(LockId, Req);
  T.State = ThreadState::Blocked;
  T.Reason = BlockReason::WeakLock;
  T.WaitObject = LockId;
  T.BlockStart = Now;
  return Step::Blocked;
}

void Machine::grantWeakWaiters(uint32_t LockId, uint64_t Now) {
  assert(!isReplay() && "replay acquires weak-locks via gates");
  std::vector<WeakRequest> Granted = Weak.grantWaiters(LockId, Now);
  for (const WeakRequest &G : Granted) {
    Thread &W = *Threads[G.Tid];
    unsigned Gran = G.SiteGran;
    W.HeldWeak.push_back({LockId, G.HasRange, G.Lo, G.Hi, G.SiteGran});
    ++Stats.WeakAcquires[Gran];
    Stats.WeakWaitCycles[Gran] += Now > W.BlockStart ? Now - W.BlockStart : 0;
    Stats.WeakCpuCycles[Gran] += Opts.Costs.WeakLockOp;
    if (CollectObs) {
      LockObs &LO = ObsPerLock[LockId];
      ++LO.Acquires;
      LO.WaitCycles += Now > W.BlockStart ? Now - W.BlockStart : 0;
      LO.CpuCycles += Opts.Costs.WeakLockOp;
    }
    if (isRecord()) {
      Log.PerObject[Log.weakLockObject(LockId)].push_back(
          {G.Tid, OrderedOp::WeakAcquire});
      ++Stats.LogEvents;
      if (Opts.LogSink)
        Opts.LogSink->onOrdered(Log.weakLockObject(LockId), G.Tid,
                                OrderedOp::WeakAcquire);
      // This append bypasses recordOrdered (the grant happens machine-
      // side, not on the waiter's core), so account its bytes here.
      if (CollectObs)
        obsRecordOrdered(OrderedOp::WeakAcquire,
                         (static_cast<uint64_t>(G.Tid) << 4) |
                             static_cast<uint64_t>(OrderedOp::WeakAcquire));
    }
    if (Opts.Observer)
      Opts.Observer->onWeak(G.Tid, /*IsAcquire=*/true, LockId, G.HasRange,
                            G.Lo, G.Hi, Now);

    // A forced-reacquisition grant resumes the thread where it was; a
    // grant of a blocked WeakAcquire instruction completes it.
    bool WasReacquire = false;
    for (size_t I = 0; I != W.PendingReacquire.size(); ++I) {
      if (W.PendingReacquire[I].LockId == LockId) {
        W.PendingReacquire.erase(W.PendingReacquire.begin() + I);
        WasReacquire = true;
        break;
      }
    }
    if (!WasReacquire)
      advance(W);
    W.ReadyTime = std::max(W.ReadyTime, Now + Opts.Costs.WeakLockOp);
    makeReady(G.Tid, Now);
  }
}

Machine::Step Machine::doWeakRelease(Thread &T, uint32_t LockId,
                                     unsigned Core, bool Forced) {
  uint64_t Now = Sched.coreTime(Core);
  uint32_t Obj = Log.weakLockObject(LockId);

  if (!T.holdsWeak(LockId)) {
    fail("weak-release of unheld lock wl" + std::to_string(LockId));
    return Step::Fault;
  }

  if (isReplay() && !Forced &&
      !gateOpen(Obj, T.Tid, OrderedOp::WeakRelease)) {
    blockOnGate(T, Obj, Now);
    return Step::Blocked;
  }

  // Remove the hold, keeping the range info for a forced reacquisition.
  HeldWeakLock Held;
  for (size_t I = 0; I != T.HeldWeak.size(); ++I) {
    if (T.HeldWeak[I].LockId == LockId) {
      Held = T.HeldWeak[I];
      T.HeldWeak.erase(T.HeldWeak.begin() + I);
      break;
    }
  }
  Weak.removeHolder(LockId, T.Tid);

  if (Forced) {
    T.PendingReacquire.push_back(Held);
    ++Stats.Revocations;
    if (CollectObs)
      ++ObsPerLock[LockId].Revocations;
  }

  chargeWeakCpu(LockId, Held.SiteGran, Opts.Costs.WeakLockOp, Core);
  if (isRecord()) {
    recordOrdered(Obj, T.Tid, OrderedOp::WeakRelease, Core);
    if (Forced) {
      Log.Revocations.push_back({T.Tid, LockId, T.Instret});
      if (Opts.LogSink)
        Opts.LogSink->onRevocation(Log.Revocations.back());
      if (CollectObs) {
        ++ObsRevCount;
        ObsRevBytes += varintSize(T.Tid) + varintSize(LockId) +
                       varintSize(T.Instret);
      }
    }
  } else if (isReplay()) {
    assert(gateOpen(Obj, T.Tid, OrderedOp::WeakRelease) &&
           "forced release out of recorded order");
    gateAdvance(Obj, Now);
  }
  if (Opts.Observer)
    Opts.Observer->onWeak(T.Tid, /*IsAcquire=*/false, LockId, Held.HasRange,
                          Held.Lo, Held.Hi, Now);

  if (!isReplay())
    grantWeakWaiters(LockId, Now);

  if (!Forced)
    advance(T);
  return Step::Continue;
}

Machine::Step Machine::applyForcedReleases(Thread &V, unsigned Core,
                                           bool ParkOnShutGate) {
  if (!isReplay() || V.Tid >= RevocationCursor.size())
    return Step::Continue;
  auto &Pending = PendingRevocations[V.Tid];
  uint32_t &Cursor = RevocationCursor[V.Tid];

  // Applied one EPISODE at a time, all-or-nothing. One revocation strips
  // the victim's full weak-lock set in a single poll, so its events
  // share (Tid, Instret) and name each lock once; a repeated lock can
  // only begin the next episode (the victim reacquires its pending list
  // front-first, so consecutive episodes at one instret always share
  // that front lock). The instret alone does not pin the record-side
  // moment — a thread passes many distinct block points without
  // retiring an instruction, and applying one release at an earlier
  // block point than the recording revoked at reorders the victim's
  // acquires against its gates. Requiring every lock of the episode to
  // be simultaneously held and gate-open re-pins the exact moment: only
  // at the recorded block point has the victim assembled all the holds
  // the episode strips.
  while (Cursor < Pending.size()) {
    const RevocationEvent &Head = Pending[Cursor];
    if (Head.Instret != V.Instret)
      return Step::Continue;
    uint32_t End = Cursor;
    bool HoldsAll = true;
    int64_t ShutObj = -1;
    while (End < Pending.size() && Pending[End].Instret == Head.Instret) {
      const RevocationEvent &Rev = Pending[End];
      bool Repeat = false;
      for (uint32_t I = Cursor; I != End; ++I)
        if (Pending[I].LockId == Rev.LockId)
          Repeat = true;
      if (Repeat)
        break; // Next episode starts here.
      if (!V.holdsWeak(Rev.LockId)) {
        HoldsAll = false;
        break;
      }
      uint32_t Obj = Log.weakLockObject(Rev.LockId);
      if (!gateOpen(Obj, V.Tid, OrderedOp::WeakRelease)) {
        ShutObj = Obj;
        break;
      }
      ++End;
    }
    // A missing hold means an earlier strip of this episode's front lock
    // has not been reacquired yet; the episode becomes applicable once
    // the pending loop brings it back.
    if (!HoldsAll)
      return Step::Continue;
    if (ShutObj >= 0) {
      if (ParkOnShutGate) {
        blockOnGate(V, static_cast<uint32_t>(ShutObj),
                    Sched.coreTime(Core));
        return Step::Blocked;
      }
      return Step::Continue;
    }
    if (End == Cursor)
      return Step::Continue;
    // Pending reacquisitions always drain before an instruction
    // dispatches, so a victim sitting at a program WeakAcquire with
    // nothing pending was revoked while blocked at that acquire — whose
    // eventual grant completed the acquire BEFORE the stripped locks
    // were reacquired. Mark the victim so the interpreter keeps that
    // order (see Thread::AcquireBeforeReacquire). Any other position
    // (mid-reacquisition, or strong-blocked elsewhere) reacquires
    // front-first with no deferral.
    bool AtProgramAcquire =
        V.PendingReacquire.empty() && !V.Stack.empty() &&
        V.frame().DFunc->Insts[V.frame().Ip].Op == ir::Opcode::WeakAcquire;
    for (uint32_t I = Cursor; I != End; ++I)
      doWeakRelease(V, Pending[I].LockId, Core, /*Forced=*/true);
    if (AtProgramAcquire)
      V.AcquireBeforeReacquire = true;
    Cursor = End;
  }
  return Step::Continue;
}

uint64_t Machine::weakMaturity() const {
  uint64_t Since = Weak.earliestWaiterSince();
  if (Since == UINT64_MAX || Opts.WeakLockTimeout >= UINT64_MAX - Since)
    return UINT64_MAX;
  return Since + Opts.WeakLockTimeout;
}

bool Machine::weakWaitMatured(uint64_t Now) const {
  if (!Weak.anyHeld())
    return false;
  uint64_t Mature = weakMaturity();
  return Mature != UINT64_MAX && Now >= Mature;
}

bool Machine::checkWeakTimeouts(uint64_t Now) {
  // A revocation needs a conflicting holder and a beneficiary whose wait
  // has lasted WeakLockTimeout. While nothing is held, or while even the
  // earliest wait is younger than that (the beneficiary waits no longer
  // than the earliest waiter), the scan below cannot find a victim, so
  // it is skipped outright. Both gates read simulated state only and
  // hold for every plan, certified or not; the result is exact.
  if (!weakWaitMatured(Now)) {
    if (CollectObs)
      ++ObsWeakPollsSkipped;
    return false;
  }
  if (CollectObs)
    ++ObsWeakPolls;
  // Only a holder that genuinely cannot make progress is a revocation
  // victim. A Running/Ready holder finishes its critical section and
  // releases on its own; a Sleeping one wakes by the clock; and a
  // holder blocked on another weak-lock is fine as long as its
  // obstruction chain ends in a thread that still runs. What the
  // timeout exists to break (paper §2.3) is the chain that cannot
  // resolve itself: a holder stalled behind a strong primitive
  // (condvar, mutex, barrier, join — the classic held-across-wait
  // deadlock) or a cycle of weak-lock waits. The walk reads only
  // simulated scheduler and lock state, so record stays deterministic.
  // The poll runs whether or not the plan carries a lock-order
  // certificate: the certificate rules out weak-wait cycles, but says
  // nothing about a holder that waits by other means.
  //
  // All revocations feed ONE distinguished beneficiary — the lowest-tid
  // stuck weak-waiter — until it stops being stuck. The beneficiary is
  // never a victim (victims are holders of the lock it waits on), so
  // its holds only grow: each matured wait revokes one stuck holder
  // obstructing it, it acquires, blocks on the next lock of its guard
  // set, and repeats until the set is complete and it retires real
  // instructions. Without a stable priority the grants of round N are
  // robbed by round N+1 before any thread completes a set, and ≥3
  // overlapping stuck chains rotate forever (observed as an unbounded
  // acquire/release storm with zero instructions retiring).
  std::vector<uint8_t> Mark(Threads.size(), 0);
  uint32_t B = stuckBeneficiary(Mark);
  if (B == UINT32_MAX)
    return false;
  WeakLockManager::Timeout TO = Weak.findVictimFor(
      Threads[B]->WaitObject, B, Now, Opts.WeakLockTimeout,
      [&](uint32_t Tid) {
        std::fill(Mark.begin(), Mark.end(), 0);
        return weakChainStuck(Tid, Mark);
      });
  if (!TO.Found)
    return false;
  performRevocation(TO, Now);
  return true;
}

uint32_t Machine::stuckBeneficiary(std::vector<uint8_t> &Mark) const {
  for (uint32_t Tid = 0; Tid != Threads.size(); ++Tid) {
    const Thread &T = *Threads[Tid];
    if (T.State != ThreadState::Blocked || T.Reason != BlockReason::WeakLock)
      continue;
    std::fill(Mark.begin(), Mark.end(), 0);
    if (weakChainStuck(Tid, Mark))
      return Tid;
  }
  return UINT32_MAX;
}

uint64_t Machine::revocationMaturityTime() const {
  if (Opts.WeakLockTimeout == UINT64_MAX)
    return UINT64_MAX;
  std::vector<uint8_t> Mark(Threads.size(), 0);
  uint32_t B = stuckBeneficiary(Mark);
  if (B == UINT32_MAX)
    return UINT64_MAX;
  uint64_t Since = Weak.waiterSince(Threads[B]->WaitObject, B);
  if (Since == UINT64_MAX || Opts.WeakLockTimeout >= UINT64_MAX - Since)
    return UINT64_MAX;
  return Since + Opts.WeakLockTimeout;
}

bool Machine::weakChainStuck(uint32_t Tid, std::vector<uint8_t> &Mark) const {
  const Thread &T = *Threads[Tid];
  if (T.State != ThreadState::Blocked)
    return false; // Runs, is ready, or wakes by the clock.
  if (T.Reason != BlockReason::WeakLock)
    return true; // Strong blockage: nothing guarantees a wakeup.
  if (Mark[Tid] == 1)
    return true; // Weak-wait cycle: a genuine weak-lock deadlock.
  if (Mark[Tid] == 2)
    return false; // Already proven alive on this walk.
  Mark[Tid] = 1;
  bool Stuck = false;
  Weak.forEachBlocker(T.WaitObject, Tid, [&](uint32_t Blocker) {
    if (!Stuck && weakChainStuck(Blocker, Mark))
      Stuck = true;
  });
  Mark[Tid] = Stuck ? 1 : 2;
  return Stuck;
}

void Machine::performRevocation(const WeakLockManager::Timeout &TO,
                                uint64_t Now) {
  Thread &Victim = *Threads[TO.VictimTid];
  assert(Victim.holdsWeak(TO.LockId) && "victim does not hold the lock");
  // Forced release on behalf of the victim: the kernel preempts it at its
  // current instruction count (paper §2.3 / DoublePlay mechanism).
  //
  // The victim surrenders its ENTIRE weak-lock set, not just the
  // contested lock. It is stuck (that is what made it a victim), so its
  // remaining holds can only obstruct other threads; and a partial
  // revocation livelocks when two stuck threads need overlapping sets —
  // each revocation round hands one lock across, the beneficiary
  // immediately blocks reassembling the rest, and the mirrored deadlock
  // re-forms with the roles swapped, forever. Releasing everything
  // removes the victim from the obstruction graph outright, so the
  // beneficiary can assemble its full set and retire real instructions
  // before any further timeout matures. The victim reacquires the whole
  // set (FIFO) when it next runs.
  unsigned Core = Sched.minTimeCore();
  Sched.setCoreTime(Core, std::max(Sched.coreTime(Core), Now));
  doWeakRelease(Victim, TO.LockId, Core, /*Forced=*/true);
  std::vector<uint32_t> Rest;
  for (const HeldWeakLock &H : Victim.HeldWeak)
    Rest.push_back(H.LockId);
  for (uint32_t LockId : Rest)
    doWeakRelease(Victim, LockId, Core, /*Forced=*/true);
}
