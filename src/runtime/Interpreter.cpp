//===- runtime/Interpreter.cpp - Per-instruction execution -----------------===//
//
// Implements Machine's instruction dispatch and the pre-instruction
// pending-operation handling (cond-wait mutex reacquisition, forced
// weak-lock release/reacquisition after revocations). execFast is the
// one interpreter of the pure opcodes (ALU, memory, branch, call, ret),
// with or without an observer; execInstruction runs the scheduler- and
// log-visible ones.
//
// Dispatch runs over the pre-decoded program (Decoded.h): the current
// frame holds a DecodedFunction pointer plus a flat instruction index, so
// a fetch is one array load and a taken branch is one index assignment.
//
//===----------------------------------------------------------------------===//

#include "runtime/Machine.h"

#include <cassert>

using namespace chimera;
using namespace chimera::rt;
using namespace chimera::ir;

uint64_t Machine::reg(Thread &T, Reg R) const {
  Frame &F = T.frame();
  assert(R < F.Regs.size() && "register out of range");
  return F.Regs[R];
}

void Machine::setReg(Thread &T, Reg R, uint64_t Value) {
  Frame &F = T.frame();
  assert(R < F.Regs.size() && "register out of range");
  F.Regs[R] = Value;
}

void Machine::advance(Thread &T) {
  Frame &F = T.frame();
  assert(F.Ip < F.DFunc->Insts.size() && "advance past end of function");
  ++F.Ip;
  ++T.Instret;
  ++Stats.Instructions;
}

//===----------------------------------------------------------------------===//
// Pending operations (run before the next instruction)
//===----------------------------------------------------------------------===//

Machine::Step Machine::execPending(Thread &T, unsigned Core) {
  uint64_t Now = Sched.coreTime(Core);

  for (;;) {
  // 1. Replay: recorded forced-release episodes due at this instruction
  // boundary. The machine-side sweep in Machine::run covers blocked
  // victims; this self-application covers a victim that reaches its
  // boundary still running, before the next instruction dispatches. An
  // episode can strip locks whose reacquisition (step 3) makes the NEXT
  // episode at the same boundary applicable, so steps 1 and 3 repeat
  // until neither makes progress.
  if (isReplay()) {
    Step S = applyForcedReleases(T, Core, /*ParkOnShutGate=*/true);
    if (S != Step::Continue)
      return S;
  }

  // 2. Cond-wait mutex reacquisition.
  if (PendingMutex[T.Tid] >= 0) {
    uint32_t MutexId = static_cast<uint32_t>(PendingMutex[T.Tid]);
    SyncState &Mx = Syncs.state(MutexId);

    if (isReplay()) {
      if (!gateOpen(MutexId, T.Tid, OrderedOp::MutexLock)) {
        blockOnGate(T, MutexId, Now);
        return Step::Blocked;
      }
      assert(Mx.Owner == -1 && "replay order admitted lock on held mutex");
      Mx.Owner = T.Tid;
      PendingMutex[T.Tid] = -1;
      Sched.advanceCore(Core, Opts.Costs.SyncOp);
      Stats.CpuBusyCycles += Opts.Costs.SyncOp;
      ++Stats.SyncOps;
      gateAdvance(MutexId, Now);
      if (Opts.Observer)
        Opts.Observer->onSync(T.Tid, ObservedSync::MutexLock, MutexId, 0,
                              Now);
    } else if (Mx.Owner == -1) {
      Mx.Owner = T.Tid;
      PendingMutex[T.Tid] = -1;
      Sched.advanceCore(Core, Opts.Costs.SyncOp);
      Stats.CpuBusyCycles += Opts.Costs.SyncOp;
      ++Stats.SyncOps;
      if (isRecord())
        recordOrdered(MutexId, T.Tid, OrderedOp::MutexLock, Core);
      if (Opts.Observer)
        Opts.Observer->onSync(T.Tid, ObservedSync::MutexLock, MutexId, 0,
                              Now);
    } else {
      // Queue behind the owner; the grant path recognizes PendingMutex.
      Mx.MutexWaiters.push_back(T.Tid);
      T.State = ThreadState::Blocked;
      T.Reason = BlockReason::Mutex;
      T.WaitObject = MutexId;
      T.BlockStart = Now;
      return Step::Blocked;
    }
  }

  // 3. Forced weak-lock reacquisitions, in revocation order. Deferred
  // while the thread is resuming a gate-blocked program acquire: the
  // recorded order granted that acquire before any of these (see
  // Thread::AcquireBeforeReacquire).
  bool Reacquired = false;
  while (!T.AcquireBeforeReacquire && !T.PendingReacquire.empty()) {
    HeldWeakLock Next = T.PendingReacquire.front();
    uint32_t Obj = Log.weakLockObject(Next.LockId);
    unsigned Gran = Next.SiteGran;

    if (isReplay()) {
      if (!gateOpen(Obj, T.Tid, OrderedOp::WeakAcquire)) {
        blockOnGate(T, Obj, Now);
        return Step::Blocked;
      }
      WeakRequest Req{T.Tid, Next.HasRange, Next.Lo, Next.Hi, Now,
                      Next.SiteGran};
      if (!Weak.tryAcquire(Next.LockId, Req)) {
        fail("replay divergence: forced reacquisition infeasible");
        return Step::Fault;
      }
      Reacquired = true;
      T.PendingReacquire.erase(T.PendingReacquire.begin());
      T.HeldWeak.push_back(Next);
      ++Stats.WeakAcquires[Gran];
      if (CollectObs)
        ++ObsPerLock[Next.LockId].Acquires;
      chargeWeakCpu(Next.LockId, Gran, Opts.Costs.WeakLockOp, Core);
      gateAdvance(Obj, Now);
      if (Opts.Observer)
        Opts.Observer->onWeak(T.Tid, /*IsAcquire=*/true, Next.LockId,
                              Next.HasRange, Next.Lo, Next.Hi, Now);
      continue;
    }

    WeakRequest Req{T.Tid, Next.HasRange, Next.Lo, Next.Hi, Now,
                    Next.SiteGran};
    if (Weak.tryAcquire(Next.LockId, Req)) {
      Reacquired = true;
      T.PendingReacquire.erase(T.PendingReacquire.begin());
      T.HeldWeak.push_back(Next);
      ++Stats.WeakAcquires[Gran];
      if (CollectObs)
        ++ObsPerLock[Next.LockId].Acquires;
      chargeWeakCpu(Next.LockId, Gran, Opts.Costs.WeakLockOp, Core);
      if (isRecord())
        recordOrdered(Obj, T.Tid, OrderedOp::WeakAcquire, Core);
      if (Opts.Observer)
        Opts.Observer->onWeak(T.Tid, /*IsAcquire=*/true, Next.LockId,
                              Next.HasRange, Next.Lo, Next.Hi, Now);
      continue;
    }

    Weak.enqueue(Next.LockId, Req);
    T.State = ThreadState::Blocked;
    T.Reason = BlockReason::WeakLock;
    T.WaitObject = Next.LockId;
    T.BlockStart = Now;
    return Step::Blocked; // grantWeakWaiters pops PendingReacquire.
  }

  if (!Reacquired)
    return Step::Continue;
  } // for (;;)
}

//===----------------------------------------------------------------------===//
// Instruction dispatch
//===----------------------------------------------------------------------===//

namespace {

uint64_t evalBinary(BinOp Op, uint64_t A, uint64_t B, bool &DivByZero) {
  int64_t SA = static_cast<int64_t>(A);
  int64_t SB = static_cast<int64_t>(B);
  switch (Op) {
  case BinOp::Add: return A + B;
  case BinOp::Sub: return A - B;
  case BinOp::Mul: return A * B;
  case BinOp::Div:
    if (B == 0) {
      DivByZero = true;
      return 0;
    }
    return static_cast<uint64_t>(SA / SB);
  case BinOp::Rem:
    if (B == 0) {
      DivByZero = true;
      return 0;
    }
    return static_cast<uint64_t>(SA % SB);
  case BinOp::And: return A & B;
  case BinOp::Or: return A | B;
  case BinOp::Xor: return A ^ B;
  case BinOp::Shl: return A << (B & 63);
  case BinOp::Shr: return static_cast<uint64_t>(SA >> (B & 63));
  case BinOp::Lt: return SA < SB;
  case BinOp::Le: return SA <= SB;
  case BinOp::Gt: return SA > SB;
  case BinOp::Ge: return SA >= SB;
  case BinOp::Eq: return A == B;
  case BinOp::Ne: return A != B;
  }
  assert(false && "unhandled binary opcode");
  return 0;
}

} // namespace

template <bool Observed>
[[gnu::always_inline]] inline Machine::Step
Machine::execChunk(Thread &T, unsigned Core, uint64_t MaxInsts,
                   uint64_t StopTime, uint64_t AttemptStart, IdlePhase &Phase,
                   uint64_t &Retired) {
  Frame *F = &T.frame();
  const DecodedInst *Insts = F->DFunc->Insts.data();
  uint64_t *Regs = F->Regs.data();
  uint32_t Ip = F->Ip;

  // Time may already be at or past StopTime on entry (a pending sync op
  // charged cycles, or binding advanced the clock to the thread's ready
  // time); the pre-batching loop still executed one instruction before
  // noticing, so the loop below checks the clock only after retiring.
  // Every fast opcode charges Time and CpuBusyCycles the same amount, so
  // the busy total is reconstructed from the Time delta at writeback.
  const uint64_t TimeStart = Sched.coreTime(Core);
  uint64_t Time = TimeStart;

  // Costs and segment bounds live in locals for the same reason as the
  // register file pointer: the stores this loop makes could alias the
  // members, and the reloads would dominate the per-instruction work.
  const uint64_t CAlu = Opts.Costs.Alu, CLoad = Opts.Costs.Load,
                 CStore = Opts.Costs.Store, CBranch = Opts.Costs.Branch,
                 CCall = Opts.Costs.Call, CRet = Opts.Costs.Ret,
                 CAlloc = Opts.Costs.AllocOp;
  Memory::View MV = Mem.view();
  // Callbacks get the pre-charge clock and read no machine state, which
  // is written back only when the chunk ends (Observer.h).
  ExecutionObserver *const Obs = Opts.Observer;

  uint64_t N = 0; ///< Instructions retired this chunk.
  uint64_t MemOps = 0;
  IdlePhase P = Phase;
  uint64_t InstStart = AttemptStart; ///< Clock before this attempt.
  Step Result = Step::Continue;
  bool ThreadDone = false;
  uint64_t FinishNow = 0; ///< Pre-charge time of the finishing Ret.

  while (N != MaxInsts) {
    const DecodedInst &I = Insts[Ip];
    switch (I.Op) {
    case Opcode::ConstInt:
      Regs[I.Dst] = I.Imm;
      Time += CAlu;
      ++Ip;
      break;

    case Opcode::Move:
      Regs[I.Dst] = Regs[I.A];
      Time += CAlu;
      ++Ip;
      break;

    case Opcode::Unary: {
      uint64_t A = Regs[I.A];
      Regs[I.Dst] = static_cast<UnOp>(I.Sub) == UnOp::Neg
                        ? static_cast<uint64_t>(-static_cast<int64_t>(A))
                        : static_cast<uint64_t>(A == 0);
      Time += CAlu;
      ++Ip;
      break;
    }

    case Opcode::Binary: {
      bool DivByZero = false;
      uint64_t V = evalBinary(static_cast<BinOp>(I.Sub), Regs[I.A],
                              Regs[I.B], DivByZero);
      if (DivByZero) {
        fail("division by zero in " + F->func().Name + " (line " +
             std::to_string(I.Line) + ")");
        Result = Step::Fault;
        goto done;
      }
      Regs[I.Dst] = V;
      Time += CAlu;
      ++Ip;
      break;
    }

    case Opcode::AddrGlobal: {
      uint64_t Addr = I.Imm;
      if (I.A != NoReg)
        Addr += Regs[I.A];
      Regs[I.Dst] = Addr;
      Time += CAlu;
      ++Ip;
      break;
    }

    case Opcode::PtrAdd:
      Regs[I.Dst] = Regs[I.A] + Regs[I.B];
      Time += CAlu;
      ++Ip;
      break;

    case Opcode::Load: {
      const uint64_t Addr = Regs[I.A]; // Dst may be the address register.
      const uint64_t *P = MV.access(Addr);
      if (!P) {
        fail("invalid load address in " + F->func().Name + " (line " +
             std::to_string(I.Line) + ")");
        Result = Step::Fault;
        goto done;
      }
      Regs[I.Dst] = *P;
      ++MemOps;
      if constexpr (Observed)
        Obs->onMemoryAccess(T.Tid, Addr, /*IsWrite=*/false, F->func().Index,
                            I.Ident, Time);
      Time += CLoad;
      ++Ip;
      break;
    }

    case Opcode::Store: {
      const uint64_t Addr = Regs[I.A];
      uint64_t *P = MV.access(Addr);
      if (!P) {
        fail("invalid store address in " + F->func().Name + " (line " +
             std::to_string(I.Line) + ")");
        Result = Step::Fault;
        goto done;
      }
      *P = Regs[I.B];
      ++MemOps;
      if constexpr (Observed)
        Obs->onMemoryAccess(T.Tid, Addr, /*IsWrite=*/true, F->func().Index,
                            I.Ident, Time);
      Time += CStore;
      ++Ip;
      break;
    }

    case Opcode::Br:
      Ip = I.Succ0;
      Time += CBranch;
      break;

    case Opcode::CondBr:
      Ip = Regs[I.A] != 0 ? I.Succ0 : I.Succ1;
      Time += CBranch;
      break;

    case Opcode::Alloc: {
      uint64_t Words = Regs[I.A];
      uint64_t Addr = Mem.allocate(Words);
      if (!Addr) {
        fail("heap exhausted allocating " + std::to_string(Words) +
             " words");
        Result = Step::Fault;
        goto done;
      }
      MV = Mem.view(); // allocate() moved the heap bound.
      Regs[I.Dst] = Addr;
      Time += CAlloc;
      ++Ip;
      break;
    }

    case Opcode::Call: {
      const DecodedFunction &Callee = Prog.function(I.Id);
      Frame NewFrame;
      NewFrame.DFunc = &Callee;
      NewFrame.Regs.assign(Callee.Src->NumRegs, 0);
      const Reg *Args = F->DFunc->ArgPool.data() + I.ArgsIdx;
      for (uint16_t J = 0; J != I.ArgsLen; ++J)
        NewFrame.Regs[J] = Regs[Args[J]];
      NewFrame.RetDst = I.Dst;
      if constexpr (Observed)
        Obs->onFunctionEnter(T.Tid, Callee.Src->Index, Time);
      Time += CCall;
      F->Ip = Ip + 1; // Caller resumes after the call.
      T.Stack.push_back(std::move(NewFrame));
      // The push may reallocate the stack; rehoist the frame state.
      F = &T.Stack.back();
      Insts = F->DFunc->Insts.data();
      Regs = F->Regs.data();
      Ip = 0;
      break;
    }

    case Opcode::Ret: {
      bool HasValue = I.A != NoReg;
      uint64_t Value = HasValue ? Regs[I.A] : 0;
      uint64_t Now = Time; // Pre-charge clock, as for the finish below.
      if constexpr (Observed)
        Obs->onFunctionExit(T.Tid, F->func().Index, Now);
      Time += CRet;
      ir::Reg RetDst = F->RetDst;
      T.Stack.pop_back();
      if (T.Stack.empty()) {
        T.RetValue = HasValue ? Value : 0;
        ++N; // The return retires.
        ThreadDone = true;
        FinishNow = Now;
        Result = Step::Finished;
        goto done;
      }
      F = &T.Stack.back();
      Insts = F->DFunc->Insts.data();
      Regs = F->Regs.data();
      Ip = F->Ip;
      if (RetDst != NoReg) {
        assert(HasValue && "value-expecting call returned void");
        Regs[RetDst] = Value;
      }
      break;
    }

    default:
      // Scheduler- or log-visible opcode: leave it (unconsumed) for the
      // generic dispatcher.
      goto done;
    }

    ++N;
    P.step(InstStart, Time);
    InstStart = Time;
    if (Time >= StopTime)
      break;
  }

done:
  // A finishing Ret retires and a fault ends its attempt; a non-fast
  // opcode is left for the generic dispatcher, which steps it.
  if (Result != Step::Continue)
    P.step(InstStart, Time);
  Phase = P;
  if (!ThreadDone)
    F->Ip = Ip; // The popped frame of a finishing Ret is already gone.
  Retired = N;
  T.Instret += N;
  Stats.Instructions += N;
  Stats.MemOps += MemOps;
  Stats.CpuBusyCycles += Time - TimeStart;
  Sched.setCoreTime(Core, Time);
  if (ThreadDone)
    finishThread(T, FinishNow);
  return Result;
}

Machine::Step Machine::execFast(Thread &T, unsigned Core, uint64_t MaxInsts,
                                uint64_t StopTime, uint64_t AttemptStart,
                                IdlePhase &Phase, uint64_t &Retired) {
  // GCC does not split cold code out of a template instantiation (a
  // COMDAT function); in this ordinary function it moves the fault paths
  // out of both loops.
  return Opts.Observer ? execChunk<true>(T, Core, MaxInsts, StopTime,
                                         AttemptStart, Phase, Retired)
                       : execChunk<false>(T, Core, MaxInsts, StopTime,
                                          AttemptStart, Phase, Retired);
}

Machine::Step Machine::execInstruction(Thread &T, unsigned Core) {
  Frame &F = T.frame();
  assert(F.Ip < F.DFunc->Insts.size() && "instruction index out of range");
  const DecodedInst &Inst = F.DFunc->Insts[F.Ip];

  switch (Inst.Op) {
  case Opcode::Spawn:
    return doSpawn(T, Inst, Core);

  case Opcode::Join:
    return doJoin(T, static_cast<uint32_t>(reg(T, Inst.A)), Core);

  case Opcode::MutexLock:
    return doMutexLock(T, Inst.Id, Core);
  case Opcode::MutexUnlock:
    return doMutexUnlock(T, Inst.Id, Core);
  case Opcode::BarrierWait:
    return doBarrierWait(T, Inst.Id, Core);
  case Opcode::CondWait:
    return doCondWait(T, Inst.Id, Inst.Id2, Core);
  case Opcode::CondSignal:
    return doCondSignal(T, Inst.Id, /*Broadcast=*/false, Core);
  case Opcode::CondBroadcast:
    return doCondSignal(T, Inst.Id, /*Broadcast=*/true, Core);

  case Opcode::Input:
    return doInputOp(T, InputKind::Input, Inst.Dst, Core);
  case Opcode::NetRecv:
    return doInputOp(T, InputKind::NetRecv, Inst.Dst, Core);
  case Opcode::FileRead:
    return doInputOp(T, InputKind::FileRead, Inst.Dst, Core);
  case Opcode::Output:
    return doOutput(T, reg(T, Inst.A), Core);

  case Opcode::Yield:
    Sched.advanceCore(Core, Opts.Costs.Alu);
    Stats.CpuBusyCycles += Opts.Costs.Alu;
    advance(T);
    return Step::Yielded;

  case Opcode::WeakAcquire: {
    bool HasRange = Inst.A != NoReg;
    uint64_t Lo = HasRange ? reg(T, Inst.A) : 0;
    uint64_t Hi = HasRange ? reg(T, Inst.B) : 0;
    return doWeakAcquire(T, static_cast<uint32_t>(Inst.Imm),
                         /*SiteGran=*/Inst.Sub, HasRange, Lo, Hi, Core);
  }

  case Opcode::WeakRelease:
    return doWeakRelease(T, static_cast<uint32_t>(Inst.Imm), Core,
                         /*Forced=*/false);

  default:
    break; // Pure opcodes are execFast's.
  }
  assert(false && "pure opcode reached execInstruction");
  return Step::Fault;
}
