//===- runtime/Observer.h - Execution event observer ------------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Callback interface through which the profiler (paper §4) and the
/// dynamic race detector observe a simulated execution. Each callback
/// carries everything an observer learns: the thread, the object, and
/// \p Now, the issuing core's clock before the event's own cost. Calls
/// come in simulated execution order, but machine state (counters,
/// clocks, registers) is written back only at the end of a dispatch
/// chunk, so an observer must not read it from inside a callback, and
/// must never mutate it.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_RUNTIME_OBSERVER_H
#define CHIMERA_RUNTIME_OBSERVER_H

#include "ir/Instruction.h"

#include <cstdint>

namespace chimera {
namespace rt {

/// Synchronization events as seen by observers.
enum class ObservedSync : uint8_t {
  MutexLock,     ///< After acquisition.
  MutexUnlock,   ///< Before release completes.
  BarrierArrive, ///< Thread reached the barrier.
  BarrierLeave,  ///< Thread released from the barrier.
  CondWaitBlock, ///< Thread started waiting (mutex released).
  CondWaitWake,  ///< Thread woke (before reacquiring the mutex).
  CondSignal,
  CondBroadcast,
  WeakAcquire,   ///< After acquisition (object id = weak-lock id).
  WeakRelease,
};

class ExecutionObserver {
public:
  virtual ~ExecutionObserver();

  /// A thread began existing: \p Tid runs \p FuncId; \p ParentTid is the
  /// spawner (Tid == ParentTid for the main thread).
  virtual void onThreadStart(uint32_t Tid, uint32_t ParentTid,
                             uint32_t FuncId, uint64_t Now);

  /// \p Tid finished (its joiner, if any, is reported by onJoin).
  virtual void onThreadFinish(uint32_t Tid, uint64_t Now);

  /// \p ParentTid's join on \p ChildTid completed.
  virtual void onJoin(uint32_t ParentTid, uint32_t ChildTid, uint64_t Now);

  virtual void onFunctionEnter(uint32_t Tid, uint32_t FuncId, uint64_t Now);
  virtual void onFunctionExit(uint32_t Tid, uint32_t FuncId, uint64_t Now);

  /// A data memory access at word address \p Addr by instruction
  /// \p Ident of function \p FuncId.
  virtual void onMemoryAccess(uint32_t Tid, uint64_t Addr, bool IsWrite,
                              uint32_t FuncId, ir::InstId Ident,
                              uint64_t Now);

  /// A synchronization event on object \p ObjId (sync id, or weak-lock id
  /// for the Weak* kinds). For barriers, \p Aux is the generation.
  virtual void onSync(uint32_t Tid, ObservedSync Kind, uint32_t ObjId,
                      uint64_t Aux, uint64_t Now);

  /// A weak-lock acquire/release with its optional address range (ranged
  /// loop-locks admit concurrent disjoint holders, so range-aware
  /// happens-before tracking needs the interval).
  virtual void onWeak(uint32_t Tid, bool IsAcquire, uint32_t LockId,
                      bool HasRange, uint64_t Lo, uint64_t Hi,
                      uint64_t Now);
};

} // namespace rt
} // namespace chimera

#endif // CHIMERA_RUNTIME_OBSERVER_H
