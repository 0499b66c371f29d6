//===- runtime/WeakLock.h - Weak-lock manager -------------------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Chimera's weak-locks (paper §2.3). A weak-lock behaves like a mutex
/// except that (a) loop-granularity locks carry a word-address range and
/// two acquisitions conflict only when their ranges overlap (an unranged
/// acquisition conflicts with everything), and (b) a waiter stalled past
/// a timeout triggers *revocation*: the current owner is forced to
/// release and later reacquire, splitting its critical section, so
/// program-level waits inside weak-locked regions cannot deadlock.
///
/// The manager tracks holders and FIFO waiters per lock; the Machine owns
/// thread state transitions and logging.
///
/// Conflict queries are sublinear in the holder count: ranged holders are
/// pairwise disjoint by construction (overlap is a conflict), so each
/// lock keeps them in an ordered interval map (Lo -> Hi) answering
/// overlap in O(log holders), plus a whole-object flag for the (at most
/// one) unranged holder. Waiter-side conflict checks keep FIFO grant
/// order bit-identical to a plain scan: a bounding box over the queued
/// ranges short-circuits the common no-overlap case and a precise scan
/// decides the rest.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_RUNTIME_WEAKLOCK_H
#define CHIMERA_RUNTIME_WEAKLOCK_H

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <vector>

namespace chimera {
namespace rt {

/// An acquisition request / grant with its optional range.
struct WeakRequest {
  uint32_t Tid = 0;
  bool HasRange = false;
  uint64_t Lo = 0;
  uint64_t Hi = 0;
  uint64_t Since = 0;   ///< Time the hold/wait began.
  uint8_t SiteGran = 3; ///< ir::WeakLockGranularity of the acquire site.
};

class WeakLockManager {
public:
  void init(uint32_t NumLocks);

  uint32_t numLocks() const { return static_cast<uint32_t>(Locks.size()); }

  /// True if a new acquisition with the given range would conflict with a
  /// current holder of \p LockId.
  bool wouldConflict(uint32_t LockId, bool HasRange, uint64_t Lo,
                     uint64_t Hi) const;

  /// Attempts an immediate acquisition; on success records the holder.
  bool tryAcquire(uint32_t LockId, const WeakRequest &Req);

  /// Queues \p Req as a waiter (FIFO).
  void enqueue(uint32_t LockId, const WeakRequest &Req);

  /// Removes \p Tid as a holder of \p LockId. Returns true if it held it.
  bool removeHolder(uint32_t LockId, uint32_t Tid);

  /// Pops every waiter that can now run (FIFO, skipping conflicting ones)
  /// and records them as holders. Returns the granted requests in order.
  std::vector<WeakRequest> grantWaiters(uint32_t LockId, uint64_t Now);

  /// A revocation opportunity: a waiter stalled at least the timeout
  /// and the holder blocking it.
  struct Timeout {
    bool Found = false;
    uint32_t LockId = 0;
    uint32_t VictimTid = 0; ///< Holder to preempt.
    uint32_t WaiterTid = 0; ///< Stalled thread.
  };

  /// Victim search for one designated beneficiary: \p WaiterTid's queued
  /// request on \p LockId must have stalled at least \p TimeoutCycles,
  /// and the returned victim is the first conflicting holder for which
  /// \p VictimEligible holds. The machine passes "the holder is stuck"
  /// and calls this only for its highest-priority stuck waiter, so
  /// revocations always feed the same beneficiary until it makes real
  /// progress — a rotating beneficiary livelocks under mass contention
  /// (each round's grantee is robbed by the next round before it can
  /// assemble its full guard set).
  template <typename PredT>
  Timeout findVictimFor(uint32_t LockId, uint32_t WaiterTid, uint64_t Now,
                        uint64_t TimeoutCycles,
                        PredT &&VictimEligible) const {
    Timeout Result;
    if (LockId >= Locks.size())
      return Result;
    const LockState &L = Locks[LockId];
    const WeakRequest *Req = nullptr;
    for (const WeakRequest &W : L.Waiters) {
      if (W.Tid == WaiterTid) {
        Req = &W;
        break;
      }
    }
    if (!Req)
      return Result;
    if (Now < Req->Since || Now - Req->Since < TimeoutCycles)
      return Result;
    for (const WeakRequest &H : L.Holders) {
      if (!conflicts(H, Req->HasRange, Req->Lo, Req->Hi))
        continue;
      if (!VictimEligible(H.Tid))
        continue;
      Result.Found = true;
      Result.LockId = LockId;
      Result.VictimTid = H.Tid;
      Result.WaiterTid = WaiterTid;
      return Result;
    }
    return Result;
  }

  /// Calls \p Fn(Tid) for every thread obstructing \p Tid's queued
  /// request on \p LockId: holders whose grant conflicts with it, and
  /// earlier FIFO waiters it conflicts with (a compatible request still
  /// queues behind a conflicting one — see tryAcquire's fairness rule —
  /// so those waiters gate progress exactly like holders do). No-op when
  /// \p Tid is not waiting on \p LockId. Drives the machine's
  /// stalled-ownership-chain walk for revocation eligibility.
  template <typename FnT>
  void forEachBlocker(uint32_t LockId, uint32_t Tid, FnT &&Fn) const {
    if (LockId >= Locks.size())
      return;
    const LockState &L = Locks[LockId];
    const WeakRequest *Req = nullptr;
    for (const WeakRequest &W : L.Waiters) {
      if (W.Tid == Tid) {
        Req = &W;
        break;
      }
    }
    if (!Req)
      return;
    for (const WeakRequest &H : L.Holders)
      if (conflicts(H, Req->HasRange, Req->Lo, Req->Hi))
        Fn(H.Tid);
    for (const WeakRequest &W : L.Waiters) {
      if (W.Tid == Tid)
        break; // Only waiters queued ahead of us gate our grant.
      if (conflicts(W, Req->HasRange, Req->Lo, Req->Hi))
        Fn(W.Tid);
    }
  }

  /// Number of threads currently holding / waiting on \p LockId.
  size_t numHolders(uint32_t LockId) const;
  size_t numWaiters(uint32_t LockId) const;

  /// Earliest Since among all waiters across all locks; UINT64_MAX when
  /// nothing is waiting. Drives timeout wakeups when every thread is
  /// blocked.
  uint64_t earliestWaiterSince() const;

  /// Since of \p Tid's queued request on \p LockId; UINT64_MAX when it
  /// is not waiting there. The machine times revocation maturity off
  /// the designated beneficiary's own wait, not the oldest wait.
  uint64_t waiterSince(uint32_t LockId, uint32_t Tid) const {
    if (LockId >= Locks.size())
      return UINT64_MAX;
    for (const WeakRequest &W : Locks[LockId].Waiters)
      if (W.Tid == Tid)
        return W.Since;
    return UINT64_MAX;
  }

  /// True when any thread holds any weak-lock. findVictimFor() needs a
  /// conflicting *holder* to revoke, so polls while nothing is held can
  /// be skipped without changing any outcome.
  bool anyHeld() const { return TotalHolders != 0; }

  /// The holder entry for (LockId, Tid); null if absent.
  const WeakRequest *holder(uint32_t LockId, uint32_t Tid) const;

private:
  struct LockState {
    std::vector<WeakRequest> Holders;
    std::deque<WeakRequest> Waiters;

    /// Interval index over the ranged entries of Holders: Lo -> Hi.
    /// Admitted holders are pairwise non-conflicting, so ranged holds
    /// are disjoint intervals and a predecessor lookup answers any
    /// overlap query exactly.
    std::map<uint64_t, uint64_t> RangeIdx;
    /// Number of unranged holders (0 or 1 — an unranged hold excludes
    /// every other hold).
    uint32_t UnrangedHolders = 0;

    /// Waiter-side summary for the queue-behind-conflicting-waiters
    /// check: count of unranged waiters plus a bounding box over the
    /// ranged waiters' intervals. A request outside the box cannot
    /// conflict with any ranged waiter; inside it, a precise scan
    /// decides (the box may be stale-wide after grants, which only
    /// costs the scan, never correctness).
    uint32_t UnrangedWaiters = 0;
    uint64_t WaiterLoMin = UINT64_MAX;
    uint64_t WaiterHiMax = 0;
  };

  static bool conflicts(const WeakRequest &A, bool HasRange, uint64_t Lo,
                        uint64_t Hi);

  /// True when any queued waiter of \p L conflicts with the request.
  static bool conflictsWithWaiters(const LockState &L, bool HasRange,
                                   uint64_t Lo, uint64_t Hi);

  static void indexHolder(LockState &L, const WeakRequest &Req);
  static void rebuildWaiterSummary(LockState &L);

  std::vector<LockState> Locks;
  size_t TotalWaiters = 0; ///< Across all locks (fast timeout early-out).
  size_t TotalHolders = 0; ///< Across all locks (held-gated polling).
};

} // namespace rt
} // namespace chimera

#endif // CHIMERA_RUNTIME_WEAKLOCK_H
