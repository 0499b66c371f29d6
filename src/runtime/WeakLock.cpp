//===- runtime/WeakLock.cpp - Weak-lock manager ----------------------------===//

#include "runtime/WeakLock.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace chimera;
using namespace chimera::rt;

void WeakLockManager::init(uint32_t NumLocks) {
  Locks.clear();
  Locks.resize(NumLocks);
  TotalWaiters = 0;
  TotalHolders = 0;
}

bool WeakLockManager::conflicts(const WeakRequest &A, bool HasRange,
                                uint64_t Lo, uint64_t Hi) {
  // An unranged acquisition excludes everything; ranged ones conflict
  // only when the word intervals overlap.
  if (!A.HasRange || !HasRange)
    return true;
  return A.Lo <= Hi && Lo <= A.Hi;
}

bool WeakLockManager::wouldConflict(uint32_t LockId, bool HasRange,
                                    uint64_t Lo, uint64_t Hi) const {
  assert(LockId < Locks.size() && "lock id out of range");
  const LockState &L = Locks[LockId];
  if (L.UnrangedHolders)
    return true;
  if (!HasRange)
    return !L.Holders.empty();
  // Ranged vs. ranged: holders are disjoint intervals, so the only
  // candidate is the interval with the largest Lo <= Hi — every earlier
  // interval ends before that one starts, hence before our Lo as well.
  auto It = L.RangeIdx.upper_bound(Hi);
  if (It == L.RangeIdx.begin())
    return false;
  --It;
  return It->second >= Lo;
}

bool WeakLockManager::conflictsWithWaiters(const LockState &L, bool HasRange,
                                           uint64_t Lo, uint64_t Hi) {
  if (L.Waiters.empty())
    return false;
  if (L.UnrangedWaiters || !HasRange)
    return true; // Some waiter (or the request) excludes everything.
  // Bounding-box reject: a request disjoint from the hull of all queued
  // ranges conflicts with none of them.
  if (Hi < L.WaiterLoMin || Lo > L.WaiterHiMax)
    return false;
  for (const WeakRequest &W : L.Waiters)
    if (conflicts(W, HasRange, Lo, Hi))
      return true;
  return false;
}

void WeakLockManager::indexHolder(LockState &L, const WeakRequest &Req) {
  L.Holders.push_back(Req);
  if (Req.HasRange) {
    assert(L.RangeIdx.find(Req.Lo) == L.RangeIdx.end() &&
           "overlapping holder admitted");
    L.RangeIdx[Req.Lo] = Req.Hi;
  } else {
    ++L.UnrangedHolders;
  }
}

void WeakLockManager::rebuildWaiterSummary(LockState &L) {
  L.UnrangedWaiters = 0;
  L.WaiterLoMin = UINT64_MAX;
  L.WaiterHiMax = 0;
  for (const WeakRequest &W : L.Waiters) {
    if (!W.HasRange) {
      ++L.UnrangedWaiters;
    } else {
      L.WaiterLoMin = std::min(L.WaiterLoMin, W.Lo);
      L.WaiterHiMax = std::max(L.WaiterHiMax, W.Hi);
    }
  }
}

bool WeakLockManager::tryAcquire(uint32_t LockId, const WeakRequest &Req) {
  assert(LockId < Locks.size() && "lock id out of range");
  LockState &L = Locks[LockId];
  // FIFO fairness: an incoming request must also queue behind existing
  // waiters it conflicts with, or a stream of compatible acquirers could
  // starve a waiter forever.
  if (conflictsWithWaiters(L, Req.HasRange, Req.Lo, Req.Hi))
    return false;
  if (wouldConflict(LockId, Req.HasRange, Req.Lo, Req.Hi))
    return false;
  indexHolder(L, Req);
  ++TotalHolders;
  return true;
}

void WeakLockManager::enqueue(uint32_t LockId, const WeakRequest &Req) {
  assert(LockId < Locks.size() && "lock id out of range");
  LockState &L = Locks[LockId];
  L.Waiters.push_back(Req);
  ++TotalWaiters;
  if (!Req.HasRange) {
    ++L.UnrangedWaiters;
  } else {
    L.WaiterLoMin = std::min(L.WaiterLoMin, Req.Lo);
    L.WaiterHiMax = std::max(L.WaiterHiMax, Req.Hi);
  }
}

bool WeakLockManager::removeHolder(uint32_t LockId, uint32_t Tid) {
  assert(LockId < Locks.size() && "lock id out of range");
  LockState &L = Locks[LockId];
  auto &Holders = L.Holders;
  for (size_t I = 0; I != Holders.size(); ++I) {
    if (Holders[I].Tid == Tid) {
      if (Holders[I].HasRange)
        L.RangeIdx.erase(Holders[I].Lo);
      else
        --L.UnrangedHolders;
      Holders.erase(Holders.begin() + static_cast<ptrdiff_t>(I));
      --TotalHolders;
      return true;
    }
  }
  return false;
}

std::vector<WeakRequest> WeakLockManager::grantWaiters(uint32_t LockId,
                                                       uint64_t Now) {
  assert(LockId < Locks.size() && "lock id out of range");
  LockState &L = Locks[LockId];
  std::vector<WeakRequest> Granted;

  // FIFO with compatibility skipping: grant the front waiter if it fits,
  // and keep granting subsequent waiters whose ranges are also
  // compatible. Stop at the first conflicting waiter to preserve
  // fairness.
  while (!L.Waiters.empty()) {
    const WeakRequest &Front = L.Waiters.front();
    if (wouldConflict(LockId, Front.HasRange, Front.Lo, Front.Hi))
      break;
    WeakRequest Grant = Front;
    Grant.Since = Now;
    indexHolder(L, Grant);
    ++TotalHolders;
    Granted.push_back(Grant);
    L.Waiters.pop_front();
    --TotalWaiters;
  }
  if (!Granted.empty())
    rebuildWaiterSummary(L);
  return Granted;
}

size_t WeakLockManager::numHolders(uint32_t LockId) const {
  assert(LockId < Locks.size() && "lock id out of range");
  return Locks[LockId].Holders.size();
}

size_t WeakLockManager::numWaiters(uint32_t LockId) const {
  assert(LockId < Locks.size() && "lock id out of range");
  return Locks[LockId].Waiters.size();
}

uint64_t WeakLockManager::earliestWaiterSince() const {
  uint64_t Best = UINT64_MAX;
  if (!TotalWaiters)
    return Best;
  // Enqueue times are not globally monotone (core clocks drift within a
  // cycle of each other), so this takes the true minimum rather than
  // trusting queue order.
  for (const LockState &L : Locks)
    for (const WeakRequest &W : L.Waiters)
      Best = std::min(Best, W.Since);
  return Best;
}

const WeakRequest *WeakLockManager::holder(uint32_t LockId,
                                           uint32_t Tid) const {
  assert(LockId < Locks.size() && "lock id out of range");
  for (const WeakRequest &H : Locks[LockId].Holders)
    if (H.Tid == Tid)
      return &H;
  return nullptr;
}
