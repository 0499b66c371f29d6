//===- tests/weaklock_test.cpp - Weak-lock manager and revocation ----------===//

#include "TestUtil.h"
#include "codegen/CodeGen.h"
#include "instrument/Instrumenter.h"
#include "runtime/Machine.h"
#include "runtime/WeakLock.h"

#include <gtest/gtest.h>

using namespace chimera;
using namespace chimera::rt;

//===----------------------------------------------------------------------===//
// WeakLockManager unit tests
//===----------------------------------------------------------------------===//

TEST(WeakLockManager, UnrangedIsExclusive) {
  WeakLockManager WL;
  WL.init(1);
  EXPECT_TRUE(WL.tryAcquire(0, {1, false, 0, 0, 0, 0}));
  EXPECT_FALSE(WL.tryAcquire(0, {2, false, 0, 0, 0, 0}));
  EXPECT_TRUE(WL.removeHolder(0, 1));
  EXPECT_TRUE(WL.tryAcquire(0, {2, false, 0, 0, 0, 0}));
}

TEST(WeakLockManager, DisjointRangesCoexist) {
  WeakLockManager WL;
  WL.init(1);
  EXPECT_TRUE(WL.tryAcquire(0, {1, true, 0, 9, 0, 1}));
  EXPECT_TRUE(WL.tryAcquire(0, {2, true, 10, 19, 0, 1}));
  EXPECT_EQ(WL.numHolders(0), 2u);
  // Overlapping range blocks.
  EXPECT_FALSE(WL.tryAcquire(0, {3, true, 5, 12, 0, 1}));
  // Unranged conflicts with any holder.
  EXPECT_FALSE(WL.tryAcquire(0, {4, false, 0, 0, 0, 1}));
}

TEST(WeakLockManager, RangedBlockedByUnrangedHolder) {
  WeakLockManager WL;
  WL.init(1);
  EXPECT_TRUE(WL.tryAcquire(0, {1, false, 0, 0, 0, 0}));
  EXPECT_FALSE(WL.tryAcquire(0, {2, true, 100, 200, 0, 0}));
}

TEST(WeakLockManager, FifoFairnessBlocksQueueJumping) {
  WeakLockManager WL;
  WL.init(1);
  ASSERT_TRUE(WL.tryAcquire(0, {1, true, 0, 9, 0, 0}));
  // Thread 2 waits on an overlapping range.
  WL.enqueue(0, {2, true, 5, 14, 10, 0});
  // Thread 3's range is free *now*, but it conflicts with waiter 2 and
  // must not jump the queue.
  EXPECT_FALSE(WL.tryAcquire(0, {3, true, 12, 20, 20, 0}));
  // A waiter-compatible range may proceed.
  EXPECT_TRUE(WL.tryAcquire(0, {4, true, 50, 59, 20, 0}));
}

TEST(WeakLockManager, GrantWaitersInOrderWithSkips) {
  WeakLockManager WL;
  WL.init(1);
  ASSERT_TRUE(WL.tryAcquire(0, {1, true, 0, 9, 0, 0}));
  WL.enqueue(0, {2, true, 0, 9, 1, 0});   // Conflicts with holder.
  WL.enqueue(0, {3, true, 20, 29, 2, 0}); // Would fit, but FIFO.
  auto Granted = WL.grantWaiters(0, 5);
  EXPECT_TRUE(Granted.empty()); // Front waiter still blocked.
  WL.removeHolder(0, 1);
  Granted = WL.grantWaiters(0, 6);
  ASSERT_EQ(Granted.size(), 2u);
  EXPECT_EQ(Granted[0].Tid, 2u);
  EXPECT_EQ(Granted[1].Tid, 3u);
  EXPECT_EQ(WL.numHolders(0), 2u);
  EXPECT_EQ(WL.numWaiters(0), 0u);
}

TEST(WeakLockManager, GrantStopsAtFirstConflict) {
  WeakLockManager WL;
  WL.init(1);
  ASSERT_TRUE(WL.tryAcquire(0, {1, true, 0, 9, 0, 0}));
  WL.enqueue(0, {2, true, 0, 9, 1, 0});
  WL.enqueue(0, {3, true, 0, 9, 2, 0}); // Conflicts with waiter 2.
  WL.removeHolder(0, 1);
  auto Granted = WL.grantWaiters(0, 3);
  ASSERT_EQ(Granted.size(), 1u);
  EXPECT_EQ(Granted[0].Tid, 2u);
  EXPECT_EQ(WL.numWaiters(0), 1u);
}

TEST(WeakLockManager, FindTimeoutIdentifiesVictim) {
  WeakLockManager WL;
  WL.init(2);
  ASSERT_TRUE(WL.tryAcquire(1, {7, false, 0, 0, 100, 0}));
  WL.enqueue(1, {8, false, 0, 0, 200, 0});
  auto Always = [](uint32_t) { return true; };
  auto TO = WL.findVictimFor(1, 8, /*Now=*/100000, /*Timeout=*/50000, Always);
  ASSERT_TRUE(TO.Found);
  EXPECT_EQ(TO.LockId, 1u);
  EXPECT_EQ(TO.VictimTid, 7u);
  EXPECT_EQ(TO.WaiterTid, 8u);
  // Not yet timed out.
  EXPECT_FALSE(WL.findVictimFor(1, 8, 200 + 49999, 50000, Always).Found);
  // Timed out, but the only conflicting holder is not an eligible victim.
  EXPECT_FALSE(
      WL.findVictimFor(1, 8, 100000, 50000, [](uint32_t) { return false; })
          .Found);
}

TEST(WeakLockManager, HolderLookup) {
  WeakLockManager WL;
  WL.init(1);
  ASSERT_TRUE(WL.tryAcquire(0, {5, true, 10, 20, 0, 2}));
  const WeakRequest *H = WL.holder(0, 5);
  ASSERT_NE(H, nullptr);
  EXPECT_EQ(H->Lo, 10u);
  EXPECT_EQ(H->SiteGran, 2u);
  EXPECT_EQ(WL.holder(0, 6), nullptr);
}

//===----------------------------------------------------------------------===//
// End-to-end revocation (paper §2.3): a weak-lock held across a blocking
// wait would deadlock a peer; the timeout forces the owner to release.
//===----------------------------------------------------------------------===//

namespace {

/// A program where thread A holds a weak-lock across a condvar wait that
/// only thread B (blocked on the same weak-lock) can satisfy. Without
/// revocation this deadlocks; with it, both finish.
std::unique_ptr<ir::Module> buildRevocationModule() {
  // MiniC source with a hand-planned weak-lock: we instrument manually
  // to control exactly where the weak-lock sits.
    auto M = test::compileOrNull(
      "int flag;\nint done[2];\nmutex m;\ncond cv;\n"
      "void a() { lock(m); while (flag == 0) { cond_wait(cv, m); } "
      "unlock(m); done[0] = 1; }\n"
      "void b() { lock(m); flag = 1; cond_signal(cv); unlock(m); "
      "done[1] = 1; }\n"
      "int main() { int ta = spawn(a); int tb = spawn(b); "
      "join(ta); join(tb); output(done[0] + done[1]); return 0; }",
      "revoke");

  // Wrap the *entire bodies* of a() and b() in weak-lock 0 by inserting
  // acquire at entry and release before each Ret.
  M->WeakLocks.push_back({ir::WeakLockGranularity::Function, "wl", false});
  for (const char *Name : {"a", "b"}) {
    ir::Function &F = *M->findFunction(Name);
    // Acquire at entry.
    ir::Instruction Acq;
    Acq.Op = ir::Opcode::WeakAcquire;
    Acq.Imm = 0;
    Acq.Id2 = 0;
    Acq.Ident = F.newInstId();
    F.block(0).Insts.insert(F.block(0).Insts.begin(), Acq);
    // Release before every Ret.
    for (auto &BB : F.Blocks) {
      if (!BB.hasTerminator() ||
          BB.terminator().Op != ir::Opcode::Ret)
        continue;
      ir::Instruction Rel;
      Rel.Op = ir::Opcode::WeakRelease;
      Rel.Imm = 0;
      Rel.Id2 = 0;
      Rel.Ident = F.newInstId();
      BB.Insts.insert(BB.Insts.end() - 1, Rel);
    }
  }
  return M;
}

} // namespace

TEST(Revocation, TimeoutBreaksWeakLockDeadlock) {
  auto M = buildRevocationModule();
  MachineOptions MO;
  MO.Mode = ExecMode::Record;
  MO.Seed = 3;
  MO.WeakLockTimeout = 20000; // Small: force the revocation path.
  Machine Mx(*M, MO);
  auto R = Mx.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<uint64_t>{2}));
  EXPECT_GE(R.Stats.Revocations, 1u);
  EXPECT_FALSE(R.Log.Revocations.empty());
}

TEST(Revocation, WithoutTimeoutItDeadlocks) {
  auto M = buildRevocationModule();
  MachineOptions MO;
  MO.Seed = 3;
  MO.WeakLockTimeout = ~0ull; // Effectively disabled.
  Machine Mx(*M, MO);
  auto R = Mx.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("deadlock"), std::string::npos);
}

TEST(Revocation, ReplayReproducesRevocations) {
  auto M = buildRevocationModule();
  MachineOptions MO;
  MO.Mode = ExecMode::Record;
  MO.Seed = 3;
  MO.WeakLockTimeout = 20000;
  Machine Rec(*M, MO);
  auto R = Rec.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_GE(R.Stats.Revocations, 1u);

  MachineOptions PO;
  PO.Mode = ExecMode::Replay;
  PO.Seed = 999;
  PO.ReplayLog = &R.Log;
  Machine Rep(*M, PO);
  auto P = Rep.run();
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(P.StateHash, R.StateHash);
  EXPECT_EQ(P.Stats.Revocations, R.Stats.Revocations);
}

TEST(Revocation, ManySeedsRemainDeterministic) {
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    auto M = buildRevocationModule();
    MachineOptions MO;
    MO.Mode = ExecMode::Record;
    MO.Seed = Seed;
    MO.WeakLockTimeout = 15000;
    Machine Rec(*M, MO);
    auto R = Rec.run();
    ASSERT_TRUE(R.Ok) << "seed " << Seed << ": " << R.Error;

    MachineOptions PO;
    PO.Mode = ExecMode::Replay;
    PO.ReplayLog = &R.Log;
    Machine Rep(*M, PO);
    auto P = Rep.run();
    ASSERT_TRUE(P.Ok) << "seed " << Seed << ": " << P.Error;
    EXPECT_EQ(P.StateHash, R.StateHash) << "seed " << Seed;
  }
}
