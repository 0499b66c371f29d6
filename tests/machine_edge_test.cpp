//===- tests/machine_edge_test.cpp - Simulator edge cases ------------------===//

#include "TestUtil.h"
#include "codegen/CodeGen.h"
#include "runtime/Machine.h"
#include "runtime/Memory.h"

#include <gtest/gtest.h>

using namespace chimera;
using namespace chimera::rt;

namespace {

std::unique_ptr<ir::Module> compile(const std::string &Source) {
    auto M = test::compileOrNull(Source, "t");
  return M;
}

} // namespace

//===----------------------------------------------------------------------===//
// Memory subsystem
//===----------------------------------------------------------------------===//

TEST(Memory, HeapExhaustionFaultsCleanly) {
  auto M = compile("int main() { int i; for (i = 0; i < 100000; i++) { "
                   "int* p = alloc(65536); p[0] = i; } return 0; }");
  MachineOptions MO;
  Machine Mx(*M, MO);
  auto R = Mx.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("heap exhausted"), std::string::npos);
}

TEST(Memory, UnitApi) {
  auto M = compile("int g = 5;\nint a[3];\nint main() { return 0; }");
  Memory Mem;
  Mem.init(*M, /*HeapCapacityWords=*/16);
  uint64_t GlobalBase = ir::Module::GlobalBase;
  EXPECT_TRUE(Mem.valid(GlobalBase));
  EXPECT_EQ(Mem.load(GlobalBase), 5u);
  EXPECT_TRUE(Mem.valid(GlobalBase + 3));
  EXPECT_FALSE(Mem.valid(GlobalBase + 4));
  EXPECT_FALSE(Mem.valid(0));

  uint64_t P = Mem.allocate(8);
  EXPECT_EQ(P, ir::Module::HeapBase);
  EXPECT_TRUE(Mem.valid(P + 7));
  EXPECT_FALSE(Mem.valid(P + 8));
  Mem.store(P + 3, 99);
  EXPECT_EQ(Mem.load(P + 3), 99u);

  uint64_t Q = Mem.allocate(8);
  EXPECT_EQ(Q, P + 8);
  EXPECT_EQ(Mem.allocate(8), 0u) << "capacity 16 exhausted";
  // Zero-word allocations still return distinct storage.
  Memory Mem2;
  Mem2.init(*M, 4);
  uint64_t A = Mem2.allocate(0), B = Mem2.allocate(0);
  EXPECT_NE(A, 0u);
  EXPECT_NE(A, B);
}

// Wild addresses must be a deterministic Step::Fault in every build
// type (the interpreter classifies through Memory::View::access, never
// an assert that vanishes under NDEBUG), and the fault must be identical
// across runs and dispatch-batch sizes.
TEST(Memory, InvalidLoadFaultsDeterministically) {
  auto M = compile("int main() { int* p = alloc(2); output(p[5]); "
                   "return 0; }");
  for (unsigned Batch : {1u, 64u}) {
    MachineOptions MO;
    MO.DispatchBatch = Batch;
    auto R = Machine(*M, MO).run();
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("invalid load address in main"),
              std::string::npos)
        << R.Error;
  }
}

TEST(Memory, InvalidStoreFaultsDeterministically) {
  auto M = compile("int main() { int* p = alloc(2); p[9] = 7; "
                   "return 0; }");
  for (unsigned Batch : {1u, 64u}) {
    MachineOptions MO;
    MO.DispatchBatch = Batch;
    auto R = Machine(*M, MO).run();
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("invalid store address in main"),
              std::string::npos)
        << R.Error;
  }
}

TEST(Memory, BelowSegmentAddressFaults) {
  // A negative index wraps the address below the heap base, where no
  // segment lives; the classification must still fault, not alias into
  // the global segment.
  auto M = compile("int main() { int* p = alloc(1); p[0 - 1] = 3; "
                   "return 0; }");
  MachineOptions MO;
  auto R = Machine(*M, MO).run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invalid store address"), std::string::npos)
      << R.Error;
}

TEST(Memory, StateHashCoversHeap) {
  auto M = compile("int main() { int* p = alloc(4); p[2] = input() & 255; "
                   "return 0; }");
  MachineOptions A, B;
  A.Seed = 1;
  B.Seed = 2;
  auto RA = Machine(*M, A).run();
  auto RB = Machine(*M, B).run();
  ASSERT_TRUE(RA.Ok && RB.Ok);
  EXPECT_NE(RA.StateHash, RB.StateHash) << "heap contents must hash";
}

//===----------------------------------------------------------------------===//
// Budget and stats
//===----------------------------------------------------------------------===//

TEST(MachineEdge, InstructionBudgetCatchesRunaway) {
  auto M = compile("int main() { while (1) { yield(); } return 0; }");
  MachineOptions MO;
  MO.MaxInstructions = 10000;
  Machine Mx(*M, MO);
  auto R = Mx.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(MachineEdge, NativeModeNeverLogs) {
  auto M = compile("mutex m;\nint main() { lock(m); output(input()); "
                   "unlock(m); return 0; }");
  MachineOptions MO;
  Machine Mx(*M, MO);
  auto R = Mx.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Stats.LogEvents, 0u);
  EXPECT_EQ(R.Log.totalOrderedEvents(), 0u);
}

TEST(MachineEdge, RecordCountsEveryOrderedEvent) {
  auto M = compile("mutex m;\nint tids[2];\n"
                   "void w() { lock(m); unlock(m); }\n"
                   "int main() { tids[0] = spawn(w); tids[1] = spawn(w); "
                   "join(tids[0]); join(tids[1]); output(1); return 0; }");
  auto R = test::recordRun(*M, 5);
  ASSERT_TRUE(R.Ok);
  // 4 mutex ops + 2 spawns + 2 joins + 1 output.
  EXPECT_EQ(R.Log.totalOrderedEvents(), 9u);
  EXPECT_EQ(R.Log.NumThreads, 3u);
}

TEST(MachineEdge, CpuBusyNeverExceedsCoresTimesMakespan) {
  auto M = compile("int s[4];\nint tids[4];\n"
                   "void w(int id) { int i; for (i = 0; i < 5000; i++) { "
                   "s[id] = s[id] + i; } }\n"
                   "int main() { int j; for (j = 0; j < 4; j++) { "
                   "tids[j] = spawn(w, j); } "
                   "for (j = 0; j < 4; j++) { join(tids[j]); } "
                   "return 0; }");
  MachineOptions MO;
  MO.NumCores = 4;
  Machine Mx(*M, MO);
  auto R = Mx.run();
  ASSERT_TRUE(R.Ok);
  EXPECT_LE(R.Stats.CpuBusyCycles, R.Stats.MakespanCycles * 4);
  EXPECT_GT(R.Stats.CpuBusyCycles, R.Stats.MakespanCycles)
      << "four busy workers must overlap";
}

//===----------------------------------------------------------------------===//
// Scheduling fairness and starvation
//===----------------------------------------------------------------------===//

TEST(MachineEdge, MoreThreadsThanCoresAllProgress) {
  auto M = compile("int done[12];\nint tids[12];\n"
                   "void w(int id) { int i; for (i = 0; i < 3000; i++) { "
                   "done[id] = done[id] + 1; } }\n"
                   "int main() { int j; for (j = 0; j < 12; j++) { "
                   "tids[j] = spawn(w, j); } "
                   "for (j = 0; j < 12; j++) { join(tids[j]); } "
                   "int k; int ok = 1; for (k = 0; k < 12; k++) { "
                   "if (done[k] != 3000) { ok = 0; } } "
                   "output(ok); return 0; }");
  MachineOptions MO;
  MO.NumCores = 2;
  MO.Seed = 77;
  Machine Mx(*M, MO);
  auto R = Mx.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<uint64_t>{1}));
}

TEST(MachineEdge, SingleCoreStillCorrect) {
  auto M = compile("mutex m;\nint c;\nint tids[3];\n"
                   "void w() { lock(m); c = c + 1; unlock(m); }\n"
                   "int main() { int j; for (j = 0; j < 3; j++) { "
                   "tids[j] = spawn(w); } "
                   "for (j = 0; j < 3; j++) { join(tids[j]); } "
                   "output(c); return 0; }");
  MachineOptions MO;
  MO.NumCores = 1;
  Machine Mx(*M, MO);
  auto R = Mx.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<uint64_t>{3}));
}

//===----------------------------------------------------------------------===//
// Replay gating edge cases
//===----------------------------------------------------------------------===//

TEST(MachineEdge, EmptyLogReplaysEmptyishProgram) {
  auto M = compile("int main() { int x = 2 + 3; return x; }");
  auto Rec = test::recordRun(*M, 1);
  ASSERT_TRUE(Rec.Ok);
  auto Rep = test::replayRun(*M, Rec.Log);
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  EXPECT_EQ(Rep.StateHash, Rec.StateHash);
}

TEST(MachineEdge, ReplayConsumesAllGates) {
  auto M = compile("mutex m;\nint c;\nint tids[2];\n"
                   "void w(int n) { int i; for (i = 0; i < n; i++) { "
                   "lock(m); c = c + 1; unlock(m); } }\n"
                   "int main() { tids[0] = spawn(w, 40); "
                   "tids[1] = spawn(w, 40); join(tids[0]); join(tids[1]); "
                   "output(c); return 0; }");
  auto Rec = test::recordRun(*M, 6);
  ASSERT_TRUE(Rec.Ok);
  auto Rep = test::replayRun(*M, Rec.Log);
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  // Same op counts in both directions (nothing dropped or duplicated).
  EXPECT_EQ(Rep.Stats.SyncOps, Rec.Stats.SyncOps);
  EXPECT_EQ(Rep.Stats.Instructions, Rec.Stats.Instructions);
}

TEST(MachineEdge, ReplayAgnosticToQuantumSettings) {
  auto M = compile("int c;\nint tids[2];\n"
                   "void w(int n) { int i; for (i = 0; i < n; i++) { "
                   "c = c + 1; } }\n"
                   "int main() { tids[0] = spawn(w, 200); "
                   "tids[1] = spawn(w, 200); join(tids[0]); "
                   "join(tids[1]); output(c); return 0; }");
  MachineOptions RecOpts;
  RecOpts.Mode = ExecMode::Record;
  RecOpts.Seed = 9;
  auto Rec = Machine(*M, RecOpts).run();
  ASSERT_TRUE(Rec.Ok);

  // Racy program w/o instrumentation: replay CAN diverge, but since the
  // races never interleaved in this recording... we only assert that a
  // sync-clean program replays under odd quanta. Build one:
  auto M2 = compile("mutex m;\nint c;\nint tids[2];\n"
                    "void w(int n) { int i; for (i = 0; i < n; i++) { "
                    "lock(m); c = c + 1; unlock(m); } }\n"
                    "int main() { tids[0] = spawn(w, 50); "
                    "tids[1] = spawn(w, 50); join(tids[0]); "
                    "join(tids[1]); output(c); return 0; }");
  MachineOptions R2;
  R2.Mode = ExecMode::Record;
  R2.Seed = 9;
  auto Rec2 = Machine(*M2, R2).run();
  ASSERT_TRUE(Rec2.Ok);
  for (uint64_t Quantum : {500ull, 2000ull, 50000ull}) {
    MachineOptions Rep;
    Rep.Mode = ExecMode::Replay;
    Rep.ReplayLog = &Rec2.Log;
    Rep.QuantumMin = Quantum;
    Rep.QuantumMax = Quantum;
    auto R = Machine(*M2, Rep).run();
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.StateHash, Rec2.StateHash) << "quantum " << Quantum;
  }
}

TEST(MachineEdge, OutputOrderIsGatedInReplay) {
  auto M = compile("int tids[2];\n"
                   "void w(int id) { int i; for (i = 0; i < 5; i++) { "
                   "output(id * 100 + i); } }\n"
                   "int main() { tids[0] = spawn(w, 1); "
                   "tids[1] = spawn(w, 2); join(tids[0]); join(tids[1]); "
                   "return 0; }");
  auto Rec = test::recordRun(*M, 123);
  ASSERT_TRUE(Rec.Ok);
  auto Rep = test::replayRun(*M, Rec.Log);
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  EXPECT_EQ(Rep.Output, Rec.Output) << "interleaved output order pinned";
}
