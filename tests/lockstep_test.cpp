//===- tests/lockstep_test.cpp - The k-core interpreter loop ---------------===//
//
// While several cores are busy, the interpreter retires pure
// instructions across all of them in one loop, one at a time on the core
// with the lowest (clock, index) key. These tests run small programs
// with 2, 3, 4 and 8 busy worker threads on 8 cores, under a cost model
// whose loads, stores and calls cost more than ALU operations, so the
// lowest key moves between cores unevenly. Every dispatch batch size must
// give the same run as batch 1, which dispatches one instruction per
// scheduling decision: state hash, makespan, quanta, output, error text,
// log bytes, and the digest of every observer callback.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "replay/LogCodec.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

using namespace chimera;

namespace {

/// Worker w runs ITERS + 23 w iterations over one shared array (their
/// racy loads and stores make the final state depend on the exact
/// interleaving), calling a helper in each. With FAULT = 1, worker 1
/// stores out of bounds in iteration 25 while the others run; with
/// SLEEPY = 1, a sleeper thread reads input, and so sleeps and wakes,
/// while the workers run. Main parks in join, so WORKERS cores are busy
/// and the rest of the 8 are idle.
const char *const ProgramTemplate = R"(
int data[512];
int sums[8];
int tids[9];
int workers = WORKERS;
int iters = ITERS;
int fault = FAULT;
int sleepy = SLEEPY;

int mix(int x, int y) {
  return (x * 31 + y) & 1023;
}

void worker(int id) {
  int i;
  int s = id;
  int n = iters + id * 23;
  for (i = 0; i < n; i++) {
    int j = (i * 7 + id * 5) & 511;
    s = mix(s, data[j]);
    data[j] = s + id;
    if (fault == 1 && id == 1 && i == 25) {
      data[j + 100000000] = s;
    }
  }
  sums[id] = s;
}

void sleeper() {
  int i;
  for (i = 0; i < 6; i++) {
    data[i] = data[i] + (input() & 255);
  }
}

int main() {
  int w;
  for (w = 0; w < workers; w++) {
    tids[w] = spawn(worker, w);
  }
  if (sleepy == 1) {
    tids[8] = spawn(sleeper);
  }
  for (w = 0; w < workers; w++) {
    join(tids[w]);
  }
  if (sleepy == 1) {
    join(tids[8]);
  }
  int t = 0;
  for (w = 0; w < workers; w++) {
    t = t + sums[w];
  }
  output(t);
  return 0;
}
)";

struct Case {
  unsigned Workers;
  unsigned Iters = 60;
  bool Fault = false;
  bool Sleeper = false;
  uint64_t MaxInstructions = 2'000'000'000;
};

std::string sourceOf(const Case &C) {
  std::string Src = ProgramTemplate;
  auto Set = [&Src](const std::string &Name, unsigned Value) {
    size_t At = Src.find(Name);
    ASSERT_NE(At, std::string::npos) << Name;
    Src.replace(At, Name.size(), std::to_string(Value));
  };
  Set("WORKERS", C.Workers);
  Set("ITERS", C.Iters);
  Set("FAULT", C.Fault);
  Set("SLEEPY", C.Sleeper);
  return Src;
}

/// Loads, stores and calls cost more than ALU operations and branches.
rt::CostModel unevenCosts() {
  rt::CostModel Costs = rt::CostModel::defaultModel();
  Costs.Alu = 1;
  Costs.Branch = 1;
  Costs.Load = 3;
  Costs.Store = 5;
  Costs.Call = 7;
  Costs.Ret = 2;
  return Costs;
}

/// What one run must reproduce at every batch size.
struct Run {
  bool Ok = false;
  std::string Error;
  uint64_t StateHash = 0;
  uint64_t Makespan = 0;
  uint64_t Quanta = 0;
  uint64_t Instructions = 0;
  std::vector<uint64_t> Output;
  test::DigestObserver::Stream Events;
  std::vector<uint8_t> Log;
  bool operator==(const Run &) const = default;
};

void PrintTo(const Run &R, std::ostream *OS) {
  *OS << "{ok " << R.Ok << ", error '" << R.Error << "', hash " << std::hex
      << R.StateHash << std::dec << ", makespan " << R.Makespan
      << ", quanta " << R.Quanta << ", insts " << R.Instructions
      << ", events ";
  test::PrintTo(R.Events, OS);
  *OS << ", log " << R.Log.size() << " B}";
}

struct Modes {
  Run Observed, Native, Record, Replay;
  uint64_t LockstepChunks = 0; ///< Native dispatch chunks.
};

/// One run of \p M; a record run leaves its log in \p Log, a replay run
/// replays it. The programs race, so a replay need not reproduce the
/// recorded state, but it must be the same replay at every batch size.
Run runOnce(const ir::Module &M, const Case &C, unsigned Batch,
            rt::ExecMode Mode, bool Observe, rt::ExecutionLog *Log = nullptr,
            uint64_t *Chunks = nullptr) {
  test::DigestObserver Obs;
  obs::Registry Metrics;
  rt::MachineOptions MO;
  MO.Mode = Mode;
  MO.NumCores = 8;
  MO.Seed = 7;
  MO.Costs = unevenCosts();
  MO.DispatchBatch = Batch;
  MO.MaxInstructions = C.MaxInstructions;
  MO.Observer = Observe ? &Obs : nullptr;
  if (Mode == rt::ExecMode::Replay)
    MO.ReplayLog = Log;
  MO.Metrics = &Metrics;
  rt::ExecutionResult R = rt::Machine(M, MO).run();

  const char *Name = Mode == rt::ExecMode::Native   ? "native"
                     : Mode == rt::ExecMode::Record ? "record"
                                                    : "replay";
  const obs::Snapshot Snap = Metrics.snapshot();
  const std::string Sched = std::string("runtime.") + Name + ".sched.";
  if (Chunks)
    *Chunks = static_cast<uint64_t>(Snap.value(Sched + "dispatch_chunks"));
  Run Out;
  Out.Ok = R.Ok;
  Out.Error = R.Error;
  Out.StateHash = R.StateHash;
  Out.Makespan = R.Stats.MakespanCycles;
  Out.Quanta = static_cast<uint64_t>(Snap.value(Sched + "quanta"));
  Out.Instructions = R.Stats.Instructions;
  Out.Output = R.Output;
  if (Observe)
    Out.Events = Obs.stream();
  if (Mode == rt::ExecMode::Record) {
    Out.Log = replay::encodeLog(R.Log);
    *Log = std::move(R.Log);
  }
  return Out;
}

Modes runAt(const ir::Module &M, const Case &C, unsigned Batch) {
  Modes R;
  R.Observed = runOnce(M, C, Batch, rt::ExecMode::Native, true);
  R.Native = runOnce(M, C, Batch, rt::ExecMode::Native, false, nullptr,
                     &R.LockstepChunks);
  rt::ExecutionLog Log;
  R.Record = runOnce(M, C, Batch, rt::ExecMode::Record, true, &Log);
  if (R.Record.Ok)
    R.Replay = runOnce(M, C, Batch, rt::ExecMode::Replay, true, &Log);
  return R;
}

/// Runs \p C at batch 1, 16, 64 and 256 and requires identical runs;
/// returns the batch-1 runs.
Modes expectBatchInvariant(const Case &C) {
  auto M = test::compileOrNull(sourceOf(C), "lockstep");
  if (!M)
    return {};
  const Modes Base = runAt(*M, C, 1);
  // Observing a run changes nothing but the callbacks.
  Run Unobserved = Base.Observed;
  Unobserved.Events = {};
  EXPECT_EQ(Unobserved, Base.Native) << C.Workers << " workers";
  for (unsigned Batch : {16u, 64u, 256u}) {
    const Modes At = runAt(*M, C, Batch);
    EXPECT_EQ(At.Observed, Base.Observed)
        << C.Workers << " workers, observed native at batch " << Batch;
    EXPECT_EQ(At.Native, Base.Native)
        << C.Workers << " workers, native at batch " << Batch;
    EXPECT_EQ(At.Record, Base.Record)
        << C.Workers << " workers, record at batch " << Batch;
    EXPECT_EQ(At.Replay, Base.Replay)
        << C.Workers << " workers, replay at batch " << Batch;
  }
  return Base;
}

} // namespace

// Workers of different lengths finish one by one while the others run,
// with the idle cores parked behind them.
TEST(Lockstep, BusyCoresFinishingMidLoop) {
  for (unsigned Workers : {2u, 3u, 4u, 8u}) {
    Modes R = expectBatchInvariant({.Workers = Workers});
    EXPECT_TRUE(R.Native.Ok) << R.Native.Error;
    EXPECT_TRUE(R.Replay.Ok) << R.Replay.Error;
  }
}

// A sleeper wakes while the workers are inside one loop.
TEST(Lockstep, SleeperWakesMidLoop) {
  for (unsigned Workers : {2u, 3u, 4u, 8u}) {
    Modes R = expectBatchInvariant({.Workers = Workers, .Sleeper = true});
    EXPECT_TRUE(R.Native.Ok) << R.Native.Error;
    EXPECT_TRUE(R.Replay.Ok) << R.Replay.Error;
  }
}

// Worker 1 faults while the other workers are busy; every batch size
// stops at the same instruction with the same error.
TEST(Lockstep, FaultMidLoop) {
  for (unsigned Workers : {2u, 3u, 4u, 8u}) {
    Modes R = expectBatchInvariant({.Workers = Workers, .Fault = true});
    EXPECT_FALSE(R.Native.Ok);
    EXPECT_EQ(R.Native.Error, "invalid store address in worker (line 23)")
        << Workers;
  }
}

// The instruction budget runs out while two or more cores are busy.
TEST(Lockstep, InstructionBudgetWithSeveralBusyCores) {
  for (unsigned Workers : {2u, 3u, 4u, 8u}) {
    Modes R = expectBatchInvariant(
        {.Workers = Workers, .Iters = 400, .MaxInstructions = 3000});
    EXPECT_FALSE(R.Native.Ok);
    EXPECT_EQ(R.Native.Error, "instruction budget exceeded (runaway program?)")
        << Workers;
    EXPECT_EQ(R.Native.Instructions, 3001u) << Workers;
  }
}

// The loop is what runs the busy cores: at a large batch, one dispatch
// chunk retires many instructions across them.
TEST(Lockstep, OneChunkRetiresAcrossBusyCores) {
  auto M = test::compileOrNull(sourceOf({.Workers = 4}), "lockstep");
  ASSERT_NE(M, nullptr);
  Modes At256 = runAt(*M, {.Workers = 4}, 256);
  EXPECT_LT(At256.LockstepChunks * 20, At256.Native.Instructions)
      << At256.LockstepChunks << " chunks";
}
