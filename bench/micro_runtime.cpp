//===- bench/micro_runtime.cpp - google-benchmark micro suite --------------===//
//
// Micro-benchmarks for the substrate primitives: weak-lock manager
// operations, vector clocks, the log codec and compressor, the clique
// cover, and end-to-end interpreter throughput. These are host-time
// benchmarks (bench/paper reports simulated cycles; perfbench measures
// end-to-end host time).
//
//===----------------------------------------------------------------------===//

#include "codegen/CodeGen.h"
#include "race/DynamicDetector.h"
#include "replay/LogCodec.h"
#include "runtime/Machine.h"
#include "runtime/VectorClock.h"
#include "runtime/WeakLock.h"
#include "support/Compressor.h"
#include "support/Graph.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace chimera;

static void BM_WeakLockUncontended(benchmark::State &State) {
  rt::WeakLockManager WL;
  WL.init(1);
  for (auto _ : State) {
    WL.tryAcquire(0, {1, false, 0, 0, 0, 0});
    WL.removeHolder(0, 1);
  }
}
BENCHMARK(BM_WeakLockUncontended);

static void BM_WeakLockRangedDisjoint(benchmark::State &State) {
  rt::WeakLockManager WL;
  WL.init(1);
  // Seven standing holders with disjoint ranges; measure an eighth.
  for (uint32_t T = 0; T != 7; ++T)
    WL.tryAcquire(0, {T, true, T * 100, T * 100 + 99, 0, 1});
  for (auto _ : State) {
    WL.tryAcquire(0, {9, true, 900, 999, 0, 1});
    WL.removeHolder(0, 9);
  }
}
BENCHMARK(BM_WeakLockRangedDisjoint);

static void BM_WeakLockGrantWaiters(benchmark::State &State) {
  rt::WeakLockManager WL;
  WL.init(1);
  for (auto _ : State) {
    State.PauseTiming();
    WL.tryAcquire(0, {0, false, 0, 0, 0, 0});
    for (uint32_t T = 1; T != 9; ++T)
      WL.enqueue(0, {T, true, T * 10, T * 10 + 9, 0, 1});
    WL.removeHolder(0, 0);
    State.ResumeTiming();
    auto Granted = WL.grantWaiters(0, 1);
    benchmark::DoNotOptimize(Granted);
    State.PauseTiming();
    for (uint32_t T = 1; T != 9; ++T)
      WL.removeHolder(0, T);
    State.ResumeTiming();
  }
}
BENCHMARK(BM_WeakLockGrantWaiters);

static void BM_VectorClockJoin(benchmark::State &State) {
  rt::VectorClock A, B;
  for (uint32_t T = 0; T != 16; ++T) {
    A.set(T, T * 7);
    B.set(T, T * 5 + 3);
  }
  for (auto _ : State) {
    rt::VectorClock C = A;
    C.join(B);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_VectorClockJoin);

static void BM_LzCompressLog(benchmark::State &State) {
  // Log-shaped data: repetitive small records.
  std::vector<uint8_t> Data;
  Rng R(7);
  for (int I = 0; I != 64 * 1024; ++I)
    Data.push_back(static_cast<uint8_t>((I & 3) ? I % 11 : R.next() & 7));
  for (auto _ : State) {
    auto Packed = lzCompress(Data);
    benchmark::DoNotOptimize(Packed);
  }
  State.SetBytesProcessed(State.iterations() * Data.size());
}
BENCHMARK(BM_LzCompressLog);

static void BM_GreedyCliques(benchmark::State &State) {
  UndirectedGraph G(64);
  Rng R(5);
  for (int I = 0; I != 400; ++I)
    G.addEdge(static_cast<unsigned>(R.nextBelow(64)),
              static_cast<unsigned>(R.nextBelow(64)));
  for (auto _ : State) {
    auto Cliques = greedyMaximalCliques(G);
    benchmark::DoNotOptimize(Cliques);
  }
}
BENCHMARK(BM_GreedyCliques);

namespace {

std::unique_ptr<ir::Module> compileLoopKernel() {
  auto M = compileMiniCEx("int a[256];\n"
                          "int main() { int i; int s = 0; "
                          "for (i = 0; i < 100000; i++) { "
                          "a[i & 255] = s; s = (s + a[(i + 7) & 255]) "
                          "& 65535; } output(s); return 0; }",
                          "kernel");
  if (!M)
    std::abort();
  return M.take();
}

} // namespace

static void BM_InterpreterThroughput(benchmark::State &State) {
  auto M = compileLoopKernel();
  uint64_t Instructions = 0;
  for (auto _ : State) {
    rt::MachineOptions MO;
    MO.Seed = 1;
    MO.NumCores = 1;
    rt::Machine Machine(*M, MO);
    auto R = Machine.run();
    benchmark::DoNotOptimize(R.StateHash);
    Instructions += R.Stats.Instructions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instructions));
}
BENCHMARK(BM_InterpreterThroughput);

static void BM_RecordModeThroughput(benchmark::State &State) {
  auto M = compileLoopKernel();
  uint64_t Instructions = 0;
  for (auto _ : State) {
    rt::MachineOptions MO;
    MO.Seed = 1;
    MO.NumCores = 1;
    MO.Mode = rt::ExecMode::Record;
    rt::Machine Machine(*M, MO);
    auto R = Machine.run();
    benchmark::DoNotOptimize(R.StateHash);
    Instructions += R.Stats.Instructions;
  }
  State.SetItemsProcessed(static_cast<int64_t>(Instructions));
}
BENCHMARK(BM_RecordModeThroughput);

static void BM_DynamicDetectorOverhead(benchmark::State &State) {
  auto M = compileLoopKernel();
  for (auto _ : State) {
    race::DynamicDetector Detector;
    rt::MachineOptions MO;
    MO.Seed = 1;
    MO.NumCores = 1;
    MO.Observer = &Detector;
    rt::Machine Machine(*M, MO);
    auto R = Machine.run();
    benchmark::DoNotOptimize(R.StateHash);
  }
}
BENCHMARK(BM_DynamicDetectorOverhead);

BENCHMARK_MAIN();
