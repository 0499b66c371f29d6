//===- tests/determinism_matrix_test.cpp - Batching invariance -------------===//
//
// The dispatch-batch size (MachineOptions::DispatchBatch) is a pure
// host-speed knob: for every value, native, record, and replay runs must
// produce bit-identical state hashes, outputs, encoded logs, makespans,
// quanta, and weak/sync/log counts. This matrix pins that contract on
// all nine workloads, whose sharing structures differ (condvar work
// queues, barrier-phased loop-locks, I/O sleepers).
//
// The golden tables below pin the schedule itself: every host-side
// scheduler optimization must leave these simulated results unchanged.
//
//===----------------------------------------------------------------------===//

#include "replay/LogCodec.h"
#include "support/Hash.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>

using namespace chimera;
using namespace chimera::workloads;

namespace {

/// What one run must reproduce at every batch size: its state and the
/// timing and work of its schedule. StateHash alone covers memory and
/// output, so a shifted schedule that computes the same values would
/// slip past it.
struct ModeCounts {
  uint64_t StateHash = 0;
  uint64_t MakespanCycles = 0;
  uint64_t Quanta = 0;
  uint64_t Instructions = 0;
  uint64_t WeakAcquires = 0;
  uint64_t SyncOps = 0;
  uint64_t LogEvents = 0;
  uint64_t Revocations = 0;
  uint64_t WeakPolls = 0;
  bool operator==(const ModeCounts &) const = default;
};

void PrintTo(const ModeCounts &C, std::ostream *OS) {
  *OS << "{hash " << std::hex << C.StateHash << std::dec << ", makespan "
      << C.MakespanCycles << ", quanta " << C.Quanta << ", insts "
      << C.Instructions << ", weak " << C.WeakAcquires << ", sync "
      << C.SyncOps << ", log " << C.LogEvents << ", revocations "
      << C.Revocations << ", weak polls " << C.WeakPolls << "}";
}

struct ModeResults {
  ModeCounts Native, Record, Replay;
  std::vector<uint64_t> Output;
  std::vector<uint8_t> EncodedLog;
};

/// \p R's counts; the registry-only ones (quanta, weak polls) are read
/// from the difference of \p P's metrics across the run.
ModeCounts countsOf(const rt::ExecutionResult &R, const char *Mode,
                    const obs::Snapshot &Before,
                    const core::ChimeraPipeline &P) {
  EXPECT_TRUE(R.Ok) << Mode << ": " << R.Error;
  auto After = P.metrics();
  EXPECT_TRUE(static_cast<bool>(After)) << After.error().message();
  obs::Snapshot Diff = After ? After->diff(Before) : obs::Snapshot();
  std::string Prefix = std::string("runtime.") + Mode + ".";
  ModeCounts C;
  C.StateHash = R.StateHash;
  C.MakespanCycles = R.Stats.MakespanCycles;
  C.Quanta = static_cast<uint64_t>(Diff.value(Prefix + "sched.quanta"));
  C.Instructions = R.Stats.Instructions;
  C.WeakAcquires = R.Stats.weakAcquiresTotal();
  C.SyncOps = R.Stats.SyncOps;
  C.LogEvents = R.Stats.LogEvents;
  C.Revocations = R.Stats.Revocations;
  C.WeakPolls = static_cast<uint64_t>(Diff.value(Prefix + "weak.poll"));
  return C;
}

ModeResults runAtBatch(WorkloadKind Kind, unsigned Batch, uint64_t Seed) {
  core::PipelineConfig Cfg;
  Cfg.DispatchBatch = Batch;
  Cfg.Observability = obs::ObsMode::Sampled; // Exact counters.
  auto Built = buildPipelineEx(Kind, 4, Cfg);
  EXPECT_TRUE(static_cast<bool>(Built)) << Built.error().message();
  if (!Built)
    return {};
  const core::ChimeraPipeline &P = **Built;
  auto Snap = [&P] { return P.metrics().take(); };

  ModeResults R;
  obs::Snapshot Before = Snap();
  rt::ExecutionResult Nat = (*Built)->runOriginalNative(Seed);
  R.Native = countsOf(Nat, "native", Before, P);
  R.Output = Nat.Output;

  Before = Snap();
  rt::ExecutionResult Rec = (*Built)->record(Seed);
  R.Record = countsOf(Rec, "record", Before, P);
  R.EncodedLog = replay::encodeLog(Rec.Log);

  Before = Snap();
  rt::ExecutionResult Rep = (*Built)->replay(Rec.Log);
  R.Replay = countsOf(Rep, "replay", Before, P);
  EXPECT_EQ(Rec.StateHash, Rep.StateHash) << "record/replay divergence";
  return R;
}

void expectMatrixInvariant(WorkloadKind Kind, uint64_t Seed) {
  const char *Name = workloadInfo(Kind).Name;
  ModeResults Base = runAtBatch(Kind, 1, Seed);
  for (unsigned Batch : {16u, 256u}) {
    ModeResults At = runAtBatch(Kind, Batch, Seed);
    EXPECT_EQ(Base.Native, At.Native)
        << Name << " native run drifts at batch " << Batch;
    EXPECT_EQ(Base.Record, At.Record)
        << Name << " record run drifts at batch " << Batch;
    EXPECT_EQ(Base.Replay, At.Replay)
        << Name << " replay run drifts at batch " << Batch;
    EXPECT_EQ(Base.Output, At.Output)
        << Name << " output drifts at batch " << Batch;
    EXPECT_EQ(Base.EncodedLog, At.EncodedLog)
        << Name << " encoded log is not byte-identical at batch " << Batch;
  }
}

} // namespace

TEST(DeterminismMatrix, AgetBatchInvariant) {
  expectMatrixInvariant(WorkloadKind::Aget, 2012);
}

TEST(DeterminismMatrix, PfscanBatchInvariant) {
  expectMatrixInvariant(WorkloadKind::Pfscan, 2012);
}

TEST(DeterminismMatrix, Pbzip2BatchInvariant) {
  expectMatrixInvariant(WorkloadKind::Pbzip2, 2012);
}

TEST(DeterminismMatrix, KnotBatchInvariant) {
  expectMatrixInvariant(WorkloadKind::Knot, 2012);
}

TEST(DeterminismMatrix, ApacheBatchInvariant) {
  expectMatrixInvariant(WorkloadKind::Apache, 2012);
}

TEST(DeterminismMatrix, OceanBatchInvariant) {
  expectMatrixInvariant(WorkloadKind::Ocean, 2012);
}

TEST(DeterminismMatrix, WaterBatchInvariant) {
  expectMatrixInvariant(WorkloadKind::Water, 2012);
}

TEST(DeterminismMatrix, FftBatchInvariant) {
  expectMatrixInvariant(WorkloadKind::Fft, 2012);
}

TEST(DeterminismMatrix, RadixBatchInvariant) {
  expectMatrixInvariant(WorkloadKind::Radix, 2012);
}

TEST(DeterminismMatrix, RadixBatchInvariantSecondSeed) {
  expectMatrixInvariant(WorkloadKind::Radix, 1);
}

namespace {

/// The file recordStreamed(seed 2012) writes for \p Kind at 4 workers.
std::vector<uint8_t> streamedFile(WorkloadKind Kind, unsigned Cores,
                                  unsigned Batch, uint64_t CheckpointEvery) {
  core::PipelineConfig Cfg;
  Cfg.DispatchBatch = Batch;
  Cfg.CheckpointEvery = CheckpointEvery;
  core::PipelineRequest Req = pipelineRequest(Kind, 4, Cfg);
  Req.Config.NumCores = Cores; // pipelineRequest pins 8 cores.
  auto P = core::ChimeraPipeline::create(Req);
  EXPECT_TRUE(static_cast<bool>(P)) << P.error().message();
  if (!P)
    return {};
  std::string Path = ::testing::TempDir() + "stream_" +
                     std::string(workloadInfo(Kind).Name) + "_c" +
                     std::to_string(Cores) + "_b" + std::to_string(Batch) +
                     "_k" + std::to_string(CheckpointEvery) + ".clg";
  auto Rec = (*P)->recordStreamed(Path, 2012);
  EXPECT_TRUE(static_cast<bool>(Rec)) << Rec.error().message();
  std::ifstream In(Path, std::ios::binary);
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  In.close();
  std::remove(Path.c_str());
  return Bytes;
}

} // namespace

// A checkpoint is captured right after the dispatch attempt that logs
// its event, so with few cores (where no idle core ends a batch early)
// the streamed file must still not depend on the batch size.
TEST(DeterminismMatrix, StreamedCheckpointsAreBatchInvariant) {
  for (auto [Kind, Cores] : {std::pair{WorkloadKind::Apache, 1u},
                             std::pair{WorkloadKind::Pbzip2, 2u}}) {
    std::vector<uint8_t> One = streamedFile(Kind, Cores, 1, 64);
    ASSERT_FALSE(One.empty());
    EXPECT_TRUE(One == streamedFile(Kind, Cores, 64, 64))
        << workloadInfo(Kind).Name << " at " << Cores
        << " core(s): streamed file differs between batch 1 and 64";
  }
}

//===----------------------------------------------------------------------===//
// Golden schedule: the nine workloads at 4 workers (8 cores, seed 2012)
//===----------------------------------------------------------------------===//

namespace {

struct ModeGolden {
  uint64_t StateHash;
  uint64_t MakespanCycles;
  uint64_t LogEvents;
};

struct ScheduleGolden {
  WorkloadKind Kind;
  ModeGolden Native, Record, Replay;
  uint64_t EncodedLogDigest;
};

const ScheduleGolden ScheduleGoldens[] = {
    {WorkloadKind::Aget,
     {0x233a4cbc2c988539ull, 46436993ull, 0ull},
     {0x233a4cbc2c988539ull, 47221159ull, 39994ull},
     {0x233a4cbc2c988539ull, 685613ull, 0ull},
     0xbb71383b1eb50185ull},
    {WorkloadKind::Pfscan,
     {0xb56bca515db25ac5ull, 1135469ull, 0ull},
     {0x0e6de2eb7f3a6086ull, 1352525ull, 9411ull},
     {0x0e6de2eb7f3a6086ull, 450505ull, 0ull},
     0xc3d4f4fd8976b9f5ull},
    {WorkloadKind::Pbzip2,
     {0x323e4725c3d18dd4ull, 76839461ull, 0ull},
     {0x95d954e8016b6ac4ull, 79891218ull, 41449ull},
     {0x95d954e8016b6ac4ull, 4442314ull, 0ull},
     0x54f4b8b19cb7fca8ull},
    {WorkloadKind::Knot,
     {0x7ba8ed86733934f5ull, 9723699ull, 0ull},
     {0xb3fafba469a00917ull, 9761686ull, 7387ull},
     {0xb3fafba469a00917ull, 402820ull, 0ull},
     0x303c9eac6930cc0cull},
    {WorkloadKind::Apache,
     {0x23dfc17602c3f009ull, 7351678ull, 0ull},
     {0xabb1b61c6b8db949ull, 7402902ull, 49504ull},
     {0xabb1b61c6b8db949ull, 2389154ull, 0ull},
     0x17a61dfb80552bccull},
    {WorkloadKind::Ocean,
     {0x3e66eb8543f2c38aull, 275041ull, 0ull},
     {0x3e66eb8543f2c38aull, 868723ull, 634ull},
     {0x3e66eb8543f2c38aull, 853777ull, 0ull},
     0xd80a7b82a5b8b920ull},
    {WorkloadKind::Water,
     {0x774e5eb0e1e56892ull, 295859ull, 0ull},
     {0x774e5eb0e1e56892ull, 698071ull, 7148ull},
     {0x774e5eb0e1e56892ull, 506641ull, 0ull},
     0x8ee36c1275ba7376ull},
    {WorkloadKind::Fft,
     {0xf2b0550f4f9fda45ull, 119683ull, 0ull},
     {0xf2b0550f4f9fda45ull, 160778ull, 318ull},
     {0xf2b0550f4f9fda45ull, 154365ull, 0ull},
     0xf3b3a0df8a1c798aull},
    {WorkloadKind::Radix,
     {0xacdf515346723786ull, 2530792ull, 0ull},
     {0x0e02e944a9db736eull, 2754907ull, 2013ull},
     {0x0e02e944a9db736eull, 829441ull, 0ull},
     0x15d872348145a006ull},
};

struct StreamedGolden {
  WorkloadKind Kind;
  uint64_t FileDigest;
};

/// Streamed files at the repo benchmark's io-stream settings (8 cores,
/// a checkpoint every 1024 log events).
const StreamedGolden StreamedGoldens[] = {
    {WorkloadKind::Aget, 0x9507c66070e536c2ull},
    {WorkloadKind::Pfscan, 0x6f285699e65fa42aull},
    {WorkloadKind::Pbzip2, 0x39bce91f6c6d294aull},
    {WorkloadKind::Knot, 0xb18acb1c100bec84ull},
    {WorkloadKind::Apache, 0x324e3db352f24127ull},
};

uint64_t digestBytes(const std::vector<uint8_t> &Bytes) {
  Hasher H;
  H.addBytes(Bytes.data(), Bytes.size());
  return H.digest();
}

void expectMode(const char *Workload, const char *Mode,
                const rt::ExecutionResult &R, const ModeGolden &G) {
  ASSERT_TRUE(R.Ok) << Workload << " " << Mode << ": " << R.Error;
  EXPECT_EQ(R.StateHash, G.StateHash) << Workload << " " << Mode;
  EXPECT_EQ(R.Stats.MakespanCycles, G.MakespanCycles) << Workload << " " << Mode;
  EXPECT_EQ(R.Stats.LogEvents, G.LogEvents) << Workload << " " << Mode;
}

} // namespace

TEST(DeterminismMatrix, NineWorkloadsMatchGoldenSchedule) {
  for (const ScheduleGolden &G : ScheduleGoldens) {
    const char *Name = workloadInfo(G.Kind).Name;
    auto P = buildPipelineEx(G.Kind, 4);
    ASSERT_TRUE(static_cast<bool>(P)) << P.error().message();
    expectMode(Name, "native", (*P)->runOriginalNative(2012), G.Native);
    rt::ExecutionResult Rec = (*P)->record(2012);
    expectMode(Name, "record", Rec, G.Record);
    EXPECT_EQ(digestBytes(replay::encodeLog(Rec.Log)), G.EncodedLogDigest)
        << Name << " encoded log";
    expectMode(Name, "replay", (*P)->replay(Rec.Log), G.Replay);
  }
}

TEST(DeterminismMatrix, StreamedFilesMatchGolden) {
  for (const StreamedGolden &G : StreamedGoldens)
    EXPECT_EQ(digestBytes(streamedFile(G.Kind, 8, 64, 1024)), G.FileDigest)
        << workloadInfo(G.Kind).Name << " streamed file";
}
