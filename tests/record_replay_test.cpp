//===- tests/record_replay_test.cpp - Determinism properties ---------------===//

#include "TestUtil.h"
#include "codegen/CodeGen.h"
#include "core/Pipeline.h"
#include "replay/LogCodec.h"
#include "replay/LogReader.h"
#include "replay/LogWriter.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>

using namespace chimera;

namespace {

const char *RacyProgram =
    "int c;\nint hist[4];\nint tids[4];\n"
    // h records *which* counter values this worker observed, so the
    // final state is schedule-sensitive even when weak-locks make the
    // increment itself atomic.
    "void w(int id, int n) { int i; int h = 0; for (i = 0; i < n; i++) { "
    "int t = c; c = t + 1; h = (h * 31 + t) & 1048575; } "
    "hist[id] = h; }\n"
    "int main() { int j; for (j = 0; j < 4; j++) { "
    "tids[j] = spawn(w, j, 800); } "
    "for (j = 0; j < 4; j++) { join(tids[j]); } "
    "output(c); int k; for (k = 0; k < 4; k++) { output(hist[k]); } "
    "return 0; }";

const char *SyncHeavyProgram =
    "int q[32];\nint qh;\nint qt;\nint done;\nint consumed;\n"
    "mutex m;\ncond cv;\nbarrier b(3);\nint tids[3];\n"
    "void producer() { int i; for (i = 0; i < 24; i++) { lock(m); "
    "q[qt & 31] = input() & 255; qt++; cond_signal(cv); unlock(m); } "
    "lock(m); done = 1; cond_broadcast(cv); unlock(m); barrier_wait(b); }\n"
    "void consumer() { int run = 1; while (run) { lock(m); "
    "while (qh == qt && done == 0) { cond_wait(cv, m); } "
    "if (qh < qt) { consumed = consumed + q[qh & 31]; qh++; } "
    "else { run = 0; } unlock(m); } barrier_wait(b); }\n"
    "int main() { tids[0] = spawn(producer); tids[1] = spawn(consumer); "
    "tids[2] = spawn(consumer); int j; "
    "for (j = 0; j < 3; j++) { join(tids[j]); } output(consumed); "
    "return 0; }";

std::unique_ptr<core::ChimeraPipeline> pipelineFor(const char *Source) {
  core::PipelineConfig Config;
  Config.ProfileRuns = 5;
  auto P = core::ChimeraPipeline::create({.Eval = Source, .Config = Config});
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().message());
  return P ? P.take() : nullptr;
}

} // namespace

//===----------------------------------------------------------------------===//
// The core determinism property, across seeds (parameterized).
//===----------------------------------------------------------------------===//

class ReplayDeterminism : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReplayDeterminism, RacyProgramReplaysExactly) {
  auto P = pipelineFor(RacyProgram);
  auto Out = P->recordAndReplay(GetParam());
  ASSERT_TRUE(Out.Record.Ok) << Out.Record.Error;
  ASSERT_TRUE(Out.Replay.Ok) << Out.Replay.Error;
  EXPECT_TRUE(Out.Deterministic);
  EXPECT_EQ(Out.Replay.Output, Out.Record.Output);
}

TEST_P(ReplayDeterminism, SyncHeavyProgramReplaysExactly) {
  auto P = pipelineFor(SyncHeavyProgram);
  auto Out = P->recordAndReplay(GetParam());
  ASSERT_TRUE(Out.Record.Ok) << Out.Record.Error;
  ASSERT_TRUE(Out.Replay.Ok) << Out.Replay.Error;
  EXPECT_TRUE(Out.Deterministic);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayDeterminism,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(ReplayDeterminism, DifferentSeedsProduceDifferentInterleavings) {
  // Sanity: the racy program really is schedule-sensitive — at least two
  // of several seeds must disagree on the final state. This uses the
  // ORIGINAL program: the instrumented one may serialize the racy blocks
  // into a stable rotation (the paper notes in §2.4 that coarse
  // weak-locks can mask fine-grained interleavings).
  auto P = pipelineFor(RacyProgram);
  std::set<uint64_t> Hashes;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    auto R = P->runOriginalNative(Seed);
    ASSERT_TRUE(R.Ok) << R.Error;
    Hashes.insert(R.StateHash);
  }
  EXPECT_GT(Hashes.size(), 1u);
}

TEST(ReplayDeterminism, ReplayDoesNotDependOnMachineSeed) {
  auto P = pipelineFor(RacyProgram);
  auto Rec = P->record(17);
  ASSERT_TRUE(Rec.Ok);
  auto A = test::replayRun(P->instrumentedModule(), Rec.Log, 8,
                           /*Seed=*/0xfeedface);
  auto B = test::replayRun(P->instrumentedModule(), Rec.Log, 8,
                           /*Seed=*/17);
  ASSERT_TRUE(A.Ok && B.Ok) << A.Error << B.Error;
  EXPECT_EQ(A.StateHash, Rec.StateHash);
  EXPECT_EQ(B.StateHash, Rec.StateHash);
}

TEST(ReplayDeterminism, ReplayWorksOnDifferentCoreCount) {
  // The log pins the order; replaying on fewer cores must still land on
  // the identical final state.
  auto P = pipelineFor(RacyProgram);
  auto Rec = P->record(23);
  ASSERT_TRUE(Rec.Ok);
  auto Rep = test::replayRun(P->instrumentedModule(), Rec.Log,
                             /*NumCores=*/2);
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  EXPECT_EQ(Rep.StateHash, Rec.StateHash);
}

//===----------------------------------------------------------------------===//
// Negative: divergence detection
//===----------------------------------------------------------------------===//

TEST(Divergence, UninstrumentedRacyProgramCanDiverge) {
  // Record the ORIGINAL (uninstrumented) racy program: sync order and
  // inputs are logged but the data races are not, so some recording must
  // fail to replay bit-exactly. This is the paper's core motivation.
    auto M = test::compileOrNull(RacyProgram, "racy");
  bool SawDivergence = false;
  for (uint64_t Seed = 1; Seed <= 25 && !SawDivergence; ++Seed) {
    auto Rec = test::recordRun(*M, Seed, 8);
    ASSERT_TRUE(Rec.Ok) << Rec.Error;
    auto Rep = test::replayRun(*M, Rec.Log, 8);
    SawDivergence = !Rep.Ok || Rep.StateHash != Rec.StateHash;
  }
  EXPECT_TRUE(SawDivergence)
      << "every uninstrumented replay happened to match";
}

TEST(Divergence, TruncatedInputLogIsDetected) {
  const char *Src = "int main() { output(input() & 7); "
                    "output(input() & 7); return 0; }";
    auto M = test::compileOrNull(Src, "t");
  ASSERT_NE(M, nullptr);
  auto Rec = test::recordRun(*M, 4);
  ASSERT_TRUE(Rec.Ok);
  rt::ExecutionLog Broken = Rec.Log;
  ASSERT_FALSE(Broken.PerThreadInputs.empty());
  Broken.PerThreadInputs[0].pop_back();
  auto Rep = test::replayRun(*M, Broken, 4);
  EXPECT_FALSE(Rep.Ok);
  EXPECT_NE(Rep.Error.find("input log"), std::string::npos);
}

TEST(Divergence, CorruptedOrderLogIsDetected) {
  const char *Src =
      "mutex m;\nint c;\nint tids[2];\n"
      "void w() { lock(m); c = c + 1; unlock(m); }\n"
      "int main() { tids[0] = spawn(w); tids[1] = spawn(w); "
      "join(tids[0]); join(tids[1]); output(c); return 0; }";
    auto M = test::compileOrNull(Src, "t");
  ASSERT_NE(M, nullptr);
  auto Rec = test::recordRun(*M, 4);
  ASSERT_TRUE(Rec.Ok);
  // Swap two mutex events: the order becomes infeasible.
  rt::ExecutionLog Broken = Rec.Log;
  auto &Seq = Broken.PerObject[0];
  ASSERT_GE(Seq.size(), 4u);
  std::swap(Seq[0], Seq[1]);
  auto Rep = test::replayRun(*M, Broken, 4);
  EXPECT_FALSE(Rep.Ok);
}

//===----------------------------------------------------------------------===//
// Log storage round trip
//
// Hand-driven LogWriter (as the rt::LogEventSink the Machine would
// drive) -> segmented file -> streaming LogReader. Replaces the old
// whole-buffer encode/decode round trip, which is gone.
//===----------------------------------------------------------------------===//

namespace {

/// Writes \p Log event-by-event through a LogWriter and reads the file
/// back through LogReader::recover. Expects a complete, undamaged
/// stream.
rt::ExecutionLog roundTripThroughStorage(const rt::ExecutionLog &Log,
                                         const std::string &Name) {
  std::string Path = ::testing::TempDir() + "chimera_" + Name + ".clg";
  {
    replay::LogWriter::Options WO;
    WO.SegmentBytes = 512;
    replay::LogWriter W(Path, WO);
    W.onStart(Log.NumSyncObjects, Log.NumWeakLocks);
    for (size_t Obj = 0; Obj != Log.PerObject.size(); ++Obj)
      for (const rt::OrderedEvent &E : Log.PerObject[Obj])
        W.onOrdered(static_cast<uint32_t>(Obj), E.Tid, E.Op);
    for (size_t Tid = 0; Tid != Log.PerThreadInputs.size(); ++Tid)
      for (const rt::InputEvent &E : Log.PerThreadInputs[Tid])
        W.onInput(static_cast<uint32_t>(Tid), E.Kind, E.Value);
    for (const rt::RevocationEvent &R : Log.Revocations)
      W.onRevocation(R);
    W.onEnd(Log.NumThreads, Log.totalOrderedEvents(),
            Log.totalInputEvents());
    support::Error E = W.finish();
    EXPECT_FALSE(bool(E)) << E.message();
  }
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::vector<uint8_t> Bytes{std::istreambuf_iterator<char>(In),
                             std::istreambuf_iterator<char>()};
  In.close();
  std::remove(Path.c_str());

  auto Reader = replay::LogReader::open(std::move(Bytes),
                                        replay::LogReader::Options());
  EXPECT_TRUE(Reader.hasValue()) << (Reader ? "" : Reader.error().message());
  if (!Reader)
    return rt::ExecutionLog();
  replay::LogReader::RecoveredLog RL = Reader->recover();
  EXPECT_TRUE(RL.Complete) << RL.Failure.message();
  return std::move(RL.Log);
}

} // namespace

TEST(LogStorage, RoundTripsRealLog) {
  auto P = pipelineFor(SyncHeavyProgram);
  auto Rec = P->record(9);
  ASSERT_TRUE(Rec.Ok);
  rt::ExecutionLog Decoded = roundTripThroughStorage(Rec.Log, "codec_rt");

  EXPECT_EQ(Decoded.NumSyncObjects, Rec.Log.NumSyncObjects);
  EXPECT_EQ(Decoded.NumWeakLocks, Rec.Log.NumWeakLocks);
  EXPECT_EQ(Decoded.NumThreads, Rec.Log.NumThreads);
  ASSERT_EQ(Decoded.PerObject.size(), Rec.Log.PerObject.size());
  for (size_t I = 0; I != Decoded.PerObject.size(); ++I)
    EXPECT_EQ(Decoded.PerObject[I], Rec.Log.PerObject[I]);
  ASSERT_EQ(Decoded.PerThreadInputs.size(),
            Rec.Log.PerThreadInputs.size());
  for (size_t T = 0; T != Decoded.PerThreadInputs.size(); ++T) {
    ASSERT_EQ(Decoded.PerThreadInputs[T].size(),
              Rec.Log.PerThreadInputs[T].size());
    for (size_t I = 0; I != Decoded.PerThreadInputs[T].size(); ++I) {
      EXPECT_EQ(Decoded.PerThreadInputs[T][I].Kind,
                Rec.Log.PerThreadInputs[T][I].Kind);
      EXPECT_EQ(Decoded.PerThreadInputs[T][I].Value,
                Rec.Log.PerThreadInputs[T][I].Value);
    }
  }
}

TEST(LogStorage, RoundTrippedLogReplays) {
  auto P = pipelineFor(RacyProgram);
  auto Rec = P->record(31);
  ASSERT_TRUE(Rec.Ok);
  rt::ExecutionLog Decoded = roundTripThroughStorage(Rec.Log, "codec_replay");
  auto Rep = test::replayRun(P->instrumentedModule(), Decoded, 8);
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  EXPECT_EQ(Rep.StateHash, Rec.StateHash);
}

TEST(LogCodec, SizesAreMeasuredAndCompressed) {
  auto P = pipelineFor(SyncHeavyProgram);
  auto Rec = P->record(2);
  ASSERT_TRUE(Rec.Ok);
  auto Sizes = replay::measureLog(Rec.Log);
  EXPECT_GT(Sizes.InputRaw, 0u);
  EXPECT_GT(Sizes.OrderRaw, 0u);
  EXPECT_GT(Sizes.OrderCompressed, 0u);
  EXPECT_LE(Sizes.OrderCompressed, Sizes.OrderRaw + 16);
}

TEST(LogStorage, RevocationsSurviveRoundTrip) {
  rt::ExecutionLog Log;
  Log.NumSyncObjects = 1;
  Log.NumWeakLocks = 2;
  Log.NumThreads = 3;
  Log.PerObject.resize(Log.numOrderedObjects());
  Log.PerObject[0].push_back({1, rt::OrderedOp::MutexLock});
  Log.Revocations.push_back({2, 1, 777});
  Log.PerThreadInputs.resize(3);
  Log.PerThreadInputs[1].push_back({rt::InputKind::NetRecv, 0xabcd});

  rt::ExecutionLog D = roundTripThroughStorage(Log, "codec_revoke");
  ASSERT_EQ(D.Revocations.size(), 1u);
  EXPECT_EQ(D.Revocations[0].Tid, 2u);
  EXPECT_EQ(D.Revocations[0].LockId, 1u);
  EXPECT_EQ(D.Revocations[0].Instret, 777u);
}
