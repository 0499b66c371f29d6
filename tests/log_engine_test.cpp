//===- tests/log_engine_test.cpp - Segmented log storage engine ------------===//
//
// The `robust` matrix for the crash-safe log engine: round trips through
// the segmented on-disk format, async-vs-sync compression byte equality,
// checkpointed resume against cold replay, and exhaustive fault
// injection (bit-flips at every byte, truncation at every length,
// dropped and duplicated segments, corrupt compressed streams). Every
// fault must either recover or surface a typed error naming the segment
// and offset — never crash, never silently diverge.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "core/Pipeline.h"
#include "replay/Checkpoint.h"
#include "replay/LogCodec.h"
#include "replay/LogFormat.h"
#include "replay/LogReader.h"
#include "support/Compressor.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

using namespace chimera;

namespace {

// Small enough that per-byte fault loops stay cheap: two threads, a few
// lock-protected input reads, no checkpoints unless asked.
const char *SmallProgram =
    "int tids[2];\nmutex m;\nint c;\n"
    "void w(int n) { int i; for (i = 0; i < n; i++) { lock(m); "
    "c = c + (input() & 15); unlock(m); } }\n"
    "int main() { tids[0] = spawn(w, 6); tids[1] = spawn(w, 6); "
    "join(tids[0]); join(tids[1]); output(c); return 0; }";

// Enough weak-lock traffic for many segments and several checkpoints.
const char *BusyProgram =
    "int c;\nint hist[4];\nint tids[4];\n"
    "void w(int id, int n) { int i; int h = 0; for (i = 0; i < n; i++) { "
    "int t = c; c = t + 1; h = (h * 31 + t) & 1048575; } "
    "hist[id] = h; }\n"
    "int main() { int j; for (j = 0; j < 4; j++) { "
    "tids[j] = spawn(w, j, 200); } "
    "for (j = 0; j < 4; j++) { join(tids[j]); } "
    "output(c); int k; for (k = 0; k < 4; k++) { output(hist[k]); } "
    "return 0; }";

std::unique_ptr<core::ChimeraPipeline>
pipelineFor(const char *Source, unsigned Jobs, uint64_t SegmentBytes,
            uint64_t CheckpointEvery) {
  core::PipelineConfig Config;
  Config.ProfileRuns = 5;
  Config.AnalysisJobs = Jobs;
  Config.SegmentBytes = SegmentBytes;
  Config.CheckpointEvery = CheckpointEvery;
  auto P = core::ChimeraPipeline::create({.Eval = Source, .Config = Config});
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().message());
  return P ? P.take() : nullptr;
}

std::string tmpPath(const std::string &Name) {
  return ::testing::TempDir() + "chimera_" + Name + ".clg";
}

std::vector<uint8_t> readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

/// Records \p Source through the streaming engine and returns the file
/// bytes via \p Bytes; the in-memory result via the return value.
rt::ExecutionResult recordTo(core::ChimeraPipeline &P, const std::string &Path,
                             uint64_t Seed, std::vector<uint8_t> &Bytes) {
  auto R = P.recordStreamed(Path, Seed);
  EXPECT_TRUE(R.hasValue()) << (R ? "" : R.error().message());
  if (!R)
    return rt::ExecutionResult();
  Bytes = readFileBytes(Path);
  std::remove(Path.c_str());
  return R.take();
}

void expectLogsEqual(const rt::ExecutionLog &A, const rt::ExecutionLog &B) {
  EXPECT_EQ(A.NumSyncObjects, B.NumSyncObjects);
  EXPECT_EQ(A.NumWeakLocks, B.NumWeakLocks);
  EXPECT_EQ(A.NumThreads, B.NumThreads);
  ASSERT_EQ(A.PerObject.size(), B.PerObject.size());
  for (size_t Obj = 0; Obj != A.PerObject.size(); ++Obj)
    EXPECT_EQ(A.PerObject[Obj], B.PerObject[Obj]) << "object " << Obj;
  ASSERT_EQ(A.PerThreadInputs.size(), B.PerThreadInputs.size());
  for (size_t Tid = 0; Tid != A.PerThreadInputs.size(); ++Tid) {
    ASSERT_EQ(A.PerThreadInputs[Tid].size(), B.PerThreadInputs[Tid].size())
        << "thread " << Tid;
    for (size_t I = 0; I != A.PerThreadInputs[Tid].size(); ++I) {
      EXPECT_EQ(A.PerThreadInputs[Tid][I].Kind, B.PerThreadInputs[Tid][I].Kind);
      EXPECT_EQ(A.PerThreadInputs[Tid][I].Value,
                B.PerThreadInputs[Tid][I].Value);
    }
  }
  ASSERT_EQ(A.Revocations.size(), B.Revocations.size());
  for (size_t I = 0; I != A.Revocations.size(); ++I) {
    EXPECT_EQ(A.Revocations[I].Tid, B.Revocations[I].Tid);
    EXPECT_EQ(A.Revocations[I].LockId, B.Revocations[I].LockId);
    EXPECT_EQ(A.Revocations[I].Instret, B.Revocations[I].Instret);
  }
}

replay::LogReader::RecoveredLog recoverBytes(std::vector<uint8_t> Bytes) {
  auto Reader = replay::LogReader::open(std::move(Bytes),
                                        replay::LogReader::Options());
  EXPECT_TRUE(Reader.hasValue()) << (Reader ? "" : Reader.error().message());
  if (!Reader)
    return replay::LogReader::RecoveredLog();
  return Reader->recover();
}

/// (offset, length) of every segment in \p Bytes, by walking the
/// headers' StoredSize fields. The walk ends at the CIDX footer when
/// the file carries one (checkpointed logs, format 1.1).
std::vector<std::pair<size_t, size_t>>
segmentExtents(const std::vector<uint8_t> &Bytes) {
  size_t DataEnd = Bytes.size();
  {
    std::vector<replay::CidxEntry> Entries;
    size_t FooterStart = 0;
    if (replay::readCidxFooter(Bytes, Bytes.size(), Entries, FooterStart))
      DataEnd = FooterStart;
  }
  std::vector<std::pair<size_t, size_t>> Out;
  size_t Off = replay::FileHeaderBytes;
  while (Off + replay::SegmentHeaderBytes <= DataEnd) {
    uint32_t Stored = replay::readLe32(Bytes.data() + Off + 16);
    size_t Len = replay::SegmentHeaderBytes + Stored;
    Out.emplace_back(Off, Len);
    Off += Len;
  }
  EXPECT_EQ(Off, DataEnd) << "segment walk out of sync with the file";
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Round trips
//===----------------------------------------------------------------------===//

TEST(LogEngine, SyncRoundTripMatchesInMemoryLog) {
  auto P = pipelineFor(SmallProgram, /*Jobs=*/1, 512, /*CheckpointEvery=*/16);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("sync_roundtrip"), 7, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;
  ASSERT_GE(Bytes.size(), replay::FileHeaderBytes + replay::SegmentHeaderBytes);

  auto Reader = replay::LogReader::open(Bytes, replay::LogReader::Options());
  ASSERT_TRUE(Reader.hasValue()) << Reader.error().message();
  EXPECT_EQ(Reader->fingerprint(), P->workloadFingerprint());
  auto RL = Reader->recover();
  ASSERT_TRUE(RL.Complete) << RL.Failure.message();
  EXPECT_GE(RL.SegmentsRead, 1u);
  EXPECT_GT(RL.RecordsRecovered, 0u);
  expectLogsEqual(RL.Log, Rec.Log);

  // The recovered log replays to the recorded state.
  auto Rep = P->replay(RL.Log);
  ASSERT_TRUE(Rep.Ok) << Rep.Error;
  EXPECT_EQ(Rep.StateHash, Rec.StateHash);
}

TEST(LogEngine, AsyncCompressionIsBitIdenticalToSync) {
  // Same program, same seed; the only difference is whether segment
  // compression runs inline (1 worker) or on the pool (4 workers). The
  // files must be byte-identical — async is a latency optimization, not
  // a format variant.
  std::vector<uint8_t> SyncBytes, AsyncBytes;
  {
    auto P = pipelineFor(BusyProgram, /*Jobs=*/1, 512, 256);
    ASSERT_NE(P, nullptr);
    auto Rec = recordTo(*P, tmpPath("sync_bytes"), 42, SyncBytes);
    ASSERT_TRUE(Rec.Ok) << Rec.Error;
  }
  {
    auto P = pipelineFor(BusyProgram, /*Jobs=*/4, 512, 256);
    ASSERT_NE(P, nullptr);
    auto Rec = recordTo(*P, tmpPath("async_bytes"), 42, AsyncBytes);
    ASSERT_TRUE(Rec.Ok) << Rec.Error;
  }
  ASSERT_GT(segmentExtents(SyncBytes).size(), 2u)
      << "program too small to exercise segment ordering";
  EXPECT_EQ(SyncBytes, AsyncBytes);
}

TEST(LogEngine, StreamingNextRebuildsTheRecordedLog) {
  // Hand-driven record iteration (the API the old whole-buffer decode
  // wrapper was deprecated in favor of): draining next() and applying
  // each record rebuilds exactly the in-memory log.
  auto P = pipelineFor(SmallProgram, 1, 512, 0);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("streaming_next"), 3, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;

  auto Reader = replay::LogReader::open(Bytes, replay::LogReader::Options());
  ASSERT_TRUE(Reader.hasValue()) << Reader.error().message();
  rt::ExecutionLog Log;
  replay::LogReader::Record R;
  for (;;) {
    auto Got = Reader->next(R);
    ASSERT_TRUE(Got.hasValue()) << Got.error().message();
    if (!*Got)
      break;
    switch (R.Tag) {
    case replay::RecordTag::Meta:
      Log.NumSyncObjects = R.NumSyncObjects;
      Log.NumWeakLocks = R.NumWeakLocks;
      Log.PerObject.resize(Log.numOrderedObjects());
      break;
    case replay::RecordTag::Ordered:
      ASSERT_LT(R.Obj, Log.PerObject.size());
      Log.PerObject[R.Obj].push_back({R.Tid, R.Op});
      break;
    case replay::RecordTag::Input:
      if (R.Tid >= Log.PerThreadInputs.size())
        Log.PerThreadInputs.resize(R.Tid + 1);
      Log.PerThreadInputs[R.Tid].push_back({R.Kind, R.Value});
      break;
    case replay::RecordTag::Revocation:
      Log.Revocations.push_back(R.Rev);
      break;
    case replay::RecordTag::Checkpoint:
      break;
    case replay::RecordTag::End:
      Log.NumThreads = R.NumThreads;
      if (Log.PerThreadInputs.size() < R.NumThreads)
        Log.PerThreadInputs.resize(R.NumThreads);
      EXPECT_EQ(Log.totalOrderedEvents(), R.TotalOrdered);
      EXPECT_EQ(Log.totalInputEvents(), R.TotalInputs);
      break;
    }
  }
  EXPECT_TRUE(Reader->sawEnd());
  expectLogsEqual(Log, Rec.Log);
}

TEST(LogEngine, FingerprintMismatchIsRejected) {
  auto P = pipelineFor(SmallProgram, 1, 512, 0);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("fingerprint"), 5, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;

  replay::LogReader::Options Good;
  Good.CheckFingerprint = true;
  Good.ExpectedFingerprint = P->workloadFingerprint();
  EXPECT_TRUE(replay::LogReader::open(Bytes, Good).hasValue());

  replay::LogReader::Options Bad = Good;
  Bad.ExpectedFingerprint = Good.ExpectedFingerprint + 1;
  auto Reader = replay::LogReader::open(Bytes, Bad);
  ASSERT_FALSE(Reader.hasValue());
  EXPECT_NE(Reader.error().message().find("fingerprint"), std::string::npos)
      << Reader.error().message();
}

TEST(LogEngine, GarbageAndEmptyInputsAreRejected) {
  EXPECT_FALSE(
      replay::LogReader::open({}, replay::LogReader::Options()).hasValue());
  std::vector<uint8_t> Garbage(64, 0xab);
  EXPECT_FALSE(
      replay::LogReader::open(Garbage, replay::LogReader::Options())
          .hasValue());
}

TEST(LogEngine, StreamedRecordsEndWithMatchingTotals) {
  auto P = pipelineFor(SmallProgram, 1, 512, 16);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("stream_totals"), 11, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;

  auto Reader = replay::LogReader::open(Bytes, replay::LogReader::Options());
  ASSERT_TRUE(Reader.hasValue()) << Reader.error().message();
  uint64_t Ordered = 0, Inputs = 0, Checkpoints = 0;
  bool SawMeta = false, First = true;
  replay::LogReader::Record R;
  for (;;) {
    auto Next = Reader->next(R);
    ASSERT_TRUE(Next.hasValue()) << Next.error().message();
    if (!*Next)
      break;
    if (First) {
      EXPECT_EQ(R.Tag, replay::RecordTag::Meta) << "Meta must come first";
      First = false;
    }
    switch (R.Tag) {
    case replay::RecordTag::Meta:
      SawMeta = true;
      EXPECT_EQ(R.NumSyncObjects, Rec.Log.NumSyncObjects);
      EXPECT_EQ(R.NumWeakLocks, Rec.Log.NumWeakLocks);
      break;
    case replay::RecordTag::Ordered:
      ++Ordered;
      break;
    case replay::RecordTag::Input:
      ++Inputs;
      break;
    case replay::RecordTag::Checkpoint:
      ++Checkpoints;
      break;
    case replay::RecordTag::End:
      EXPECT_EQ(R.TotalOrdered, Rec.Log.totalOrderedEvents());
      EXPECT_EQ(R.TotalInputs, Rec.Log.totalInputEvents());
      EXPECT_EQ(R.NumThreads, Rec.Log.NumThreads);
      break;
    default:
      break;
    }
  }
  EXPECT_TRUE(SawMeta);
  EXPECT_TRUE(Reader->sawEnd());
  EXPECT_EQ(Ordered, Rec.Log.totalOrderedEvents());
  EXPECT_EQ(Inputs, Rec.Log.totalInputEvents());
  EXPECT_GT(Checkpoints, 0u);
}

TEST(LogEngine, RecoverPublishesMetrics) {
  auto P = pipelineFor(SmallProgram, 1, 512, 16);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("recover_metrics"), 9, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;

  obs::Registry Reg;
  replay::LogReader::Options Opts;
  Opts.Metrics = &Reg;
  auto Reader = replay::LogReader::open(std::move(Bytes), Opts);
  ASSERT_TRUE(Reader.hasValue()) << Reader.error().message();
  auto RL = Reader->recover();
  ASSERT_TRUE(RL.Complete) << RL.Failure.message();

  auto Snap = Reg.snapshot();
  EXPECT_EQ(Snap.value("replay.recover.recovered", -1), 1);
  EXPECT_EQ(Snap.value("replay.recover.segments_read", -1),
            static_cast<int64_t>(RL.SegmentsRead));
  EXPECT_EQ(Snap.value("replay.recover.records_recovered", -1),
            static_cast<int64_t>(RL.RecordsRecovered));
  EXPECT_EQ(Snap.value("replay.recover.checkpoints_merged", -1),
            static_cast<int64_t>(RL.CheckpointsMerged));
  EXPECT_GT(RL.CheckpointsMerged, 0u);
}

//===----------------------------------------------------------------------===//
// Checkpointed resume
//===----------------------------------------------------------------------===//

TEST(LogCheckpoint, SeekToLastCheckpointResumesBitIdentical) {
  auto P = pipelineFor(BusyProgram, 1, 512, 256);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("seek_resume"), 13, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;

  auto RL = recoverBytes(Bytes);
  ASSERT_TRUE(RL.Complete) << RL.Failure.message();
  ASSERT_GT(RL.CheckpointsMerged, 0u);
  auto Cold = P->replay(RL.Log);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  ASSERT_EQ(Cold.StateHash, Rec.StateHash);

  auto Reader = replay::LogReader::open(std::move(Bytes),
                                        replay::LogReader::Options());
  ASSERT_TRUE(Reader.hasValue()) << Reader.error().message();
  auto Snap = Reader->seekToCheckpoint();
  ASSERT_TRUE(Snap.hasValue()) << Snap.error().message();
  EXPECT_GT(Snap->LogEventsAtCapture, 0u);

  auto Resumed = P->replayResumed(RL.Log, *Snap);
  ASSERT_TRUE(Resumed.Ok) << Resumed.Error;
  EXPECT_EQ(Resumed.StateHash, Cold.StateHash);
  EXPECT_EQ(Resumed.Output, Cold.Output);
}

TEST(LogCheckpoint, ResumeFromEveryCheckpointMatchesColdReplay) {
  auto P = pipelineFor(BusyProgram, 1, 512, 512);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("resume_all"), 21, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;

  auto Reader = replay::LogReader::open(std::move(Bytes),
                                        replay::LogReader::Options());
  ASSERT_TRUE(Reader.hasValue()) << Reader.error().message();
  std::vector<rt::MachineSnapshot> Snaps;
  replay::LogReader::Record R;
  for (;;) {
    auto Next = Reader->next(R);
    ASSERT_TRUE(Next.hasValue()) << Next.error().message();
    if (!*Next)
      break;
    if (R.Tag == replay::RecordTag::Checkpoint)
      Snaps.push_back(R.Snapshot);
  }
  ASSERT_GT(Snaps.size(), 1u) << "need several checkpoints to be meaningful";

  for (size_t I = 0; I != Snaps.size(); ++I) {
    auto Resumed = P->replayResumed(Rec.Log, Snaps[I]);
    ASSERT_TRUE(Resumed.Ok) << "checkpoint " << I << ": " << Resumed.Error;
    EXPECT_EQ(Resumed.StateHash, Rec.StateHash) << "checkpoint " << I;
  }
}

TEST(LogCheckpoint, TruncatedCheckpointBodyIsRejected) {
  auto P = pipelineFor(SmallProgram, 1, 512, 16);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("ckpt_body"), 17, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;
  auto RL = recoverBytes(std::move(Bytes));
  ASSERT_TRUE(RL.Complete) << RL.Failure.message();
  ASSERT_NE(RL.LastCheckpoint, nullptr);

  std::vector<uint64_t> PrevG, PrevH;
  auto Body = replay::encodeCheckpoint(*RL.LastCheckpoint, PrevG, PrevH);
  ASSERT_FALSE(Body.empty());

  // The intact body decodes and revalidates its state hash.
  {
    std::vector<uint64_t> AccumG, AccumH;
    auto Snap = replay::decodeCheckpoint(Body, AccumG, AccumH);
    ASSERT_TRUE(Snap.hasValue()) << Snap.error().message();
    EXPECT_EQ(rt::snapshotStateHash(*Snap), Snap->StateHash);
  }
  // Every proper prefix must fail with a typed error, never crash.
  for (size_t Len = 0; Len != Body.size(); ++Len) {
    std::vector<uint8_t> Cut(Body.begin(), Body.begin() + Len);
    std::vector<uint64_t> AccumG, AccumH;
    auto Snap = replay::decodeCheckpoint(Cut, AccumG, AccumH);
    EXPECT_FALSE(Snap.hasValue()) << "length " << Len << " decoded";
  }
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

TEST(LogFaults, BitFlipAtEveryByteIsDetectedOrHarmless) {
  auto P = pipelineFor(SmallProgram, 1, 512, 0);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("bitflip"), 29, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;
  uint64_t TotalRecords = recoverBytes(Bytes).RecordsRecovered;
  ASSERT_GT(TotalRecords, 0u);

  for (size_t Off = 0; Off != Bytes.size(); ++Off) {
    std::vector<uint8_t> Flipped = Bytes;
    Flipped[Off] ^= 0xff;
    auto Reader = replay::LogReader::open(std::move(Flipped),
                                          replay::LogReader::Options());
    if (Off < 8) {
      // Magic / version / file flags: open itself must refuse.
      EXPECT_FALSE(Reader.hasValue()) << "offset " << Off;
      continue;
    }
    ASSERT_TRUE(Reader.hasValue())
        << "offset " << Off << ": " << Reader.error().message();
    auto RL = Reader->recover();
    if (Off < replay::FileHeaderBytes) {
      // Fingerprint bytes: harmless unless the caller pins a fingerprint.
      EXPECT_TRUE(RL.Complete) << "offset " << Off;
      continue;
    }
    // Every byte past the file header is covered by a header or payload
    // CRC: the flip must be detected, recovery must keep a valid prefix,
    // and the error must name the damaged segment.
    EXPECT_FALSE(RL.Complete) << "offset " << Off << " went undetected";
    EXPECT_TRUE(bool(RL.Failure)) << "offset " << Off;
    EXPECT_NE(RL.Failure.message().find("segment"), std::string::npos)
        << "offset " << Off << ": " << RL.Failure.message();
    EXPECT_LT(RL.RecordsRecovered, TotalRecords) << "offset " << Off;
  }
}

TEST(LogFaults, TruncationAtEveryLengthDegradesGracefully) {
  auto P = pipelineFor(SmallProgram, 1, 512, 0);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("truncate"), 31, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;
  uint64_t TotalRecords = recoverBytes(Bytes).RecordsRecovered;

  for (size_t Len = 0; Len != Bytes.size(); ++Len) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    auto Reader = replay::LogReader::open(std::move(Cut),
                                          replay::LogReader::Options());
    if (Len < replay::FileHeaderBytes) {
      EXPECT_FALSE(Reader.hasValue()) << "length " << Len;
      continue;
    }
    ASSERT_TRUE(Reader.hasValue())
        << "length " << Len << ": " << Reader.error().message();
    auto RL = Reader->recover();
    // No proper prefix carries the End record, so none is complete; the
    // failure names the damaged segment, the missing End, or (for a cut
    // right after the file header) the empty stream.
    EXPECT_FALSE(RL.Complete) << "length " << Len;
    EXPECT_TRUE(bool(RL.Failure)) << "length " << Len;
    const std::string &Msg = RL.Failure.message();
    EXPECT_TRUE(Msg.find("segment") != std::string::npos ||
                Msg.find("End record") != std::string::npos ||
                Msg.find("empty") != std::string::npos)
        << "length " << Len << ": " << Msg;
    EXPECT_LE(RL.RecordsRecovered, TotalRecords);
  }
}

TEST(LogFaults, DroppedSegmentReportsSequenceGap) {
  auto P = pipelineFor(BusyProgram, 1, 512, 0);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("dropped"), 37, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;
  auto Extents = segmentExtents(Bytes);
  ASSERT_GT(Extents.size(), 2u);

  // Remove the middle segment wholesale.
  auto [Off, Len] = Extents[1];
  std::vector<uint8_t> Damaged = Bytes;
  Damaged.erase(Damaged.begin() + Off, Damaged.begin() + Off + Len);

  auto RL = recoverBytes(std::move(Damaged));
  EXPECT_FALSE(RL.Complete);
  EXPECT_NE(RL.Failure.message().find("dropped"), std::string::npos)
      << RL.Failure.message();
  // Everything before the gap is preserved.
  EXPECT_EQ(RL.SegmentsRead, 1u);
  EXPECT_GT(RL.RecordsRecovered, 0u);
}

TEST(LogFaults, DuplicatedSegmentReportsRegression) {
  auto P = pipelineFor(BusyProgram, 1, 512, 0);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(*P, tmpPath("duplicated"), 41, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;
  auto Extents = segmentExtents(Bytes);
  ASSERT_GT(Extents.size(), 2u);

  // Splice a second copy of segment 1 right after itself.
  auto [Off, Len] = Extents[1];
  std::vector<uint8_t> Damaged = Bytes;
  std::vector<uint8_t> Copy(Bytes.begin() + Off, Bytes.begin() + Off + Len);
  Damaged.insert(Damaged.begin() + Off + Len, Copy.begin(), Copy.end());

  auto RL = recoverBytes(std::move(Damaged));
  EXPECT_FALSE(RL.Complete);
  EXPECT_NE(RL.Failure.message().find("duplicated"), std::string::npos)
      << RL.Failure.message();
  EXPECT_EQ(RL.SegmentsRead, 2u);
}

//===----------------------------------------------------------------------===//
// CIDX checkpoint-index footer faults
//
// The footer is advisory: any damage to it must leave recovery complete
// (old readers ignore it entirely), drop checkpoint enumeration back to
// the linear scan, and never select a checkpoint the recovery path
// would reject.
//===----------------------------------------------------------------------===//

namespace {

void expectInfosEqual(const std::vector<replay::LogReader::CheckpointInfo> &A,
                      const std::vector<replay::LogReader::CheckpointInfo> &B) {
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].Index, B[I].Index) << "checkpoint " << I;
    EXPECT_EQ(A[I].SegmentOffset, B[I].SegmentOffset) << "checkpoint " << I;
    EXPECT_EQ(A[I].Seq, B[I].Seq) << "checkpoint " << I;
    EXPECT_EQ(A[I].PayloadPos, B[I].PayloadPos) << "checkpoint " << I;
    EXPECT_EQ(A[I].StateHash, B[I].StateHash) << "checkpoint " << I;
    EXPECT_EQ(A[I].LogEventsAtCapture, B[I].LogEventsAtCapture)
        << "checkpoint " << I;
  }
}

/// Records BusyProgram with checkpoints and returns the file bytes plus
/// the footer's start offset (asserts the footer exists).
std::vector<uint8_t> checkpointedBytes(core::ChimeraPipeline &P,
                                       const std::string &Name,
                                       size_t &FooterStart) {
  std::vector<uint8_t> Bytes;
  auto Rec = recordTo(P, tmpPath(Name), 13, Bytes);
  EXPECT_TRUE(Rec.Ok) << Rec.Error;
  std::vector<replay::CidxEntry> Entries;
  FooterStart = 0;
  EXPECT_TRUE(
      replay::readCidxFooter(Bytes, Bytes.size(), Entries, FooterStart))
      << "checkpointed log carries no CIDX footer";
  EXPECT_FALSE(Entries.empty());
  return Bytes;
}

} // namespace

TEST(LogFooter, FooterEnumerationMatchesLinearScan) {
  auto P = pipelineFor(BusyProgram, 1, 512, 256);
  ASSERT_NE(P, nullptr);
  size_t FooterStart = 0;
  auto Bytes = checkpointedBytes(*P, "footer_vs_scan", FooterStart);

  auto WithFooter = replay::LogReader::open(Bytes,
                                            replay::LogReader::Options());
  ASSERT_TRUE(WithFooter.hasValue());
  ASSERT_TRUE(WithFooter->hasCheckpointIndex());

  // Same file with the footer chopped off: the enumeration must come
  // from the linear scan and be identical entry for entry.
  std::vector<uint8_t> NoFooter(Bytes.begin(), Bytes.begin() + FooterStart);
  auto Scanned = replay::LogReader::open(std::move(NoFooter),
                                         replay::LogReader::Options());
  ASSERT_TRUE(Scanned.hasValue());
  EXPECT_FALSE(Scanned->hasCheckpointIndex());
  EXPECT_TRUE(recoverBytes({Bytes.begin(), Bytes.begin() + FooterStart})
                  .Complete)
      << "footer-less file must stay complete";
  expectInfosEqual(WithFooter->checkpoints(), Scanned->checkpoints());
}

TEST(LogFooter, BitFlipAnywhereInFooterFallsBackCleanly) {
  auto P = pipelineFor(BusyProgram, 1, 512, 256);
  ASSERT_NE(P, nullptr);
  size_t FooterStart = 0;
  auto Bytes = checkpointedBytes(*P, "footer_flip", FooterStart);

  auto Intact = replay::LogReader::open(Bytes, replay::LogReader::Options());
  ASSERT_TRUE(Intact.hasValue());
  const auto Reference = Intact->checkpoints();

  for (size_t Off = FooterStart; Off != Bytes.size(); ++Off) {
    std::vector<uint8_t> Flipped = Bytes;
    Flipped[Off] ^= 0xff;
    auto Reader = replay::LogReader::open(std::move(Flipped),
                                          replay::LogReader::Options());
    ASSERT_TRUE(Reader.hasValue()) << "offset " << Off;
    // The CRC (or the structural checks) must reject the footer...
    EXPECT_FALSE(Reader->hasCheckpointIndex()) << "offset " << Off;
    // ...the log body is untouched, so recovery stays complete...
    auto RL = Reader->recover();
    EXPECT_TRUE(RL.Complete) << "offset " << Off << ": "
                             << RL.Failure.message();
    // ...and the linear scan reproduces the same checkpoint list.
    expectInfosEqual(Reader->checkpoints(), Reference);
  }
}

TEST(LogFooter, TruncationInsideFooterKeepsLogComplete) {
  auto P = pipelineFor(BusyProgram, 1, 512, 256);
  ASSERT_NE(P, nullptr);
  size_t FooterStart = 0;
  auto Bytes = checkpointedBytes(*P, "footer_trunc", FooterStart);

  auto Intact = replay::LogReader::open(Bytes, replay::LogReader::Options());
  ASSERT_TRUE(Intact.hasValue());
  const auto Reference = Intact->checkpoints();

  for (size_t Len = FooterStart; Len != Bytes.size(); ++Len) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Len);
    auto Reader = replay::LogReader::open(std::move(Cut),
                                          replay::LogReader::Options());
    ASSERT_TRUE(Reader.hasValue()) << "length " << Len;
    EXPECT_FALSE(Reader->hasCheckpointIndex()) << "length " << Len;
    auto RL = Reader->recover();
    EXPECT_TRUE(RL.Complete) << "length " << Len << ": "
                             << RL.Failure.message();
    expectInfosEqual(Reader->checkpoints(), Reference);
  }
}

TEST(LogFooter, TrailingGarbageAfterFooterFallsBack) {
  auto P = pipelineFor(BusyProgram, 1, 512, 256);
  ASSERT_NE(P, nullptr);
  size_t FooterStart = 0;
  auto Bytes = checkpointedBytes(*P, "footer_garbage", FooterStart);

  auto Intact = replay::LogReader::open(Bytes, replay::LogReader::Options());
  ASSERT_TRUE(Intact.hasValue());
  const auto Reference = Intact->checkpoints();

  std::vector<uint8_t> Grown = Bytes;
  Grown.insert(Grown.end(), {0xde, 0xad, 0xbe, 0xef});
  auto Reader = replay::LogReader::open(std::move(Grown),
                                        replay::LogReader::Options());
  ASSERT_TRUE(Reader.hasValue());
  EXPECT_FALSE(Reader->hasCheckpointIndex());
  EXPECT_TRUE(Reader->recover().Complete);
  expectInfosEqual(Reader->checkpoints(), Reference);
}

TEST(LogFooter, DamagedChainNeverSelectsUnrestorableCheckpoint) {
  // A valid footer pointing at a log whose body is damaged: chain
  // validation must discard the footer and return only the checkpoints
  // sequential recovery itself reaches — never one past the damage.
  auto P = pipelineFor(BusyProgram, 1, 512, 256);
  ASSERT_NE(P, nullptr);
  size_t FooterStart = 0;
  auto Bytes = checkpointedBytes(*P, "footer_chain", FooterStart);

  auto Extents = segmentExtents(Bytes);
  ASSERT_GT(Extents.size(), 2u);
  // Damage the payload of a middle segment; the footer itself stays
  // byte-identical and structurally valid.
  auto [Off, Len] = Extents[Extents.size() / 2];
  std::vector<uint8_t> Damaged = Bytes;
  Damaged[Off + replay::SegmentHeaderBytes] ^= 0xff;

  auto Reader = replay::LogReader::open(Damaged, replay::LogReader::Options());
  ASSERT_TRUE(Reader.hasValue());
  EXPECT_TRUE(Reader->hasCheckpointIndex()) << "footer itself is intact";

  auto RL = Reader->recover();
  ASSERT_FALSE(RL.Complete);

  auto Chain = Reader->loadCheckpointChain(
      [](const std::vector<replay::LogReader::CheckpointInfo> &Infos) {
        std::vector<size_t> All(Infos.size());
        for (size_t I = 0; I != All.size(); ++I)
          All[I] = I;
        return All;
      });
  ASSERT_EQ(Chain.Infos.size(), Chain.Snapshots.size());
  EXPECT_EQ(Chain.Infos.size(), RL.CheckpointsMerged)
      << "chain selected checkpoints recovery never reached";
  for (size_t I = 0; I != Chain.Snapshots.size(); ++I) {
    EXPECT_EQ(rt::snapshotStateHash(Chain.Snapshots[I]),
              Chain.Infos[I].StateHash)
        << "checkpoint " << I << " fails its own hash";
  }
  if (!Chain.Snapshots.empty()) {
    // The checkpoint seekToCheckpoint restores really is restorable.
    auto Fresh = replay::LogReader::open(std::move(Damaged),
                                         replay::LogReader::Options());
    ASSERT_TRUE(Fresh.hasValue());
    auto Snap = Fresh->seekToCheckpoint();
    ASSERT_TRUE(Snap.hasValue()) << Snap.error().message();
    EXPECT_EQ(Snap->StateHash, Chain.Infos.back().StateHash);
  }
}

//===----------------------------------------------------------------------===//
// Compressed-stream corruption (support::lzDecompressEx)
//===----------------------------------------------------------------------===//

TEST(LogCompression, RoundTripAndTruncationOfEveryPrefix) {
  std::vector<uint8_t> Input;
  for (unsigned I = 0; I != 4096; ++I)
    Input.push_back(static_cast<uint8_t>((I * 7) & 0x3f)); // Compressible.
  auto Packed = lzCompress(Input);
  auto Out = lzDecompressEx(Packed);
  ASSERT_TRUE(Out.hasValue()) << Out.error().message();
  EXPECT_EQ(*Out, Input);

  for (size_t Len = 0; Len != Packed.size(); ++Len) {
    std::vector<uint8_t> Cut(Packed.begin(), Packed.begin() + Len);
    auto R = lzDecompressEx(Cut);
    EXPECT_FALSE(R.hasValue()) << "prefix length " << Len << " decoded";
  }
}

TEST(LogCompression, OversizedDeclaredSizeRejectedBeforeAllocation) {
  // A corrupt size prefix claiming 2^40 bytes must be refused up front,
  // not drive the allocator into the ground.
  std::vector<uint8_t> Evil;
  appendVarint(Evil, uint64_t(1) << 40);
  Evil.push_back(0); // Terminator, in case the size were honored.
  auto R = lzDecompressEx(Evil);
  ASSERT_FALSE(R.hasValue());
  EXPECT_NE(R.error().message().find("exceeds limit"), std::string::npos)
      << R.error().message();

  // Same stream with an explicit tighter cap.
  std::vector<uint8_t> Big;
  appendVarint(Big, 1024);
  auto R2 = lzDecompressEx(Big, /*MaxOutput=*/16);
  ASSERT_FALSE(R2.hasValue());
  EXPECT_NE(R2.error().message().find("exceeds limit"), std::string::npos);
}

TEST(LogCompression, MalformedTokenStreamsAreRejected) {
  // Match distance reaching before the start of the output.
  {
    std::vector<uint8_t> S;
    appendVarint(S, 8);              // Declared size.
    appendVarint(S, 4);              // 4 literals.
    S.insert(S.end(), {1, 2, 3, 4});
    S.push_back(1);                  // Match of MinMatch bytes...
    appendVarint(S, 9);              // ...from before the stream start.
    auto R = lzDecompressEx(S);
    ASSERT_FALSE(R.hasValue());
    EXPECT_NE(R.error().message().find("distance"), std::string::npos);
  }
  // Output disagreeing with the declared size.
  {
    std::vector<uint8_t> S;
    appendVarint(S, 5); // Claims 5 bytes...
    appendVarint(S, 4); // ...but carries 4.
    S.insert(S.end(), {1, 2, 3, 4});
    S.push_back(0);
    auto R = lzDecompressEx(S);
    ASSERT_FALSE(R.hasValue());
    EXPECT_NE(R.error().message().find("size mismatch"), std::string::npos);
  }
  // Garbage after the terminator.
  {
    std::vector<uint8_t> S;
    appendVarint(S, 4);
    appendVarint(S, 4);
    S.insert(S.end(), {1, 2, 3, 4});
    S.push_back(0);
    S.push_back(0x55);
    auto R = lzDecompressEx(S);
    ASSERT_FALSE(R.hasValue());
    EXPECT_NE(R.error().message().find("trailing"), std::string::npos);
  }
  // Literal run past the end of the compressed bytes.
  {
    std::vector<uint8_t> S;
    appendVarint(S, 64);
    appendVarint(S, 64); // 64 literals claimed, none present.
    auto R = lzDecompressEx(S);
    ASSERT_FALSE(R.hasValue());
    EXPECT_NE(R.error().message().find("literal"), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Workload matrix: streamed record + checkpointed resume on real workloads
//===----------------------------------------------------------------------===//

class WorkloadLogEngine
    : public ::testing::TestWithParam<workloads::WorkloadKind> {};

TEST_P(WorkloadLogEngine, StreamedRecordRecoversAndResumes) {
  core::PipelineConfig Config;
  Config.AnalysisJobs = 2;
  Config.SegmentBytes = 4096;
  Config.CheckpointEvery = 512;
  auto Built = workloads::buildPipelineEx(GetParam(), /*Workers=*/2, Config);
  ASSERT_TRUE(Built.hasValue()) << Built.error().message();
  auto P = Built.take();

  std::vector<uint8_t> Bytes;
  std::string Path = tmpPath(std::string("workload_") +
                             workloads::workloadInfo(GetParam()).Name);
  auto Rec = recordTo(*P, Path, 2012, Bytes);
  ASSERT_TRUE(Rec.Ok) << Rec.Error;

  auto RL = recoverBytes(Bytes);
  ASSERT_TRUE(RL.Complete) << RL.Failure.message();
  expectLogsEqual(RL.Log, Rec.Log);

  auto Cold = P->replay(RL.Log);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  ASSERT_EQ(Cold.StateHash, Rec.StateHash);

  auto Reader = replay::LogReader::open(std::move(Bytes),
                                        replay::LogReader::Options());
  ASSERT_TRUE(Reader.hasValue()) << Reader.error().message();
  auto Snap = Reader->seekToCheckpoint();
  if (!Snap.hasValue()) {
    // Run shorter than one checkpoint interval: nothing to resume from.
    ASSERT_LT(Rec.Log.totalOrderedEvents() + Rec.Log.totalInputEvents(),
              Config.CheckpointEvery)
        << Snap.error().message();
    return;
  }
  auto Resumed = P->replayResumed(RL.Log, *Snap);
  ASSERT_TRUE(Resumed.Ok) << Resumed.Error;
  EXPECT_EQ(Resumed.StateHash, Cold.StateHash);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, WorkloadLogEngine,
    ::testing::Values(workloads::WorkloadKind::Aget,
                      workloads::WorkloadKind::Pfscan,
                      workloads::WorkloadKind::Ocean),
    [](const ::testing::TestParamInfo<workloads::WorkloadKind> &Info) {
      return workloads::workloadInfo(Info.param).Name;
    });
