//===- replay/LogReader.cpp - Streaming segmented-log reader ---------------===//

#include "replay/LogReader.h"

#include "replay/Checkpoint.h"
#include "support/Compressor.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace chimera;
using namespace chimera::replay;
using support::Error;
using support::Expected;

//===----------------------------------------------------------------------===//
// Opening
//===----------------------------------------------------------------------===//

/// Structural sanity over decoded footer entries: offsets inside the
/// data region, stream order strictly increasing. A footer that fails
/// this is ignored (linear scan), never an error.
static bool footerEntriesSane(const std::vector<CidxEntry> &Entries,
                              size_t FooterStart) {
  for (size_t I = 0; I != Entries.size(); ++I) {
    const CidxEntry &E = Entries[I];
    if (E.SegmentOffset < FileHeaderBytes ||
        E.SegmentOffset + SegmentHeaderBytes > FooterStart)
      return false;
    if (I == 0)
      continue;
    const CidxEntry &P = Entries[I - 1];
    if (E.Seq < P.Seq || E.SegmentOffset < P.SegmentOffset)
      return false;
    if (E.SegmentOffset == P.SegmentOffset &&
        (E.Seq != P.Seq || E.PayloadPos <= P.PayloadPos))
      return false;
    if (E.SegmentOffset != P.SegmentOffset && E.Seq == P.Seq)
      return false;
  }
  return true;
}

Expected<LogReader> LogReader::open(std::vector<uint8_t> Bytes, Options Opts) {
  if (Bytes.size() < FileHeaderBytes)
    return Error::failure("log file truncated: " +
                          std::to_string(Bytes.size()) +
                          " bytes, header needs " +
                          std::to_string(FileHeaderBytes));
  if (std::memcmp(Bytes.data(), FileMagic, 4) != 0)
    return Error::failure("not a segmented log (bad magic)");
  uint16_t Version = readLe16(Bytes.data() + 4);
  if (Version != FormatVersion)
    return Error::failure("unsupported log format version " +
                          std::to_string(Version) + " (reader speaks " +
                          std::to_string(FormatVersion) + ")");
  uint16_t FileFlags = readLe16(Bytes.data() + 6);
  if (FileFlags != 0)
    return Error::failure("unknown file flags 0x" +
                          std::to_string(FileFlags));
  uint64_t Fingerprint = readLe64(Bytes.data() + 8);
  if (Opts.CheckFingerprint && Fingerprint != Opts.ExpectedFingerprint)
    return Error::failure(
        "workload fingerprint mismatch: log was recorded for " +
        std::to_string(Fingerprint) + ", expected " +
        std::to_string(Opts.ExpectedFingerprint));

  LogReader Reader(
      std::make_shared<const std::vector<uint8_t>>(std::move(Bytes)), Opts);
  Reader.Fingerprint = Fingerprint;
  Reader.DataEnd = Reader.Data->size();

  // CIDX footer (format 1.1): advisory checkpoint index after the last
  // segment. Structurally valid -> the footer region is excluded from
  // the record stream (clean EOF at DataEnd); anything less -> ignored,
  // checkpoint queries fall back to the linear scan.
  std::vector<CidxEntry> Entries;
  size_t FooterStart = 0;
  if (readCidxFooter(*Reader.Data, Reader.Data->size(), Entries,
                     FooterStart) &&
      footerEntriesSane(Entries, FooterStart)) {
    Reader.HaveFooter = true;
    Reader.FooterEntries = std::move(Entries);
    Reader.DataEnd = FooterStart;
  }
  return Reader;
}

LogReader LogReader::fork() const {
  LogReader R(Data, Opts);
  R.Fingerprint = Fingerprint;
  R.DataEnd = DataEnd;
  R.HaveFooter = HaveFooter;
  R.FooterEntries = FooterEntries;
  return R;
}

//===----------------------------------------------------------------------===//
// Segment loading
//===----------------------------------------------------------------------===//

Error LogReader::segError(const std::string &What) const {
  return Error::failure("segment " + std::to_string(CurSeq) + " at offset " +
                        std::to_string(CurSegmentOffset) + ": " + What);
}

Expected<bool> LogReader::loadNextSegment() {
  if (FileOffset == DataEnd)
    return false; // Clean end of file (any CIDX footer follows).

  CurSeq = NextSeq;
  CurSegmentOffset = FileOffset;
  size_t HeaderAvail = FileOffset < DataEnd ? DataEnd - FileOffset : 0;
  if (HeaderAvail < SegmentHeaderBytes)
    return segError("truncated header (" + std::to_string(HeaderAvail) +
                    " of " + std::to_string(SegmentHeaderBytes) + " bytes)");

  const uint8_t *H = Data->data() + FileOffset;
  uint32_t StoredHeaderCrc = readLe32(H + 28);
  if (support::crc32(H, 28) != StoredHeaderCrc)
    return segError("header CRC mismatch");
  // Past the CRC, every header field is authentic; violations below are
  // writer bugs or deliberate tampering, reported all the same.
  if (std::memcmp(H, SegmentMagic, 4) != 0)
    return segError("bad segment magic");
  uint32_t Seq = readLe32(H + 4);
  if (Seq != NextSeq)
    return segError(Seq > NextSeq
                        ? "sequence gap: expected " +
                              std::to_string(NextSeq) + ", found " +
                              std::to_string(Seq) + " (dropped segment?)"
                        : "sequence regression: expected " +
                              std::to_string(NextSeq) + ", found " +
                              std::to_string(Seq) +
                              " (duplicated segment?)");
  uint8_t Flags = H[8];
  if ((Flags & ~SegFlagKnownMask) != 0)
    return segError("unknown flag bits 0x" +
                    std::to_string(Flags & ~SegFlagKnownMask));
  if (H[9] != 0 || H[10] != 0 || H[11] != 0)
    return segError("reserved header bytes are nonzero");
  uint32_t RawSize = readLe32(H + 12);
  uint32_t StoredSize = readLe32(H + 16);
  uint32_t PayloadCrc = readLe32(H + 20);
  if (RawSize > MaxDecompressedBytes)
    return segError("implausible raw size " + std::to_string(RawSize));

  size_t PayloadOffset = FileOffset + SegmentHeaderBytes;
  if (DataEnd - PayloadOffset < StoredSize)
    return segError("truncated payload (" +
                    std::to_string(DataEnd - PayloadOffset) + " of " +
                    std::to_string(StoredSize) + " bytes)");
  const uint8_t *Stored = Data->data() + PayloadOffset;
  if (support::crc32(Stored, StoredSize) != PayloadCrc)
    return segError("payload CRC mismatch");

  if (Flags & SegFlagCompressed) {
    std::vector<uint8_t> Packed(Stored, Stored + StoredSize);
    Expected<std::vector<uint8_t>> Raw = lzDecompressEx(Packed, RawSize);
    if (!Raw)
      return segError(Raw.error().message());
    if (Raw->size() != RawSize)
      return segError("decompressed to " + std::to_string(Raw->size()) +
                      " bytes, header declares " + std::to_string(RawSize));
    Payload = Raw.take();
  } else {
    if (StoredSize != RawSize)
      return segError("uncompressed segment sizes disagree (stored " +
                      std::to_string(StoredSize) + ", raw " +
                      std::to_string(RawSize) + ")");
    Payload.assign(Stored, Stored + StoredSize);
  }

  PayloadPos = 0;
  HaveSegment = true;
  FileOffset = PayloadOffset + StoredSize;
  ++NextSeq;
  ++SegmentsLoaded;
  return true;
}

//===----------------------------------------------------------------------===//
// Record streaming
//===----------------------------------------------------------------------===//

Expected<bool> LogReader::next(Record &Out) {
  // Position to a payload with bytes left. Nothing below advances state
  // before fully validating, so a failed call leaves the stream exactly
  // where it was and re-calling reproduces the same error.
  while (!HaveSegment || PayloadPos == Payload.size()) {
    HaveSegment = false;
    if (SawEnd) {
      if (FileOffset != DataEnd) {
        CurSeq = NextSeq;
        CurSegmentOffset = FileOffset;
        return segError("data after the End record");
      }
      return false;
    }
    Expected<bool> Loaded = loadNextSegment();
    if (!Loaded)
      return Loaded.error();
    if (!*Loaded)
      return false; // End of file (caller checks sawEnd()).
  }

  if (SawEnd) {
    return Error::failure("segment " + std::to_string(CurSeq) +
                          ", payload byte " + std::to_string(PayloadPos) +
                          ": record after the End record");
  }

  RecStart = PayloadPos;
  ByteCursor C;
  C.Data = Payload.data();
  C.Size = Payload.size();
  C.Pos = PayloadPos;
  auto RecError = [&](const std::string &What) {
    return Error::failure("segment " + std::to_string(CurSeq) +
                          ", payload byte " + std::to_string(PayloadPos) +
                          ": " + What);
  };

  uint8_t TagByte = 0;
  C.readByte(TagByte); // Cannot fail: the loop above guarantees a byte.
  Out = Record();
  switch (TagByte) {
  case static_cast<uint8_t>(RecordTag::Meta): {
    Out.Tag = RecordTag::Meta;
    if (!C.readVarint32(Out.NumSyncObjects) ||
        !C.readVarint32(Out.NumWeakLocks))
      return RecError("truncated Meta record");
    break;
  }
  case static_cast<uint8_t>(RecordTag::Ordered): {
    Out.Tag = RecordTag::Ordered;
    uint64_t Packed = 0;
    if (!C.readVarint32(Out.Obj) || !C.readVarint(Packed))
      return RecError("truncated Ordered record");
    uint64_t OpBits = Packed & 0xf;
    if (OpBits > static_cast<uint64_t>(rt::OrderedOp::WeakRelease))
      return RecError("invalid ordered op " + std::to_string(OpBits));
    if ((Packed >> 4) > UINT32_MAX)
      return RecError("ordered tid out of range");
    Out.Tid = static_cast<uint32_t>(Packed >> 4);
    Out.Op = static_cast<rt::OrderedOp>(OpBits);
    break;
  }
  case static_cast<uint8_t>(RecordTag::Input): {
    Out.Tag = RecordTag::Input;
    uint8_t KindByte = 0;
    if (!C.readVarint32(Out.Tid) || !C.readByte(KindByte) ||
        !C.readVarint(Out.Value))
      return RecError("truncated Input record");
    if (KindByte > static_cast<uint8_t>(rt::InputKind::FileRead))
      return RecError("invalid input kind " + std::to_string(KindByte));
    Out.Kind = static_cast<rt::InputKind>(KindByte);
    break;
  }
  case static_cast<uint8_t>(RecordTag::Revocation): {
    Out.Tag = RecordTag::Revocation;
    if (!C.readVarint32(Out.Rev.Tid) || !C.readVarint32(Out.Rev.LockId) ||
        !C.readVarint(Out.Rev.Instret))
      return RecError("truncated Revocation record");
    break;
  }
  case static_cast<uint8_t>(RecordTag::Checkpoint): {
    Out.Tag = RecordTag::Checkpoint;
    uint64_t Len = 0;
    if (!C.readVarint(Len) || Len > C.remaining())
      return RecError("truncated Checkpoint record");
    std::vector<uint8_t> Body(C.Data + C.Pos,
                              C.Data + C.Pos + static_cast<size_t>(Len));
    C.skip(static_cast<size_t>(Len));
    Expected<rt::MachineSnapshot> Snap =
        decodeCheckpoint(Body, AccumGlobal, AccumHeap);
    if (!Snap)
      return RecError(Snap.error().message());
    Out.Snapshot = Snap.take();
    break;
  }
  case static_cast<uint8_t>(RecordTag::End): {
    Out.Tag = RecordTag::End;
    if (!C.readVarint32(Out.NumThreads) || !C.readVarint(Out.TotalOrdered) ||
        !C.readVarint(Out.TotalInputs))
      return RecError("truncated End record");
    SawEnd = true;
    break;
  }
  default:
    return RecError("unknown record tag " + std::to_string(TagByte));
  }

  PayloadPos = C.Pos;
  return true;
}

void LogReader::rewind() {
  FileOffset = FileHeaderBytes;
  NextSeq = 0;
  SawEnd = false;
  SegmentsLoaded = 0;
  Payload.clear();
  PayloadPos = 0;
  RecStart = 0;
  HaveSegment = false;
  AccumGlobal.clear();
  AccumHeap.clear();
  // Footer knowledge and the cached checkpoint list survive: the bytes
  // are immutable.
}

//===----------------------------------------------------------------------===//
// Checkpoint access
//===----------------------------------------------------------------------===//

static LogReader::CheckpointInfo infoFromEntry(const CidxEntry &E,
                                               size_t Index) {
  LogReader::CheckpointInfo CI;
  CI.Index = Index;
  CI.SegmentOffset = E.SegmentOffset;
  CI.Seq = E.Seq;
  CI.PayloadPos = E.PayloadPos;
  CI.StateHash = E.StateHash;
  CI.LogEventsAtCapture = E.LogEventsAtCapture;
  return CI;
}

void LogReader::invalidateFooter() {
  HaveFooter = false;
  FooterEntries.clear();
  InfosValid = false;
  CachedInfos.clear();
}

std::vector<LogReader::CheckpointInfo>
LogReader::scanCheckpoints(const std::vector<size_t> *Keep,
                           std::vector<rt::MachineSnapshot> *Snaps) const {
  // One pass on a fork: a checkpoint is restorable exactly when next()
  // decoded it, since its delta pages accumulate over every earlier
  // segment. Corruption past the last good checkpoint bounds the list.
  std::vector<CheckpointInfo> Infos;
  LogReader Scan = fork();
  Record R;
  size_t NextKeep = 0;
  while (!Keep || NextKeep != Keep->size()) {
    Expected<bool> Got = Scan.next(R);
    if (!Got || !*Got)
      break;
    if (R.Tag != RecordTag::Checkpoint)
      continue;
    CheckpointInfo CI;
    CI.Index = Infos.size();
    CI.SegmentOffset = Scan.CurSegmentOffset;
    CI.Seq = Scan.CurSeq;
    CI.PayloadPos = static_cast<uint32_t>(Scan.RecStart);
    CI.StateHash = R.Snapshot.StateHash;
    CI.LogEventsAtCapture = R.Snapshot.LogEventsAtCapture;
    Infos.push_back(CI);
    if (Keep && (*Keep)[NextKeep] == CI.Index) {
      Snaps->push_back(std::move(R.Snapshot));
      ++NextKeep;
    }
  }
  return Infos;
}

const std::vector<LogReader::CheckpointInfo> &LogReader::checkpoints() {
  if (InfosValid)
    return CachedInfos;
  CachedInfos.clear();
  if (HaveFooter) {
    for (size_t I = 0; I != FooterEntries.size(); ++I)
      CachedInfos.push_back(infoFromEntry(FooterEntries[I], I));
  } else {
    CachedInfos = scanCheckpoints();
  }
  InfosValid = true;
  return CachedInfos;
}

support::Error LogReader::positionAfter(const CheckpointInfo &At,
                                        const rt::MachineSnapshot *Resume) {
  rewind();
  if (At.SegmentOffset < FileHeaderBytes || At.SegmentOffset >= DataEnd)
    return Error::failure("checkpoint index entry points outside the data "
                          "region (segment offset " +
                          std::to_string(At.SegmentOffset) + ")");
  FileOffset = At.SegmentOffset;
  NextSeq = At.Seq;
  Expected<bool> Loaded = loadNextSegment();
  if (!Loaded)
    return Loaded.error();
  if (!*Loaded)
    return Error::failure("checkpoint index entry addresses no segment");

  ByteCursor C(Payload);
  C.Pos = At.PayloadPos;
  uint8_t Tag = 0;
  uint64_t Len = 0;
  if (At.PayloadPos >= Payload.size() || !C.readByte(Tag) ||
      Tag != static_cast<uint8_t>(RecordTag::Checkpoint) ||
      !C.readVarint(Len) || Len > C.remaining())
    return segError("checkpoint index entry does not address a checkpoint "
                    "record (payload byte " +
                    std::to_string(At.PayloadPos) + ")");
  C.skip(static_cast<size_t>(Len));
  PayloadPos = C.Pos;
  RecStart = C.Pos;
  if (Resume) {
    AccumGlobal = Resume->GlobalWords;
    AccumHeap = Resume->HeapWords;
  }
  return Error::success();
}

Expected<LogReader>
LogReader::openAt(const CheckpointInfo &At,
                  const rt::MachineSnapshot *Resume) const {
  LogReader R = fork();
  if (support::Error E = R.positionAfter(At, Resume))
    return E;
  return R;
}

size_t LogReader::validSegmentPrefixEnd() const {
  size_t Off = FileHeaderBytes;
  uint32_t Seq = 0;
  while (Off != DataEnd) {
    if (DataEnd - Off < SegmentHeaderBytes)
      break;
    const uint8_t *H = Data->data() + Off;
    if (support::crc32(H, 28) != readLe32(H + 28))
      break;
    if (std::memcmp(H, SegmentMagic, 4) != 0 || readLe32(H + 4) != Seq)
      break;
    uint8_t Flags = H[8];
    if ((Flags & ~SegFlagKnownMask) != 0 || H[9] != 0 || H[10] != 0 ||
        H[11] != 0)
      break;
    uint32_t RawSize = readLe32(H + 12);
    uint32_t StoredSize = readLe32(H + 16);
    if (RawSize > MaxDecompressedBytes)
      break;
    size_t PayloadOffset = Off + SegmentHeaderBytes;
    if (DataEnd - PayloadOffset < StoredSize)
      break;
    if (support::crc32(Data->data() + PayloadOffset, StoredSize) !=
        readLe32(H + 20))
      break;
    if (!(Flags & SegFlagCompressed) && StoredSize != RawSize)
      break;
    Off = PayloadOffset + StoredSize;
    ++Seq;
  }
  return Off;
}

LogReader::CheckpointChain
LogReader::loadCheckpointChain(const CheckpointPick &Pick) {
  CheckpointChain Chain;
  if (HaveFooter) {
    // Footer fast path: decode only checkpoint-bearing segments, chain
    // the delta accumulators across them, and hold every snapshot to
    // the hash the footer (and the snapshot itself) claims. Any
    // discrepancy discards the footer and rebuilds by scan, so a lying
    // index can never select a checkpoint sequential recovery rejects.
    // Entries past the first damaged segment are dropped up front —
    // their own segments may be pristine, but recovery stops at the
    // damage, so those checkpoints must never be selected.
    bool Ok = true;
    size_t ValidEnd = validSegmentPrefixEnd();
    for (size_t I = 0; I != FooterEntries.size(); ++I) {
      CheckpointInfo CI = infoFromEntry(FooterEntries[I], I);
      if (CI.SegmentOffset >= ValidEnd)
        break;
      Chain.Infos.push_back(CI);
    }
    Chain.Picked = Pick(Chain.Infos);
    size_t NextPick = 0;
    LogReader Scan = fork();
    std::vector<uint64_t> AccumG, AccumH;
    for (const CheckpointInfo &CI : Chain.Infos) {
      Scan.rewind();
      Scan.FileOffset = static_cast<size_t>(CI.SegmentOffset);
      Scan.NextSeq = CI.Seq;
      Expected<bool> Loaded = Scan.loadNextSegment();
      if (!Loaded || !*Loaded) {
        Ok = false;
        break;
      }
      ByteCursor C(Scan.Payload);
      C.Pos = CI.PayloadPos;
      uint8_t Tag = 0;
      uint64_t Len = 0;
      if (CI.PayloadPos >= Scan.Payload.size() || !C.readByte(Tag) ||
          Tag != static_cast<uint8_t>(RecordTag::Checkpoint) ||
          !C.readVarint(Len) || Len > C.remaining()) {
        Ok = false;
        break;
      }
      std::vector<uint8_t> Body(C.Data + C.Pos,
                                C.Data + C.Pos + static_cast<size_t>(Len));
      Expected<rt::MachineSnapshot> Snap =
          decodeCheckpoint(Body, AccumG, AccumH);
      if (!Snap || Snap->StateHash != CI.StateHash ||
          Snap->LogEventsAtCapture != CI.LogEventsAtCapture) {
        Ok = false;
        break;
      }
      if (NextPick != Chain.Picked.size() &&
          Chain.Picked[NextPick] == CI.Index) {
        Chain.Snapshots.push_back(Snap.take());
        ++NextPick;
      }
    }
    if (Ok)
      return Chain;
    invalidateFooter();
    Chain = CheckpointChain();
  }

  Chain.Infos = checkpoints();
  Chain.Picked = Pick(Chain.Infos);
  scanCheckpoints(&Chain.Picked, &Chain.Snapshots);
  return Chain;
}

Expected<rt::MachineSnapshot> LogReader::seekToCheckpoint() {
  CheckpointChain Chain =
      loadCheckpointChain([](const std::vector<CheckpointInfo> &Infos) {
        return Infos.empty() ? std::vector<size_t>()
                             : std::vector<size_t>{Infos.size() - 1};
      });
  if (Chain.Infos.empty()) {
    rewind();
    return Error::failure("log contains no restorable checkpoint");
  }
  rt::MachineSnapshot Snap = std::move(Chain.Snapshots.back());
  if (support::Error E = positionAfter(Chain.Infos.back(), &Snap))
    return E; // Unreachable after a successful chain decode.
  return Snap;
}

//===----------------------------------------------------------------------===//
// Whole-log recovery
//===----------------------------------------------------------------------===//

LogReader::RecoveredLog LogReader::recover() {
  rewind();
  RecoveredLog RL;
  bool SawMeta = false;
  bool SawEndRecord = false;
  uint32_t MaxTidSeen = 0;
  uint32_t CheckpointThreads = 0;
  Record R;

  for (;;) {
    Expected<bool> Got = next(R);
    if (!Got) {
      RL.Failure = Got.error();
      break;
    }
    if (!*Got) {
      if (!SawEndRecord)
        RL.Failure = Error::failure(
            SawMeta ? "log ends without an End record (truncated)"
                    : "log is empty (no Meta record)");
      break;
    }
    ++RL.RecordsRecovered;

    if (!SawMeta && R.Tag != RecordTag::Meta) {
      RL.Failure = Error::failure("first record is not Meta");
      --RL.RecordsRecovered;
      break;
    }
    switch (R.Tag) {
    case RecordTag::Meta: {
      if (SawMeta) {
        RL.Failure = Error::failure("duplicate Meta record");
        --RL.RecordsRecovered;
        break;
      }
      SawMeta = true;
      RL.Log.NumSyncObjects = R.NumSyncObjects;
      RL.Log.NumWeakLocks = R.NumWeakLocks;
      RL.Log.PerObject.resize(RL.Log.numOrderedObjects());
      break;
    }
    case RecordTag::Ordered: {
      if (R.Obj >= RL.Log.PerObject.size()) {
        RL.Failure = Error::failure("ordered object id " +
                                    std::to_string(R.Obj) +
                                    " out of range (log has " +
                                    std::to_string(RL.Log.PerObject.size()) +
                                    " ordered objects)");
        --RL.RecordsRecovered;
        break;
      }
      RL.Log.PerObject[R.Obj].push_back({R.Tid, R.Op});
      MaxTidSeen = std::max(MaxTidSeen, R.Tid);
      break;
    }
    case RecordTag::Input: {
      if (R.Tid >= RL.Log.PerThreadInputs.size())
        RL.Log.PerThreadInputs.resize(R.Tid + 1);
      RL.Log.PerThreadInputs[R.Tid].push_back({R.Kind, R.Value});
      MaxTidSeen = std::max(MaxTidSeen, R.Tid);
      break;
    }
    case RecordTag::Revocation: {
      RL.Log.Revocations.push_back(R.Rev);
      MaxTidSeen = std::max(MaxTidSeen, R.Rev.Tid);
      break;
    }
    case RecordTag::Checkpoint: {
      ++RL.CheckpointsMerged;
      CheckpointThreads =
          std::max(CheckpointThreads,
                   static_cast<uint32_t>(R.Snapshot.Threads.size()));
      RL.LastCheckpoint =
          std::make_unique<rt::MachineSnapshot>(std::move(R.Snapshot));
      break;
    }
    case RecordTag::End: {
      SawEndRecord = true;
      if (RL.Log.totalOrderedEvents() != R.TotalOrdered ||
          RL.Log.totalInputEvents() != R.TotalInputs) {
        RL.Failure = Error::failure(
            "End-record totals disagree with recovered events (ordered " +
            std::to_string(RL.Log.totalOrderedEvents()) + " vs declared " +
            std::to_string(R.TotalOrdered) + ", inputs " +
            std::to_string(RL.Log.totalInputEvents()) + " vs declared " +
            std::to_string(R.TotalInputs) + ")");
        break;
      }
      RL.Log.NumThreads = R.NumThreads;
      if (RL.Log.PerThreadInputs.size() < R.NumThreads)
        RL.Log.PerThreadInputs.resize(R.NumThreads);
      RL.Complete = true;
      break;
    }
    }
    if (RL.Failure)
      break;
    if (SawEndRecord)
      break; // Trailing data would be flagged by a further next().
  }

  if (!RL.Complete) {
    // Best-effort thread count so a recovered prefix is still replayable.
    uint32_t Threads = SawMeta && RL.RecordsRecovered > 0 ? MaxTidSeen + 1 : 0;
    Threads = std::max(
        {Threads, static_cast<uint32_t>(RL.Log.PerThreadInputs.size()),
         CheckpointThreads});
    RL.Log.NumThreads = Threads;
    RL.Log.PerThreadInputs.resize(Threads);
  }
  RL.SegmentsRead = SegmentsLoaded;

  if (Opts.Metrics) {
    obs::Scope S(Opts.Metrics, "replay.recover");
    S.gauge("segments_read").set(static_cast<int64_t>(RL.SegmentsRead));
    S.gauge("records_recovered")
        .set(static_cast<int64_t>(RL.RecordsRecovered));
    S.gauge("checkpoints_merged")
        .set(static_cast<int64_t>(RL.CheckpointsMerged));
    S.gauge("recovered").set(RL.Complete ? 1 : 0);
  }
  return RL;
}
