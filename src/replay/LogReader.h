//===- replay/LogReader.h - Streaming segmented-log reader ------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The replay-side storage engine: streams records out of a segmented
/// log file (LogFormat.h, docs/LOG_FORMAT.md) one at a time, validating
/// as it goes — segment header CRC, payload CRC, sequence continuity,
/// decompressed size, record framing — so corruption is reported as a
/// typed error naming the segment and offset instead of crashing or
/// silently diverging.
///
/// Four access patterns:
///  - next(): pull records in stream order (the core API);
///  - seekToCheckpoint(): position the stream just after the last
///    restorable checkpoint and return its snapshot, for resumed replay;
///  - recover(): drain the whole stream into an rt::ExecutionLog,
///    keeping everything up to the first corruption (graceful
///    degradation for truncated / damaged files);
///  - checkpoints() / openAt(): random access — enumerate every
///    checkpoint (O(1) when the file carries a CIDX footer, one cached
///    scan otherwise) and fork an independent cursor positioned right
///    after any of them. Forked cursors share the file bytes read-only,
///    so epoch-parallel replay streams every epoch concurrently.
///
/// The CIDX footer is advisory: absent or corrupt, every query falls
/// back to the linear scan and never fails because of the footer.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_REPLAY_LOGREADER_H
#define CHIMERA_REPLAY_LOGREADER_H

#include "replay/LogFormat.h"
#include "runtime/ExecutionLog.h"
#include "runtime/Snapshot.h"
#include "support/Expected.h"
#include "support/Metrics.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace chimera {
namespace replay {

class LogReader {
public:
  struct Options {
    /// When CheckFingerprint is set, open() fails unless the file header
    /// fingerprint equals ExpectedFingerprint — a log recorded against
    /// one build of a program cannot be replayed against another.
    uint64_t ExpectedFingerprint = 0;
    bool CheckFingerprint = false;

    obs::Registry *Metrics = nullptr;
  };

  /// One decoded record. Tag says which fields are meaningful.
  struct Record {
    RecordTag Tag = RecordTag::Meta;

    // Meta.
    uint32_t NumSyncObjects = 0;
    uint32_t NumWeakLocks = 0;

    // Ordered.
    uint32_t Obj = 0;
    uint32_t Tid = 0; ///< Also Input.
    rt::OrderedOp Op = rt::OrderedOp::MutexLock;

    // Input.
    rt::InputKind Kind = rt::InputKind::Input;
    uint64_t Value = 0;

    // Revocation.
    rt::RevocationEvent Rev;

    // Checkpoint.
    rt::MachineSnapshot Snapshot;

    // End.
    uint32_t NumThreads = 0;
    uint64_t TotalOrdered = 0;
    uint64_t TotalInputs = 0;
  };

  /// Location and identity of one checkpoint record, for random access
  /// (openAt). Comes from the CIDX footer when the file has one, from a
  /// cached linear scan otherwise.
  struct CheckpointInfo {
    size_t Index = 0;           ///< Position in checkpoints() order.
    uint64_t SegmentOffset = 0; ///< File offset of the owning segment.
    uint32_t Seq = 0;           ///< That segment's sequence number.
    uint32_t PayloadPos = 0;    ///< Record tag byte within the payload.
    uint64_t StateHash = 0;     ///< Snapshot's end-to-end state hash.
    uint64_t LogEventsAtCapture = 0;
  };

  /// Chooses, from the validated checkpoint list, the strictly
  /// increasing indices whose snapshots a caller needs.
  using CheckpointPick =
      std::function<std::vector<size_t>(const std::vector<CheckpointInfo> &)>;

  /// Every checkpoint in stream order, with the decoded snapshots of the
  /// picked ones (Snapshots[I] belongs to Infos[Picked[I]]).
  struct CheckpointChain {
    std::vector<CheckpointInfo> Infos;
    std::vector<size_t> Picked;
    std::vector<rt::MachineSnapshot> Snapshots;
  };

  /// recover() result: the rebuilt log, how far recovery got, and — when
  /// the stream was damaged — the typed error that stopped it.
  struct RecoveredLog {
    rt::ExecutionLog Log;
    /// True when the stream ended with a valid End record whose totals
    /// match; only then is the log certified byte-complete.
    bool Complete = false;
    /// The error that ended recovery early (empty when Complete).
    support::Error Failure;
    /// Last checkpoint seen before the stream ended, if any.
    std::unique_ptr<rt::MachineSnapshot> LastCheckpoint;
    uint64_t SegmentsRead = 0;
    uint64_t RecordsRecovered = 0;
    uint64_t CheckpointsMerged = 0;
  };

  /// Validates the 16-byte file header and constructs a reader over
  /// \p Bytes. A non-"CLG1" magic is an error (callers use it to fall
  /// back to the legacy monolithic format).
  static support::Expected<LogReader> open(std::vector<uint8_t> Bytes,
                                           Options Opts);

  LogReader(LogReader &&) = default;
  LogReader &operator=(LogReader &&) = default;
  LogReader(const LogReader &) = delete;
  LogReader &operator=(const LogReader &) = delete;

  /// Decodes the next record into \p Out. Returns false at clean end of
  /// stream, true on a record, or a typed error naming the segment and
  /// offset of the first corruption. Errors are sticky: the stream does
  /// not advance past them.
  support::Expected<bool> next(Record &Out);

  /// Rewinds to the first record (just after the file header).
  void rewind();

  /// Positions the stream just after the last restorable checkpoint and
  /// returns its snapshot. Uses the CIDX footer when present (decoding
  /// only checkpoint-bearing segments), the cached checkpoint scan
  /// otherwise. Damage after the checkpoint does not matter here; damage
  /// the restore chain depends on bounds which checkpoints are
  /// restorable. Fails when no checkpoint is restorable.
  support::Expected<rt::MachineSnapshot> seekToCheckpoint();

  /// Enumerates the log's checkpoints without moving this cursor: O(1)
  /// from the CIDX footer when the file has a valid one, otherwise one
  /// linear scan whose result is cached for the reader's lifetime (the
  /// bytes are immutable). On a damaged footer-less log the list stops
  /// at the first corruption — exactly the checkpoints recover() would
  /// reach.
  const std::vector<CheckpointInfo> &checkpoints();

  /// checkpoints() validated end to end (delta chain, per-snapshot state
  /// hash), plus the decoded snapshots of the entries \p Pick selects
  /// from that list. Every delta is decoded in order, but only picked
  /// snapshots are kept, so memory grows with the picks, not with the
  /// log's checkpoint count. When the footer path fails validation
  /// anywhere, the footer is discarded and the chain is rebuilt by
  /// linear scan (a second scan keeps the picks), so the result is
  /// always self-consistent with what sequential recovery would accept.
  CheckpointChain loadCheckpointChain(const CheckpointPick &Pick);

  /// Forks an independent cursor positioned on the first record after
  /// checkpoint \p At. The fork shares this reader's (immutable) bytes,
  /// so concurrent forks may stream from different threads. \p Resume,
  /// when given, must be \p At's decoded snapshot; it seeds the delta
  /// accumulators so the fork can decode later checkpoint records.
  support::Expected<LogReader>
  openAt(const CheckpointInfo &At,
         const rt::MachineSnapshot *Resume = nullptr) const;

  /// True when the file carried a structurally valid CIDX footer.
  bool hasCheckpointIndex() const { return HaveFooter; }

  /// Drains the stream from the start into an ExecutionLog, keeping the
  /// longest valid prefix. Never fails: corruption is reported in
  /// RecoveredLog::Failure with everything before it preserved.
  /// Publishes replay.recover.* metrics when a registry is attached.
  RecoveredLog recover();

  uint64_t fingerprint() const { return Fingerprint; }
  /// True once next() has returned the End record.
  bool sawEnd() const { return SawEnd; }

private:
  explicit LogReader(std::shared_ptr<const std::vector<uint8_t>> Data,
                     Options Opts)
      : Data(std::move(Data)), Opts(Opts) {}

  /// A fresh cursor over the same bytes (shared, read-only): footer
  /// knowledge is copied, streaming state starts rewound.
  LogReader fork() const;

  /// Loads and validates the segment at FileOffset into Payload.
  /// Returns false at clean end of file (DataEnd).
  support::Expected<bool> loadNextSegment();
  support::Error segError(const std::string &What) const;

  /// Repositions *this* cursor on the first record after \p At, seeding
  /// the delta accumulators from \p Resume when given.
  support::Error positionAfter(const CheckpointInfo &At,
                               const rt::MachineSnapshot *Resume);
  /// Linear checkpoint scan on a fork (this cursor does not move). With
  /// \p Keep (strictly increasing indices), appends those checkpoints'
  /// decoded snapshots to \p Snaps and stops after the last of them.
  std::vector<CheckpointInfo>
  scanCheckpoints(const std::vector<size_t> *Keep = nullptr,
                  std::vector<rt::MachineSnapshot> *Snaps = nullptr) const;
  /// File offset one past the last segment passing every framing + CRC
  /// check — the horizon sequential recovery cannot read beyond. CRC
  /// only, no decompression: failures past an intact CRC would need a
  /// collision.
  size_t validSegmentPrefixEnd() const;
  /// Drops a footer that failed downstream validation; later queries use
  /// the linear scan.
  void invalidateFooter();

  std::shared_ptr<const std::vector<uint8_t>> Data;
  Options Opts;
  uint64_t Fingerprint = 0;

  /// One past the last segment byte: file size, or the CIDX footer start
  /// when the file carries one. Bytes past DataEnd are never segment
  /// data, so the footer reads as clean end-of-stream.
  size_t DataEnd = 0;
  bool HaveFooter = false;
  std::vector<CidxEntry> FooterEntries;
  bool InfosValid = false; ///< CachedInfos populated.
  std::vector<CheckpointInfo> CachedInfos;

  size_t FileOffset = FileHeaderBytes; ///< Next segment header.
  uint32_t NextSeq = 0;
  bool SawEnd = false;
  uint64_t SegmentsLoaded = 0; ///< Since the last rewind.

  std::vector<uint8_t> Payload; ///< Decompressed current segment.
  size_t PayloadPos = 0;
  size_t RecStart = 0;          ///< Payload offset of next()'s last record.
  uint32_t CurSeq = 0;          ///< Seq of the loaded segment.
  size_t CurSegmentOffset = 0;  ///< File offset of its header.
  bool HaveSegment = false;

  /// Checkpoint delta-page accumulators (Checkpoint.h contract).
  std::vector<uint64_t> AccumGlobal, AccumHeap;
};

} // namespace replay
} // namespace chimera

#endif // CHIMERA_REPLAY_LOGREADER_H
