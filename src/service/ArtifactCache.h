//===- service/ArtifactCache.h - Persistent analysis artifacts --*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent, process-shared cache of analysis artifacts — the
/// (certified) instrumentation plans, keyed by content hash and stored
/// in the byte-exact `CART1` on-disk format
/// (docs/CACHE_FORMAT.md — same conventions as the segmented log:
/// little-endian scalars, CRC-protected framing, typed errors naming
/// the damaged entry and offset).
///
/// The cache is the service layer's amortization vehicle: a pipeline
/// whose `PipelineConfig::Artifacts` points here skips the planner,
/// the profile runs, and the whole lock-order certification loop on a
/// plan hit — across *processes*, not just within one. RELAY is not
/// cached: its dataflow costs less than hashing a key for it. Every
/// stored value is a pure function of its key, every entry is
/// CRC-validated on load and decode-validated before use, and plans
/// additionally re-check their stamped fingerprint, so a hit is
/// byte-identical to recomputation and damage only ever costs a
/// recompute — never a wrong artifact (test-pinned by the corruption
/// fault matrix in tests/service_test.cpp).
///
/// Thread safety: all members are safe to call concurrently; sessions
/// running on the service pool share one instance.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_SERVICE_ARTIFACTCACHE_H
#define CHIMERA_SERVICE_ARTIFACTCACHE_H

#include "instrument/Plan.h"
#include "replay/LogFormat.h"
#include "support/Expected.h"
#include "support/Metrics.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace chimera {
namespace service {

/// What an entry's payload encodes. Values are stable on-disk numbers.
enum class ArtifactKind : uint16_t {
  Plan = 2, ///< instrument::InstrumentationPlan (with certificate).
};

/// Kind 1 held RELAY function summaries. Images written before they
/// were retired still carry such entries: load validates their CRCs,
/// then skips them (counted in "load_dropped"); nothing writes them.
inline constexpr uint16_t RetiredSummaryKind = 1;

// -- CART1 format constants (docs/CACHE_FORMAT.md) -------------------------

inline constexpr char CacheMagic[4] = {'C', 'A', 'R', 'T'};
inline constexpr char EntryMagic[4] = {'A', 'R', 'T', 'F'};
inline constexpr uint16_t CacheFormatVersion = 1;
inline constexpr size_t CacheHeaderBytes = 16;
inline constexpr size_t EntryHeaderBytes = 32;
/// Per-entry payload cap, validated before any allocation.
inline constexpr uint64_t MaxArtifactPayloadBytes = 256ull * 1024 * 1024;

// -- Artifact codecs --------------------------------------------------------
//
// Byte-exact, canonical encodings (varints + raw LE64, specified in
// docs/CACHE_FORMAT.md). Encoding is a deterministic function of the
// value and decode(encode(x)) == x, so re-encoding a decoded artifact
// reproduces the stored bytes — the invariant the cold-vs-warm tests
// pin. Decoders read through a bounds-checked cursor and return false
// on any structural problem; callers treat that as a miss.

void encodePlan(const instrument::InstrumentationPlan &P,
                std::vector<uint8_t> &Out);
bool decodePlan(replay::ByteCursor &C, instrument::InstrumentationPlan &Out);

/// A persistent artifact store: an in-memory (kind, key) -> bytes map
/// with a byte-exact serialized form. Typical service lifecycle:
/// `loadFile` at startup (warm start), `lookup`/`insert` from concurrent
/// sessions, `saveFile` at shutdown.
class ArtifactCache {
public:
  ArtifactCache() = default;

  /// Copies the payload bytes for (\p Kind, \p Key) into \p Out.
  /// Returns false (and counts a miss) when absent.
  bool lookup(ArtifactKind Kind, uint64_t Key,
              std::vector<uint8_t> &Out) const;

  /// Stores \p Bytes under (\p Kind, \p Key). First writer wins: an
  /// existing entry is never overwritten (values are pure functions of
  /// the key, so a second writer's bytes are identical anyway).
  void insert(ArtifactKind Kind, uint64_t Key, std::vector<uint8_t> Bytes);

  size_t entryCount() const;

  /// The complete cache in CART1 bytes: file header, then entries
  /// sorted by (kind, key) — deterministic for a given content.
  std::vector<uint8_t> serialize() const;

  /// Merges the entries of a CART1 image into this cache (existing keys
  /// win; kind-1 entries are skipped). Returns the number of entries
  /// loaded. Damage yields a typed error naming the entry index and
  /// byte offset; every entry before the damage is retained
  /// (longest-valid-prefix, like log recovery). A failed or partial load
  /// never surfaces a damaged artifact — CRC validation precedes every
  /// insertion — so the only cost is recomputation.
  support::Expected<uint64_t> loadBytes(const std::vector<uint8_t> &Bytes);

  /// loadBytes over a file. A missing file is an empty cache (returns
  /// 0), not an error — cold starts are the common case.
  support::Expected<uint64_t> loadFile(const std::string &Path);

  /// Writes serialize() to \p Path atomically enough for the bench/CLI
  /// (temp file + rename).
  support::Error saveFile(const std::string &Path) const;

  /// Publishes cache counters as gauges under \p Scope ("entries",
  /// "hits", "misses", "inserts", "loaded", "load_dropped").
  void publishTo(const obs::Scope &Scope) const;

private:
  using EntryKey = std::pair<uint16_t, uint64_t>;
  mutable std::mutex Mu;
  std::map<EntryKey, std::vector<uint8_t>> Entries;
  mutable uint64_t Hits = 0;
  mutable uint64_t Misses = 0;
  uint64_t Inserts = 0;
  uint64_t Loaded = 0;      ///< Entries accepted by load*.
  uint64_t LoadDropped = 0; ///< Entries skipped by load* (dup/damage/kind 1).
};

} // namespace service
} // namespace chimera

#endif // CHIMERA_SERVICE_ARTIFACTCACHE_H
