//===- service/ArtifactCache.cpp - Persistent analysis artifacts -----------===//

#include "service/ArtifactCache.h"

#include "instrument/LockOrderAuditor.h"
#include "support/Compressor.h"
#include "support/Crc32.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace chimera;
using namespace chimera::service;
using replay::ByteCursor;

//===----------------------------------------------------------------------===//
// Scalar helpers
//===----------------------------------------------------------------------===//

namespace {

void appendZigzag(std::vector<uint8_t> &Out, int64_t V) {
  appendVarint(Out, (static_cast<uint64_t>(V) << 1) ^
                        static_cast<uint64_t>(V >> 63));
}

bool readZigzag(ByteCursor &C, int64_t &Out) {
  uint64_t Z;
  if (!C.readVarint(Z))
    return false;
  Out = static_cast<int64_t>((Z >> 1) ^ (~(Z & 1) + 1));
  return true;
}

void appendString(std::vector<uint8_t> &Out, const std::string &S) {
  appendVarint(Out, S.size());
  Out.insert(Out.end(), S.begin(), S.end());
}

bool readString(ByteCursor &C, std::string &Out) {
  uint64_t Len;
  if (!C.readVarint(Len) || Len > C.remaining())
    return false;
  Out.assign(reinterpret_cast<const char *>(C.Data + C.Pos),
             static_cast<size_t>(Len));
  C.Pos += static_cast<size_t>(Len);
  return true;
}

void appendU32s(std::vector<uint8_t> &Out, const std::vector<uint32_t> &Vs) {
  appendVarint(Out, Vs.size());
  for (uint32_t V : Vs)
    appendVarint(Out, V);
}

bool readU32s(ByteCursor &C, std::vector<uint32_t> &Out) {
  uint64_t N;
  // A varint is at least one byte, so a count the remaining bytes
  // cannot back is structurally invalid — checked before the reserve.
  if (!C.readVarint(N) || N > C.remaining())
    return false;
  Out.clear();
  Out.reserve(static_cast<size_t>(N));
  for (uint64_t I = 0; I != N; ++I) {
    uint32_t V;
    if (!C.readVarint32(V))
      return false;
    Out.push_back(V);
  }
  return true;
}

void appendAffine(std::vector<uint8_t> &Out, const bounds::AffineExpr &E) {
  Out.push_back(E.valid() ? 1 : 0);
  if (!E.valid())
    return;
  appendZigzag(Out, E.constantValue());
  appendVarint(Out, E.coeffs().size());
  for (const auto &[R, Coeff] : E.coeffs()) {
    appendVarint(Out, R);
    appendZigzag(Out, Coeff);
  }
}

bool readAffine(ByteCursor &C, bounds::AffineExpr &Out) {
  uint8_t Valid;
  if (!C.readByte(Valid) || Valid > 1)
    return false;
  if (!Valid) {
    Out = bounds::AffineExpr::invalid();
    return true;
  }
  int64_t Const;
  uint64_t N;
  if (!readZigzag(C, Const) || !C.readVarint(N) || N > C.remaining())
    return false;
  bounds::AffineExpr E = bounds::AffineExpr::constant(Const);
  for (uint64_t I = 0; I != N; ++I) {
    uint32_t R;
    int64_t Coeff;
    if (!C.readVarint32(R) || !readZigzag(C, Coeff))
      return false;
    E = E.add(bounds::AffineExpr::reg(R).mulConst(Coeff));
  }
  Out = E;
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Plan codec
//===----------------------------------------------------------------------===//

namespace {
/// Bumped whenever the plan payload layout changes, so a cache written
/// by an older build decodes as a miss instead of garbage.
constexpr uint8_t PlanPayloadVersion = 1;
} // namespace

void service::encodePlan(const instrument::InstrumentationPlan &P,
                         std::vector<uint8_t> &Out) {
  Out.push_back(PlanPayloadVersion);
  appendVarint(Out, P.Locks.size());
  for (const ir::WeakLockMeta &L : P.Locks) {
    Out.push_back(static_cast<uint8_t>(L.Granularity));
    Out.push_back(L.HasRange ? 1 : 0);
    appendString(Out, L.Name);
  }
  appendVarint(Out, P.Functions.size());
  for (const auto &[FuncId, FP] : P.Functions) {
    appendVarint(Out, FuncId);
    appendU32s(Out, FP.EntryLocks);
    appendVarint(Out, FP.Loops.size());
    for (const instrument::LoopGuard &G : FP.Loops) {
      appendVarint(Out, G.LockId);
      appendVarint(Out, G.Header);
      appendVarint(Out, G.Preheader);
      appendU32s(Out, G.LoopBlocks);
      Out.push_back(G.HasRange ? 1 : 0);
      appendVarint(Out, G.LoList.size());
      for (const bounds::AffineExpr &E : G.LoList)
        appendAffine(Out, E);
      appendVarint(Out, G.HiList.size());
      for (const bounds::AffineExpr &E : G.HiList)
        appendAffine(Out, E);
    }
    appendVarint(Out, FP.Blocks.size());
    for (const instrument::BlockGuard &G : FP.Blocks) {
      appendVarint(Out, G.LockId);
      appendVarint(Out, G.Block);
    }
    appendVarint(Out, FP.Instrs.size());
    for (const instrument::InstrGuard &G : FP.Instrs) {
      appendVarint(Out, G.LockId);
      appendVarint(Out, G.Ident);
    }
  }
  const instrument::LockOrderCertificate &Cert = P.Certificate;
  Out.push_back(Cert.Present ? 1 : 0);
  Out.push_back(Cert.Acyclic ? 1 : 0);
  replay::appendLe64(Out, Cert.PlanFingerprint);
  appendVarint(Out, Cert.Edges);
  appendVarint(Out, Cert.CyclesFound);
  appendVarint(Out, Cert.CoalescedLocks);
  appendVarint(Out, Cert.RepairRounds);
  appendVarint(Out, P.PairsTotal);
  appendVarint(Out, P.PairsFunctionCovered);
  appendVarint(Out, P.SidesLoopRanged);
  appendVarint(Out, P.SidesLoopUnranged);
  appendVarint(Out, P.SidesBasicBlock);
  appendVarint(Out, P.SidesInstr);
}

bool service::decodePlan(ByteCursor &C, instrument::InstrumentationPlan &Out) {
  Out = instrument::InstrumentationPlan();
  uint8_t Version;
  if (!C.readByte(Version) || Version != PlanPayloadVersion)
    return false;
  uint64_t NLocks;
  if (!C.readVarint(NLocks) || NLocks > C.remaining())
    return false;
  Out.Locks.reserve(static_cast<size_t>(NLocks));
  for (uint64_t I = 0; I != NLocks; ++I) {
    ir::WeakLockMeta L;
    uint8_t Gran, HasRange;
    if (!C.readByte(Gran) ||
        Gran > static_cast<uint8_t>(ir::WeakLockGranularity::Instr) ||
        !C.readByte(HasRange) || HasRange > 1 || !readString(C, L.Name))
      return false;
    L.Granularity = static_cast<ir::WeakLockGranularity>(Gran);
    L.HasRange = HasRange != 0;
    Out.Locks.push_back(std::move(L));
  }
  uint64_t NFuncs;
  if (!C.readVarint(NFuncs) || NFuncs > C.remaining())
    return false;
  uint32_t PrevFunc = 0;
  for (uint64_t F = 0; F != NFuncs; ++F) {
    uint32_t FuncId;
    if (!C.readVarint32(FuncId))
      return false;
    // Canonical form: std::map iteration wrote ids strictly ascending.
    if (F != 0 && FuncId <= PrevFunc)
      return false;
    PrevFunc = FuncId;
    instrument::FunctionPlan FP;
    uint64_t NLoops;
    if (!readU32s(C, FP.EntryLocks) || !C.readVarint(NLoops) ||
        NLoops > C.remaining())
      return false;
    FP.Loops.reserve(static_cast<size_t>(NLoops));
    for (uint64_t I = 0; I != NLoops; ++I) {
      instrument::LoopGuard G;
      uint8_t HasRange;
      uint64_t NLo, NHi;
      if (!C.readVarint32(G.LockId) || !C.readVarint32(G.Header) ||
          !C.readVarint32(G.Preheader) || !readU32s(C, G.LoopBlocks) ||
          !C.readByte(HasRange) || HasRange > 1)
        return false;
      G.HasRange = HasRange != 0;
      if (!C.readVarint(NLo) || NLo > C.remaining())
        return false;
      G.LoList.resize(static_cast<size_t>(NLo));
      for (uint64_t J = 0; J != NLo; ++J)
        if (!readAffine(C, G.LoList[J]))
          return false;
      if (!C.readVarint(NHi) || NHi > C.remaining())
        return false;
      G.HiList.resize(static_cast<size_t>(NHi));
      for (uint64_t J = 0; J != NHi; ++J)
        if (!readAffine(C, G.HiList[J]))
          return false;
      FP.Loops.push_back(std::move(G));
    }
    uint64_t NBlocks;
    if (!C.readVarint(NBlocks) || NBlocks > C.remaining())
      return false;
    FP.Blocks.reserve(static_cast<size_t>(NBlocks));
    for (uint64_t I = 0; I != NBlocks; ++I) {
      instrument::BlockGuard G;
      if (!C.readVarint32(G.LockId) || !C.readVarint32(G.Block))
        return false;
      FP.Blocks.push_back(G);
    }
    uint64_t NInstrs;
    if (!C.readVarint(NInstrs) || NInstrs > C.remaining())
      return false;
    FP.Instrs.reserve(static_cast<size_t>(NInstrs));
    for (uint64_t I = 0; I != NInstrs; ++I) {
      instrument::InstrGuard G;
      if (!C.readVarint32(G.LockId) || !C.readVarint32(G.Ident))
        return false;
      FP.Instrs.push_back(G);
    }
    Out.Functions.emplace(FuncId, std::move(FP));
  }
  uint8_t Present, Acyclic;
  if (!C.readByte(Present) || Present > 1 || !C.readByte(Acyclic) ||
      Acyclic > 1 ||
      !C.readLe64At(Out.Certificate.PlanFingerprint) ||
      !C.readVarint(Out.Certificate.Edges) ||
      !C.readVarint(Out.Certificate.CyclesFound) ||
      !C.readVarint(Out.Certificate.CoalescedLocks) ||
      !C.readVarint(Out.Certificate.RepairRounds) ||
      !C.readVarint(Out.PairsTotal) ||
      !C.readVarint(Out.PairsFunctionCovered) ||
      !C.readVarint(Out.SidesLoopRanged) ||
      !C.readVarint(Out.SidesLoopUnranged) ||
      !C.readVarint(Out.SidesBasicBlock) || !C.readVarint(Out.SidesInstr))
    return false;
  Out.Certificate.Present = Present != 0;
  Out.Certificate.Acyclic = Acyclic != 0;
  // A certified plan binds its certificate to the exact plan content;
  // re-derive the fingerprint so a decoded plan can never carry a
  // certificate for different bytes than it decodes to.
  if (Out.Certificate.Present &&
      instrument::planFingerprint(Out) != Out.Certificate.PlanFingerprint)
    return false;
  return true;
}

//===----------------------------------------------------------------------===//
// Cache proper
//===----------------------------------------------------------------------===//

bool ArtifactCache::lookup(ArtifactKind Kind, uint64_t Key,
                           std::vector<uint8_t> &Out) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Entries.find({static_cast<uint16_t>(Kind), Key});
  if (It == Entries.end()) {
    ++Misses;
    return false;
  }
  ++Hits;
  Out = It->second;
  return true;
}

void ArtifactCache::insert(ArtifactKind Kind, uint64_t Key,
                           std::vector<uint8_t> Bytes) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Entries.emplace(EntryKey{static_cast<uint16_t>(Kind), Key},
                      std::move(Bytes))
          .second)
    ++Inserts;
}

void ArtifactCache::forEach(
    ArtifactKind Kind,
    const std::function<void(uint64_t, const std::vector<uint8_t> &)> &Fn)
    const {
  std::lock_guard<std::mutex> Lock(Mu);
  for (auto It = Entries.lower_bound({static_cast<uint16_t>(Kind), 0});
       It != Entries.end() && It->first.first == static_cast<uint16_t>(Kind);
       ++It)
    Fn(It->first.second, It->second);
}

size_t ArtifactCache::entryCount() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Entries.size();
}

std::vector<uint8_t> ArtifactCache::serialize() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<uint8_t> Out;
  Out.insert(Out.end(), CacheMagic, CacheMagic + 4);
  replay::appendLe16(Out, CacheFormatVersion);
  replay::appendLe16(Out, 0); // Flags, reserved.
  replay::appendLe64(Out, 0); // Reserved.
  // std::map order — (kind, key) ascending — makes the image a pure
  // function of the cache contents.
  for (const auto &[Key, Payload] : Entries) {
    size_t Start = Out.size();
    Out.insert(Out.end(), EntryMagic, EntryMagic + 4);
    replay::appendLe16(Out, Key.first);
    replay::appendLe16(Out, 0); // Entry flags, reserved.
    replay::appendLe64(Out, Key.second);
    replay::appendLe32(Out, static_cast<uint32_t>(Payload.size()));
    replay::appendLe32(Out, support::crc32(Payload.data(), Payload.size()));
    replay::appendLe32(Out, 0); // Reserved.
    uint32_t HeaderCrc = support::crc32(Out.data() + Start, Out.size() - Start);
    replay::appendLe32(Out, HeaderCrc);
    Out.insert(Out.end(), Payload.begin(), Payload.end());
  }
  return Out;
}

namespace {
support::Error entryError(uint64_t Index, size_t Offset,
                          const std::string &What) {
  return support::Error::failure("artifact cache entry " +
                                 std::to_string(Index) + " at offset " +
                                 std::to_string(Offset) + ": " + What);
}
} // namespace

support::Expected<uint64_t>
ArtifactCache::loadBytes(const std::vector<uint8_t> &Bytes) {
  if (Bytes.size() < CacheHeaderBytes)
    return support::Error::failure(
        "artifact cache: file shorter than the 16-byte CART1 header");
  if (std::memcmp(Bytes.data(), CacheMagic, 4) != 0)
    return support::Error::failure(
        "artifact cache: bad magic (not a CART1 file)");
  if (replay::readLe16(Bytes.data() + 4) != CacheFormatVersion)
    return support::Error::failure(
        "artifact cache: unsupported version " +
        std::to_string(replay::readLe16(Bytes.data() + 4)));
  if (replay::readLe16(Bytes.data() + 6) != 0)
    return support::Error::failure(
        "artifact cache: reserved header flags are nonzero");
  if (replay::readLe64(Bytes.data() + 8) != 0)
    return support::Error::failure(
        "artifact cache: reserved header bytes are nonzero");

  uint64_t Accepted = 0, Index = 0;
  size_t Pos = CacheHeaderBytes;
  while (Pos < Bytes.size()) {
    size_t EntryStart = Pos;
    if (Bytes.size() - Pos < EntryHeaderBytes) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++LoadDropped;
      return entryError(Index, EntryStart, "truncated entry header");
    }
    const uint8_t *H = Bytes.data() + Pos;
    // Header CRC first, so any header bit-flip is one uniform error.
    uint32_t HeaderCrc = replay::readLe32(H + 28);
    if (support::crc32(H, EntryHeaderBytes - 4) != HeaderCrc) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++LoadDropped;
      return entryError(Index, EntryStart, "entry header CRC mismatch");
    }
    if (std::memcmp(H, EntryMagic, 4) != 0) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++LoadDropped;
      return entryError(Index, EntryStart, "bad entry magic");
    }
    uint16_t Kind = replay::readLe16(H + 4);
    if (Kind != RetiredSummaryKind &&
        Kind != static_cast<uint16_t>(ArtifactKind::Plan)) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++LoadDropped;
      return entryError(Index, EntryStart,
                        "unknown artifact kind " + std::to_string(Kind));
    }
    if (replay::readLe16(H + 6) != 0 || replay::readLe32(H + 24) != 0) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++LoadDropped;
      return entryError(Index, EntryStart,
                        "reserved entry fields are nonzero");
    }
    uint64_t Key = replay::readLe64(H + 8);
    uint32_t Size = replay::readLe32(H + 16);
    uint32_t PayloadCrc = replay::readLe32(H + 20);
    if (Size > MaxArtifactPayloadBytes) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++LoadDropped;
      return entryError(Index, EntryStart,
                        "payload size " + std::to_string(Size) +
                            " exceeds the per-entry cap");
    }
    Pos += EntryHeaderBytes;
    if (Bytes.size() - Pos < Size) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++LoadDropped;
      return entryError(Index, EntryStart, "truncated entry payload");
    }
    const uint8_t *Payload = Bytes.data() + Pos;
    if (support::crc32(Payload, Size) != PayloadCrc) {
      std::lock_guard<std::mutex> Lock(Mu);
      ++LoadDropped;
      return entryError(Index, EntryStart, "entry payload CRC mismatch");
    }
    Pos += Size;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (Kind == RetiredSummaryKind) {
        ++LoadDropped; // Validated, then skipped: never written any more.
      } else if (Entries
              .emplace(EntryKey{Kind, Key},
                       std::vector<uint8_t>(Payload, Payload + Size))
              .second) {
        ++Accepted;
        ++Loaded;
      } else {
        ++LoadDropped; // Existing key wins; identical bytes anyway.
      }
    }
    ++Index;
  }
  return Accepted;
}

support::Expected<uint64_t> ArtifactCache::loadFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return static_cast<uint64_t>(0); // Cold start: no cache yet.
  std::vector<uint8_t> Bytes((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
  auto Result = loadBytes(Bytes);
  if (!Result)
    return Result.error().context("loading " + Path);
  return Result;
}

support::Error ArtifactCache::saveFile(const std::string &Path) const {
  std::vector<uint8_t> Bytes = serialize();
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return support::Error::failure("cannot open " + Tmp + " for writing");
    Out.write(reinterpret_cast<const char *>(Bytes.data()),
              static_cast<std::streamsize>(Bytes.size()));
    if (!Out)
      return support::Error::failure("short write to " + Tmp);
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0)
    return support::Error::failure("cannot rename " + Tmp + " to " + Path);
  return support::Error::success();
}

void ArtifactCache::publishTo(const obs::Scope &Scope) const {
  if (!Scope)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Scope.gauge("entries").set(static_cast<int64_t>(Entries.size()));
  Scope.gauge("hits").set(static_cast<int64_t>(Hits));
  Scope.gauge("misses").set(static_cast<int64_t>(Misses));
  Scope.gauge("inserts").set(static_cast<int64_t>(Inserts));
  Scope.gauge("loaded").set(static_cast<int64_t>(Loaded));
  Scope.gauge("load_dropped").set(static_cast<int64_t>(LoadDropped));
}
