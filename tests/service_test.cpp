//===- tests/service_test.cpp - Service layer: cache + sessions ------------===//
//
// Pins the service-layer contract (ISSUE 9):
//
//  * CART1 round trips byte-identically, and a warm start from a
//    persisted image yields plans byte-identical to recomputation.
//  * The corruption fault matrix: flipping any single bit or truncating
//    the image at any length yields a typed error and/or a clean prefix
//    — a damaged artifact is never surfaced, only recomputed.
//  * SessionManager: K concurrent sessions of one request are
//    bit-identical; a failing session leaves siblings untouched;
//    cancellation and deadlines land at stage boundaries; admission is
//    bounded; drain/shutdown is graceful.
//  * Request-API equivalences: explicit-vs-implied profile source,
//    Tag threading through error contexts.
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "replay/LogCodec.h"
#include "service/ArtifactCache.h"
#include "service/SessionManager.h"
#include "support/Crc32.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace chimera;
using namespace chimera::service;

namespace {

const char *Src =
    "int c;\nint a[32];\nint tids[2];\n"
    "void w(int* base, int n) { int i; for (i = 0; i < n; i++) { "
    "base[i] = i; c = c + 1; } }\n"
    "int main() { tids[0] = spawn(w, &a[0], 16); "
    "tids[1] = spawn(w, &a[16], 16); join(tids[0]); join(tids[1]); "
    "output(c); return 0; }";

core::PipelineConfig config() {
  core::PipelineConfig C;
  C.Name = "svc";
  C.ProfileRuns = 4;
  return C;
}

core::PipelineRequest request(std::string Tag, const char *Source = Src) {
  core::PipelineRequest R;
  R.Eval = Source;
  R.Config = config();
  R.Tag = std::move(Tag);
  return R;
}

/// Builds one pipeline over Src with \p Cache attached and forces the
/// plan stage, so the cache holds the plan artifact.
std::unique_ptr<core::ChimeraPipeline> populate(ArtifactCache &Cache) {
  core::PipelineConfig C = config();
  C.Artifacts = &Cache;
  auto P = core::ChimeraPipeline::create({.Eval = Src, .Config = C});
  EXPECT_TRUE(P) << (P ? "" : P.error().message());
  if (!P)
    return nullptr;
  (*P)->plan();
  return P.take();
}

/// Every entry currently in \p Cache, keyed by (kind, key): the keys
/// come from the entry headers of its canonical CART1 image (entries sit
/// back to back after the file header), the bytes from lookup().
std::map<std::pair<uint16_t, uint64_t>, std::vector<uint8_t>>
entriesOf(const ArtifactCache &Cache) {
  std::map<std::pair<uint16_t, uint64_t>, std::vector<uint8_t>> Out;
  const std::vector<uint8_t> Image = Cache.serialize();
  for (size_t At = CacheHeaderBytes; At + EntryHeaderBytes <= Image.size();) {
    const uint8_t *Header = Image.data() + At;
    uint16_t Kind = replay::readLe16(Header + 4);
    uint64_t Key = replay::readLe64(Header + 8);
    std::vector<uint8_t> &Bytes = Out[{Kind, Key}];
    EXPECT_TRUE(Cache.lookup(static_cast<ArtifactKind>(Kind), Key, Bytes))
        << "serialized entry " << Key << " is not in the cache";
    At += EntryHeaderBytes + replay::readLe32(Header + 16);
  }
  EXPECT_EQ(Out.size(), Cache.entryCount());
  return Out;
}

/// Appends one CART1 entry of any kind number to \p Image, framed and
/// CRC'd as docs/CACHE_FORMAT.md specifies.
void appendEntry(std::vector<uint8_t> &Image, uint16_t Kind, uint64_t Key,
                 const std::vector<uint8_t> &Payload) {
  size_t Start = Image.size();
  Image.insert(Image.end(), EntryMagic, EntryMagic + 4);
  replay::appendLe16(Image, Kind);
  replay::appendLe16(Image, 0);
  replay::appendLe64(Image, Key);
  replay::appendLe32(Image, static_cast<uint32_t>(Payload.size()));
  replay::appendLe32(Image, support::crc32(Payload.data(), Payload.size()));
  replay::appendLe32(Image, 0);
  replay::appendLe32(Image,
                     support::crc32(Image.data() + Start, Image.size() - Start));
  Image.insert(Image.end(), Payload.begin(), Payload.end());
}

} // namespace

//===----------------------------------------------------------------------===//
// CART1 persistence
//===----------------------------------------------------------------------===//

TEST(ArtifactCacheTest, SerializeLoadRoundTripIsByteIdentical) {
  ArtifactCache Cache;
  auto P = populate(Cache);
  ASSERT_NE(P, nullptr);
  ASSERT_EQ(Cache.entryCount(), 1u); // The plan.

  std::vector<uint8_t> Image = Cache.serialize();
  ArtifactCache Loaded;
  auto N = Loaded.loadBytes(Image);
  ASSERT_TRUE(N) << N.error().message();
  EXPECT_EQ(*N, Cache.entryCount());
  EXPECT_EQ(Loaded.serialize(), Image);
  EXPECT_EQ(entriesOf(Loaded), entriesOf(Cache));
}

TEST(ArtifactCacheTest, SaveFileLoadFileRoundTrip) {
  ArtifactCache Cache;
  auto P = populate(Cache);
  ASSERT_NE(P, nullptr);

  const std::string Path = "/tmp/chimera_service_test.cart";
  std::remove(Path.c_str());
  ArtifactCache Empty;
  auto Missing = Empty.loadFile(Path);
  ASSERT_TRUE(Missing) << Missing.error().message();
  EXPECT_EQ(*Missing, 0u); // Missing file = cold start, not an error.

  ASSERT_FALSE(bool(Cache.saveFile(Path)));
  ArtifactCache Loaded;
  auto N = Loaded.loadFile(Path);
  ASSERT_TRUE(N) << N.error().message();
  EXPECT_EQ(*N, Cache.entryCount());
  EXPECT_EQ(Loaded.serialize(), Cache.serialize());
  std::remove(Path.c_str());
}

TEST(ArtifactCacheTest, CodecsRoundTripRealArtifacts) {
  ArtifactCache Cache;
  auto P = populate(Cache);
  ASSERT_NE(P, nullptr);

  // Plan: decode(encode(plan)) re-encodes to the same bytes.
  std::vector<uint8_t> PlanBytes;
  encodePlan(P->plan(), PlanBytes);
  replay::ByteCursor C(PlanBytes);
  instrument::InstrumentationPlan Decoded;
  ASSERT_TRUE(decodePlan(C, Decoded));
  EXPECT_TRUE(C.atEnd());
  std::vector<uint8_t> Again;
  encodePlan(Decoded, Again);
  EXPECT_EQ(Again, PlanBytes);
  EXPECT_EQ(instrument::planFingerprint(Decoded),
            instrument::planFingerprint(P->plan()));
}

TEST(ArtifactCacheTest, WarmStartIsByteIdenticalToRecompute) {
  // Cold: compute everything, persist.
  ArtifactCache Cold;
  auto P1 = populate(Cold);
  ASSERT_NE(P1, nullptr);
  std::vector<uint8_t> ColdPlan;
  encodePlan(P1->plan(), ColdPlan);
  rt::ExecutionResult Rec1 = P1->record(7);
  ASSERT_TRUE(Rec1.Ok) << Rec1.Error;
  std::vector<uint8_t> Image = Cold.serialize();

  // Warm: load the image into a fresh cache, rebuild the same request.
  ArtifactCache Warm;
  auto N = Warm.loadBytes(Image);
  ASSERT_TRUE(N) << N.error().message();
  core::PipelineConfig C = config();
  C.Artifacts = &Warm;
  auto P2 = core::ChimeraPipeline::create({.Eval = Src, .Config = C});
  ASSERT_TRUE(P2) << P2.error().message();

  std::vector<uint8_t> WarmPlan;
  encodePlan((*P2)->plan(), WarmPlan);
  EXPECT_EQ(WarmPlan, ColdPlan);

  // The hit actually came from the cache, and executing from the cached
  // plan is bit-identical to the cold run.
  obs::Registry Reg;
  Warm.publishTo(obs::Scope(&Reg, "c"));
  EXPECT_GE(Reg.snapshot().value("c.hits", 0), 1);
  rt::ExecutionResult Rec2 = (*P2)->record(7);
  ASSERT_TRUE(Rec2.Ok) << Rec2.Error;
  EXPECT_EQ(Rec2.StateHash, Rec1.StateHash);
  EXPECT_EQ(replay::encodeLog(Rec2.Log), replay::encodeLog(Rec1.Log));

  // Re-persisting after the warm run reproduces the image byte for
  // byte (first-writer-wins + canonical encodings).
  EXPECT_EQ(Warm.serialize(), Image);
}

// The plan key folds in the profile stage's run rule. A plan stored
// when the stage made exactly ProfileRuns runs (the key below, of this
// request's plan under that rule) is never served now that it stops
// once the pair set saturates.
TEST(ArtifactCacheTest, PlanKeyCoversTheProfileRule) {
  const uint64_t FixedRunsKey = 0xf32f5027b1bb6965ull;
  ArtifactCache Cache;
  auto P = populate(Cache);
  ASSERT_NE(P, nullptr);
  const auto Entries = entriesOf(Cache);
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_NE(Entries.begin()->first.second, FixedRunsKey);
}

TEST(ArtifactCacheTest, RetiredSummaryEntriesAreSkippedOnLoad) {
  // An image from a build that still cached RELAY summaries: a kind-1
  // entry (an empty summary in that encoding) ahead of the plan.
  ArtifactCache Cache;
  auto P = populate(Cache);
  ASSERT_NE(P, nullptr);
  const std::vector<uint8_t> PlanOnly = Cache.serialize();
  const auto Entries = PlanOnly.begin() + CacheHeaderBytes;
  std::vector<uint8_t> Image(PlanOnly.begin(), Entries);
  appendEntry(Image, RetiredSummaryKind, 0x5eed, {0, 0, 0, 0, 0});
  Image.insert(Image.end(), Entries, PlanOnly.end());

  ArtifactCache Loaded;
  auto N = Loaded.loadBytes(Image);
  ASSERT_TRUE(N) << N.error().message();
  EXPECT_EQ(*N, 1u);
  EXPECT_EQ(Loaded.entryCount(), 1u);
  obs::Registry Reg;
  Loaded.publishTo(obs::Scope(&Reg, "c"));
  EXPECT_EQ(Reg.snapshot().value("c.load_dropped", -1), 1);
  EXPECT_EQ(Loaded.serialize(), PlanOnly); // Never written back.

  // The skipped entry's payload CRC is still checked.
  std::vector<uint8_t> Damaged = Image;
  Damaged[CacheHeaderBytes + EntryHeaderBytes] ^= 1;
  auto D = ArtifactCache().loadBytes(Damaged);
  ASSERT_FALSE(bool(D));
  EXPECT_NE(D.error().message().find("payload CRC mismatch"),
            std::string::npos)
      << D.error().message();

  // Every other unassigned kind number stays an error.
  std::vector<uint8_t> Unknown(PlanOnly.begin(), Entries);
  appendEntry(Unknown, 3, 0x5eed, {0});
  auto U = ArtifactCache().loadBytes(Unknown);
  ASSERT_FALSE(bool(U));
  EXPECT_NE(U.error().message().find("unknown artifact kind 3"),
            std::string::npos)
      << U.error().message();
}

//===----------------------------------------------------------------------===//
// Corruption fault matrix
//===----------------------------------------------------------------------===//

TEST(ArtifactCacheFaultMatrix, EveryBitFlipIsDetected) {
  ArtifactCache Cache;
  auto P = populate(Cache);
  ASSERT_NE(P, nullptr);
  const std::vector<uint8_t> Image = Cache.serialize();
  const auto Original = entriesOf(Cache);

  for (size_t Byte = 0; Byte < Image.size(); ++Byte) {
    std::vector<uint8_t> Corrupt = Image;
    Corrupt[Byte] ^= 1u << (Byte % 8);
    ArtifactCache Fresh;
    auto R = Fresh.loadBytes(Corrupt);
    // Every field is covered by the header checks, the entry-header
    // CRC, or the payload CRC, so a single flipped bit is always a
    // typed error — and whatever prefix loaded is byte-exact.
    EXPECT_FALSE(bool(R)) << "undetected flip at byte " << Byte;
    for (const auto &[Key, Bytes] : entriesOf(Fresh)) {
      auto It = Original.find(Key);
      ASSERT_NE(It, Original.end()) << "wrong artifact at byte " << Byte;
      EXPECT_EQ(Bytes, It->second) << "wrong artifact at byte " << Byte;
    }
  }
}

TEST(ArtifactCacheFaultMatrix, EveryTruncationIsErrorOrCleanPrefix) {
  ArtifactCache Cache;
  auto P = populate(Cache);
  ASSERT_NE(P, nullptr);
  const std::vector<uint8_t> Image = Cache.serialize();
  const auto Original = entriesOf(Cache);

  for (size_t Len = 0; Len < Image.size(); ++Len) {
    std::vector<uint8_t> Cut(Image.begin(), Image.begin() + Len);
    ArtifactCache Fresh;
    auto R = Fresh.loadBytes(Cut);
    if (R) {
      // Truncation on an entry boundary is a valid shorter file; it
      // must hold strictly fewer entries, all byte-exact.
      EXPECT_LT(*R, Original.size()) << "truncation at " << Len;
    }
    for (const auto &[Key, Bytes] : entriesOf(Fresh)) {
      auto It = Original.find(Key);
      ASSERT_NE(It, Original.end()) << "wrong artifact at length " << Len;
      EXPECT_EQ(Bytes, It->second) << "wrong artifact at length " << Len;
    }
  }
}

TEST(ArtifactCacheFaultMatrix, ErrorsNameEntryAndOffset) {
  ArtifactCache Cache;
  auto P = populate(Cache);
  ASSERT_NE(P, nullptr);
  std::vector<uint8_t> Image = Cache.serialize();
  Image[CacheHeaderBytes + 6] ^= 0x40; // Inside entry 0's header.
  ArtifactCache Fresh;
  auto R = Fresh.loadBytes(Image);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().message().find("artifact cache entry 0"),
            std::string::npos)
      << R.error().message();
  EXPECT_NE(R.error().message().find("offset"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// SessionManager
//===----------------------------------------------------------------------===//

TEST(SessionManagerTest, ConcurrentSessionsOfOneRequestAreBitIdentical) {
  ArtifactCache Cache;
  obs::Registry Metrics;
  SessionManager::Options MO;
  MO.Concurrency = 4;
  MO.Artifacts = &Cache;
  MO.Metrics = &Metrics;
  SessionManager M(MO);

  const unsigned K = 4;
  for (unsigned I = 0; I < K; ++I)
    ASSERT_TRUE(bool(M.submit(request("same"))));
  std::vector<SessionResult> All = M.drainAll();
  ASSERT_EQ(All.size(), K);
  for (const SessionResult &R : All) {
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(R.Deterministic);
    EXPECT_EQ(R.PlanFingerprint, All[0].PlanFingerprint);
    EXPECT_EQ(R.RecordStateHash, All[0].RecordStateHash);
    EXPECT_EQ(R.ReplayStateHash, All[0].ReplayStateHash);
    EXPECT_EQ(R.LogBytes, All[0].LogBytes);
  }
  obs::Snapshot Snap = Metrics.snapshot();
  EXPECT_EQ(Snap.value("service.submitted", 0), K);
  EXPECT_EQ(Snap.value("service.completed", 0), K);
  EXPECT_EQ(Snap.value("service.in_flight", -1), 0);
}

TEST(SessionManagerTest, FailingSessionLeavesSiblingsUntouched) {
  // Solo baseline for the good request.
  SessionResult Solo;
  {
    SessionManager M(SessionManager::Options{});
    auto Id = M.submit(request("good"));
    ASSERT_TRUE(bool(Id));
    Solo = M.wait(*Id);
    ASSERT_TRUE(Solo.Ok) << Solo.Error;
  }

  SessionManager M(SessionManager::Options{});
  auto G1 = M.submit(request("good"));
  auto Bad = M.submit(request("bad", "int main("));
  auto G2 = M.submit(request("good"));
  ASSERT_TRUE(bool(G1) && bool(Bad) && bool(G2));

  SessionResult RBad = M.wait(*Bad);
  EXPECT_FALSE(RBad.Ok);
  EXPECT_NE(RBad.Error.find("request 'bad'"), std::string::npos)
      << RBad.Error;

  for (uint64_t Id : {*G1, *G2}) {
    SessionResult R = M.wait(Id);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_EQ(R.RecordStateHash, Solo.RecordStateHash);
    EXPECT_EQ(R.PlanFingerprint, Solo.PlanFingerprint);
    EXPECT_EQ(R.LogBytes, Solo.LogBytes);
  }
}

TEST(SessionManagerTest, CancelHonoredAtStageBoundary) {
  SessionManager::Options MO;
  MO.Concurrency = 2; // Hook must run off-thread so cancel() can race in.
  SessionManager M(MO);

  std::mutex Mu;
  std::condition_variable Cv;
  bool Released = false;
  SessionOptions SO;
  SO.StageHook = [&](const char *Stage) {
    if (std::string(Stage) != "admitted")
      return;
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [&] { return Released; });
  };
  auto Id = M.submit(request("held"), SO);
  ASSERT_TRUE(bool(Id));
  EXPECT_TRUE(M.cancel(*Id));
  {
    std::lock_guard<std::mutex> L(Mu);
    Released = true;
  }
  Cv.notify_all();

  SessionResult R = M.wait(*Id);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.Cancelled);
  EXPECT_NE(R.Error.find("cancelled at stage 'admitted'"),
            std::string::npos)
      << R.Error;
  EXPECT_FALSE(M.cancel(*Id)); // Completion wins.
}

TEST(SessionManagerTest, DeadlineExpiresAtStageBoundary) {
  SessionManager::Options MO;
  MO.Concurrency = 2;
  SessionManager M(MO);

  SessionOptions SO;
  SO.DeadlineMs = 1;
  SO.StageHook = [](const char *Stage) {
    if (std::string(Stage) == "admitted")
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  auto Id = M.submit(request("late"), SO);
  ASSERT_TRUE(bool(Id));
  SessionResult R = M.wait(*Id);
  EXPECT_FALSE(R.Ok);
  EXPECT_TRUE(R.DeadlineExpired);
  EXPECT_NE(R.Error.find("deadline (1 ms) expired at stage 'admitted'"),
            std::string::npos)
      << R.Error;
}

TEST(SessionManagerTest, AdmissionIsBounded) {
  SessionManager::Options MO;
  MO.Concurrency = 2;
  MO.MaxSessions = 1;
  SessionManager M(MO);

  std::mutex Mu;
  std::condition_variable Cv;
  bool Released = false;
  SessionOptions SO;
  SO.StageHook = [&](const char *Stage) {
    if (std::string(Stage) != "admitted")
      return;
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [&] { return Released; });
  };
  auto First = M.submit(request("holder"), SO);
  ASSERT_TRUE(bool(First));

  auto Rejected = M.submit(request("overflow"));
  ASSERT_FALSE(bool(Rejected));
  EXPECT_NE(Rejected.error().message().find("admission bound reached"),
            std::string::npos)
      << Rejected.error().message();
  EXPECT_NE(Rejected.error().message().find("request 'overflow'"),
            std::string::npos);

  {
    std::lock_guard<std::mutex> L(Mu);
    Released = true;
  }
  Cv.notify_all();
  SessionResult R = M.wait(*First);
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(SessionManagerTest, ShutdownDrainsAndRejectsNewWork) {
  SessionManager::Options MO;
  MO.Concurrency = 2;
  SessionManager M(MO);
  auto A = M.submit(request("a"));
  auto B = M.submit(request("b"));
  ASSERT_TRUE(bool(A) && bool(B));
  M.shutdown();
  EXPECT_EQ(M.inFlight(), 0u);
  EXPECT_TRUE(M.wait(*A).Ok);
  EXPECT_TRUE(M.wait(*B).Ok);

  auto After = M.submit(request("late"));
  ASSERT_FALSE(bool(After));
  EXPECT_NE(After.error().message().find("shutting down"),
            std::string::npos);
  M.shutdown(); // Idempotent.
}

TEST(SessionManagerTest, ResultIsCollectedOnce) {
  // A collected session is forgotten, so a long-lived manager does not
  // keep every finished session's log alive.
  SessionManager M(SessionManager::Options{});
  auto A = M.submit(request("a"));
  auto B = M.submit(request("b"));
  ASSERT_TRUE(bool(A) && bool(B));
  SessionResult First = M.wait(*A);
  ASSERT_TRUE(First.Ok) << First.Error;
  EXPECT_FALSE(First.LogBytes.empty());

  SessionResult Again = M.wait(*A);
  EXPECT_FALSE(Again.Ok);
  EXPECT_NE(Again.Error.find("unknown session id " + std::to_string(*A)),
            std::string::npos)
      << Again.Error;
  EXPECT_FALSE(M.cancel(*A));

  // drainAll returns only what wait() has not collected, then forgets it.
  std::vector<SessionResult> Rest = M.drainAll();
  ASSERT_EQ(Rest.size(), 1u);
  EXPECT_EQ(Rest[0].Id, *B);
  EXPECT_TRUE(Rest[0].Ok) << Rest[0].Error;
  EXPECT_TRUE(M.drainAll().empty());
}

TEST(SessionManagerTest, WaitOnUnknownIdFailsTyped) {
  SessionManager M(SessionManager::Options{});
  SessionResult R = M.wait(999);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("unknown session id 999"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Request API
//===----------------------------------------------------------------------===//

TEST(PipelineRequestApi, ExplicitProfileSourceAgreesWithImplied) {
  // An explicit Profile equal to Eval must build the same plan as the
  // empty-Profile ("same as Eval") spelling.
  auto Old = core::ChimeraPipeline::create(
      {.Eval = Src, .Profile = Src, .Config = config()});
  ASSERT_TRUE(Old) << Old.error().message();
  auto New = core::ChimeraPipeline::create({.Eval = Src, .Config = config()});
  ASSERT_TRUE(New) << New.error().message();
  EXPECT_EQ(instrument::planFingerprint((*Old)->plan()),
            instrument::planFingerprint((*New)->plan()));
}

TEST(PipelineRequestApi, TagSurfacesInErrorContext) {
  auto P = core::ChimeraPipeline::create(
      {.Eval = "int main(", .Config = config(), .Tag = "broken-job"});
  ASSERT_FALSE(P);
  EXPECT_NE(P.error().message().find("request 'broken-job'"),
            std::string::npos)
      << P.error().message();
}
