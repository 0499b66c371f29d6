//===- stress/Trial.cpp - Case derivation and the oracle suite -------------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "stress/Stress.h"

#include "core/Pipeline.h"
#include "instrument/LockOrderAuditor.h"
#include "replay/LogCodec.h"
#include "replay/LogReader.h"
#include "service/ArtifactCache.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include "workloads/Workloads.h"

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace chimera;
using namespace chimera::stress;

//===----------------------------------------------------------------------===//
// Oracle and fault names
//===----------------------------------------------------------------------===//

const std::vector<OracleKind> &stress::allOracles() {
  static const std::vector<OracleKind> All = {
      OracleKind::RecordReplay,    OracleKind::StreamedLog,
      OracleKind::ParallelReplay,  OracleKind::CacheWarmCold,
      OracleKind::ObsInert,        OracleKind::LogFault,
      OracleKind::CacheFault,      OracleKind::BatchInvariance,
      OracleKind::ReplayPerturbed,
  };
  return All;
}

const char *stress::oracleName(OracleKind Kind) {
  switch (Kind) {
  case OracleKind::RecordReplay:
    return "record-replay";
  case OracleKind::StreamedLog:
    return "streamed-log";
  case OracleKind::ParallelReplay:
    return "parallel-replay";
  case OracleKind::CacheWarmCold:
    return "cache-warm-cold";
  case OracleKind::ObsInert:
    return "obs-inert";
  case OracleKind::LogFault:
    return "log-fault";
  case OracleKind::CacheFault:
    return "cache-fault";
  case OracleKind::BatchInvariance:
    return "batch-invariance";
  case OracleKind::ReplayPerturbed:
    return "replay-perturbed";
  }
  return "unknown";
}

support::Expected<OracleKind> stress::parseOracle(const std::string &Text) {
  for (OracleKind K : allOracles())
    if (Text == oracleName(K))
      return K;
  return support::Error::failure("unknown oracle '" + Text + "'");
}

const char *stress::faultKindName(FaultSpec::Kind Kind) {
  switch (Kind) {
  case FaultSpec::Kind::None:
    return "none";
  case FaultSpec::Kind::FlipBit:
    return "flip-bit";
  case FaultSpec::Kind::Truncate:
    return "truncate";
  }
  return "unknown";
}

support::Expected<FaultSpec::Kind>
stress::parseFaultKind(const std::string &Text) {
  for (FaultSpec::Kind K :
       {FaultSpec::Kind::None, FaultSpec::Kind::FlipBit,
        FaultSpec::Kind::Truncate})
    if (Text == faultKindName(K))
      return K;
  return support::Error::failure("unknown fault kind '" + Text + "'");
}

void stress::applyFault(std::vector<uint8_t> &Bytes, const FaultSpec &Fault) {
  if (Fault.K == FaultSpec::Kind::None || Bytes.empty())
    return;
  if (Fault.K == FaultSpec::Kind::FlipBit) {
    uint64_t Bit = Fault.Offset % (uint64_t(Bytes.size()) * 8);
    Bytes[size_t(Bit / 8)] ^= uint8_t(1u << (Bit % 8));
  } else {
    Bytes.resize(size_t(Fault.Offset % Bytes.size()));
  }
}

std::string stress::failureClass(const std::string &Failure) {
  return Failure.substr(0, Failure.find(':'));
}

//===----------------------------------------------------------------------===//
// Mini-source catalog
//===----------------------------------------------------------------------===//
//
// Small programs chosen for coverage, not realism: pure weak-lock
// contention, condvar/input traffic across checkpoint boundaries,
// barrier phases, and a deliberately cross-ordered pair of racy
// globals (lock-order-cycle material for the Audit/Enforce trials).

namespace {

const char *RacyCounterSrc =
    "int c;\nint hist[4];\nint tids[4];\n"
    "void w(int id, int n) { int i; int h = 0; for (i = 0; i < n; i++) { "
    "int t = c; c = t + 1; h = (h * 31 + t) & 1048575; } "
    "hist[id] = h; }\n"
    "int main() { int j; for (j = 0; j < 4; j++) { "
    "tids[j] = spawn(w, j, 300); } "
    "for (j = 0; j < 4; j++) { join(tids[j]); } "
    "output(c); int k; for (k = 0; k < 4; k++) { output(hist[k]); } "
    "return 0; }";

const char *ProducerConsumerSrc =
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

const char *BarrierPhasesSrc =
    "int a[8];\nint tids[4];\nbarrier b(4);\n"
    "void w(int id) { int p; for (p = 0; p < 5; p++) { int i; "
    "for (i = 0; i < 50; i++) { int s = (id + p) & 7; a[s] = a[s] + i; } "
    "barrier_wait(b); } }\n"
    "int main() { int j; for (j = 0; j < 4; j++) { tids[j] = spawn(w, j); } "
    "for (j = 0; j < 4; j++) { join(tids[j]); } "
    "int k; for (k = 0; k < 8; k++) { output(a[k]); } return 0; }";

// Two racy arrays touched in opposite NESTED orders: each worker's
// outer loop body is a guard region for one array whose inner loop
// opens a nested region for the other, so the planner's weak locks
// for x and y really are held one-inside-the-other in both orders —
// cyclic lock-order material, and (under tiny timeouts, unless
// Enforce coalesces the cycle away) the only catalog source that
// exercises genuine revocations. The dynamic `k[...]` indices
// keep the accesses from folding into per-element locks, and the long
// outer loops keep profiling seeing the workers concurrent (short
// loops degrade to one function-covering region, whose entry-ordered
// acquires cannot cycle).
const char *CrossOrderSrc =
    "int x[4];\nint y[4];\nint k[2];\nint tids[2];\n"
    "void xy() { int i = 0; while (i < 300) { int t = k[0]; "
    "x[t] = x[t] + 1; int j = 0; while (j < 4) { int u = k[1]; "
    "y[u] = y[u] + 1; j = j + 1; } i = i + 1; } }\n"
    "void yx() { int i = 0; while (i < 300) { int t = k[1]; "
    "y[t] = y[t] + 1; int j = 0; while (j < 4) { int u = k[0]; "
    "x[u] = x[u] + 1; j = j + 1; } i = i + 1; } }\n"
    "int main() { tids[0] = spawn(xy); tids[1] = spawn(yx); "
    "join(tids[0]); join(tids[1]); "
    "output(x[0]); output(y[0]); return 0; }";

struct CatalogEntry {
  const char *Name;
  const char *Source;
};

const CatalogEntry Catalog[] = {
    {"racy-counter", RacyCounterSrc},
    {"producer-consumer", ProducerConsumerSrc},
    {"barrier-phases", BarrierPhasesSrc},
    {"cross-order", CrossOrderSrc},
};

} // namespace

const std::vector<std::string> &stress::miniSourceNames() {
  static const std::vector<std::string> Names = [] {
    std::vector<std::string> N;
    for (const CatalogEntry &E : Catalog)
      N.push_back(E.Name);
    return N;
  }();
  return Names;
}

support::Expected<std::string> stress::miniSource(const std::string &Name) {
  for (const CatalogEntry &E : Catalog)
    if (Name == E.Name)
      return std::string(E.Source);
  return support::Error::failure("unknown mini source '" + Name + "'");
}

//===----------------------------------------------------------------------===//
// Case derivation
//===----------------------------------------------------------------------===//

namespace {

template <typename T, size_t N>
T pick(chimera::Rng &Rng, const T (&Choices)[N]) {
  return Choices[size_t(Rng.nextBelow(N))];
}

} // namespace

TrialCase stress::deriveCase(uint64_t BaseSeed, uint64_t Index) {
  Hasher H;
  H.addString("chimera-stress-v1");
  H.addWord(BaseSeed);
  H.addWord(Index);
  chimera::Rng Rng(H.digest());

  TrialCase C;
  C.Seed = Rng.nextInRange(1, 1u << 20);

  // Oracle mix, weighted toward the cheap high-yield checks.
  static const OracleKind Mix[] = {
      OracleKind::RecordReplay,   OracleKind::RecordReplay,
      OracleKind::StreamedLog,    OracleKind::StreamedLog,
      OracleKind::ParallelReplay, OracleKind::ParallelReplay,
      OracleKind::RecordReplay,   OracleKind::ObsInert,
      OracleKind::LogFault,       OracleKind::LogFault,
      OracleKind::CacheFault,     OracleKind::BatchInvariance,
      OracleKind::ReplayPerturbed, OracleKind::ReplayPerturbed,
      OracleKind::CacheWarmCold,  OracleKind::ParallelReplay,
  };
  C.Oracle = pick(Rng, Mix);

  // Source: mostly the mini catalog; one trial in ten runs a
  // tiny-worker paper workload so the planner's full vocabulary
  // (function locks, ranged loop-locks) stays in the mix.
  if (Rng.chance(1, 10)) {
    const auto &All = workloads::allWorkloads();
    workloads::WorkloadKind K = All[size_t(Rng.nextBelow(All.size()))];
    auto Req = workloads::pipelineRequest(K, /*Workers=*/2);
    C.SourceName = workloads::workloadInfo(K).Name;
    C.Source = Req.Eval;
    C.Profile = Req.Profile;
  } else {
    const CatalogEntry &E = Catalog[size_t(Rng.nextBelow(std::size(Catalog)))];
    C.SourceName = E.Name;
    C.Source = E.Source;
    C.Profile.clear();
  }

  core::PipelineConfig &Cfg = C.Config;
  Cfg.Name = C.SourceName;
  Cfg.NumCores = pick(Rng, (const unsigned[]){1, 2, 4, 8});
  Cfg.ProfileRuns = unsigned(Rng.nextInRange(2, 4));
  Cfg.ProfileCores = pick(Rng, (const unsigned[]){2, 4});
  Cfg.ProfileSeedBase = 90001 + Rng.nextBelow(5) * 1000;
  Cfg.AnalysisJobs = unsigned(Rng.nextInRange(1, 2));
  Rng.chance(1, 2); // The retired summary-cache switch; keeps seeds stable.
  Cfg.Mhp = pick(Rng, (const analysis::MhpMode[]){
                          analysis::MhpMode::Off, analysis::MhpMode::ForkJoin,
                          analysis::MhpMode::Barrier,
                          analysis::MhpMode::Barrier});
  Cfg.LockOrder = pick(Rng, (const analysis::LockOrderMode[]){
                               analysis::LockOrderMode::Off,
                               analysis::LockOrderMode::Off,
                               analysis::LockOrderMode::Audit,
                               analysis::LockOrderMode::Enforce});
  // Tiny timeouts provoke weak-lock revocations — the rarest event
  // kind in the log, and historically the least-tested replay path.
  Cfg.WeakLockTimeout = pick(Rng, (const uint64_t[]){500, 2000, 20000,
                                                     500'000'000,
                                                     500'000'000});
  Cfg.QuantumMin = pick(Rng, (const uint64_t[]){1, 40, 300, 3000});
  Cfg.QuantumMax =
      Cfg.QuantumMin +
      pick(Rng, (const uint64_t[]){0, Cfg.QuantumMin * 2, 6000});
  Cfg.DispatchBatch = pick(Rng, (const unsigned[]){1, 2, 7, 64});
  Cfg.SegmentBytes = pick(Rng, (const uint64_t[]){512, 1024, 4096});
  Cfg.CheckpointEvery = pick(Rng, (const uint64_t[]){0, 1, 3, 16, 128});
  Cfg.ReplayJobs = C.Oracle == OracleKind::ParallelReplay
                       ? unsigned(Rng.nextInRange(2, 8))
                       : unsigned(Rng.nextInRange(1, 4));
  Cfg.Observability =
      C.Oracle == OracleKind::ObsInert
          ? (Rng.chance(1, 2) ? obs::ObsMode::Sampled : obs::ObsMode::Full)
          : pick(Rng, (const obs::ObsMode[]){obs::ObsMode::Off,
                                             obs::ObsMode::Off,
                                             obs::ObsMode::Sampled,
                                             obs::ObsMode::Full});

  if (C.Oracle == OracleKind::LogFault ||
      C.Oracle == OracleKind::CacheFault) {
    C.Fault.K = Rng.chance(1, 3) ? FaultSpec::Kind::Truncate
                                 : FaultSpec::Kind::FlipBit;
    C.Fault.Offset = Rng.next();
  }

  C.AltDispatchBatch = pick(Rng, (const unsigned[]){1, 3, 16, 128});
  C.AltQuantumMin = pick(Rng, (const uint64_t[]){1, 700, 5000});
  C.AltQuantumMax =
      C.AltQuantumMin + pick(Rng, (const uint64_t[]){0, 4242});
  return C;
}

//===----------------------------------------------------------------------===//
// Trial execution
//===----------------------------------------------------------------------===//

namespace {

using PipelinePtr = std::unique_ptr<core::ChimeraPipeline>;

support::Expected<PipelinePtr> makePipeline(const TrialCase &Case,
                                            core::PipelineConfig Config) {
  core::PipelineRequest Req;
  Req.Eval = Case.Source;
  Req.Profile = Case.Profile;
  Req.Config = std::move(Config);
  Req.Tag = "stress";
  return core::ChimeraPipeline::create(std::move(Req));
}

TrialResult fail(std::string Message) {
  TrialResult R;
  R.Passed = false;
  R.Failure = std::move(Message);
  return R;
}

TrialResult pass(uint64_t RecordHash) {
  TrialResult R;
  R.Passed = true;
  R.RecordHash = RecordHash;
  return R;
}

/// A temp-file path unique across concurrent trials; the name never
/// influences simulated results.
std::string tempLogPath() {
  static std::atomic<uint64_t> Counter{0};
  return (std::filesystem::temp_directory_path() /
          ("chimera_stress_" + std::to_string(uint64_t(::getpid())) + "_" +
           std::to_string(Counter.fetch_add(1)) + ".clg"))
      .string();
}

/// recordStreamed into a temp file, returning (result, file bytes).
struct StreamedRecording {
  rt::ExecutionResult Result;
  std::vector<uint8_t> Bytes;
  support::Error Err = support::Error::success();
};

StreamedRecording recordStreamedBytes(core::ChimeraPipeline &P,
                                      uint64_t Seed) {
  StreamedRecording Out;
  std::string Path = tempLogPath();
  auto R = P.recordStreamed(Path, Seed);
  if (!R) {
    std::remove(Path.c_str());
    Out.Err = support::Error::failure(R.error().message());
    return Out;
  }
  Out.Result = std::move(*R);
  std::ifstream In(Path, std::ios::binary);
  if (!In.good()) {
    std::remove(Path.c_str());
    Out.Err = support::Error::failure("cannot reopen streamed log " + Path);
    return Out;
  }
  Out.Bytes.assign(std::istreambuf_iterator<char>(In),
                   std::istreambuf_iterator<char>());
  In.close();
  std::remove(Path.c_str());
  return Out;
}

std::string hex(uint64_t V) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)V);
  return Buf;
}

// -- Oracles ----------------------------------------------------------------

TrialResult oracleRecordReplay(const TrialCase &Case) {
  auto P = makePipeline(Case, Case.Config);
  if (!P)
    return fail("build: " + P.error().message());
  auto Out = (*P)->recordAndReplay(Case.Seed);
  if (!Out.Record.Ok)
    return fail("record-error: " + Out.Record.Error);
  if (!Out.Replay.Ok)
    return fail("replay-error: " + Out.Replay.Error);
  if (Out.Record.StateHash != Out.Replay.StateHash)
    return fail("state-divergence: record=" + hex(Out.Record.StateHash) +
                " replay=" + hex(Out.Replay.StateHash));
  if (Out.Record.Output != Out.Replay.Output)
    return fail("output-divergence: record/replay outputs differ");
  return pass(Out.Record.StateHash);
}

TrialResult oracleStreamedLog(const TrialCase &Case) {
  auto P = makePipeline(Case, Case.Config);
  if (!P)
    return fail("build: " + P.error().message());
  auto Rec = recordStreamedBytes(**P, Case.Seed);
  if (Rec.Err)
    return fail("record-error: " + Rec.Err.message());
  auto Reader = replay::LogReader::open(Rec.Bytes, replay::LogReader::Options());
  if (!Reader)
    return fail("stream-open: " + Reader.error().message());
  auto Recovered = Reader->recover();
  if (!Recovered.Complete)
    return fail("stream-incomplete: " + Recovered.Failure.message());
  if (replay::encodeLog(Recovered.Log) != replay::encodeLog(Rec.Result.Log))
    return fail("log-divergence: streamed log differs from in-memory log");
  auto Rep = (*P)->replay(Recovered.Log);
  if (!Rep.Ok)
    return fail("replay-error: " + Rep.Error);
  if (Rep.StateHash != Rec.Result.StateHash)
    return fail("state-divergence: record=" + hex(Rec.Result.StateHash) +
                " streamed-replay=" + hex(Rep.StateHash));
  return pass(Rec.Result.StateHash);
}

TrialResult oracleParallelReplay(const TrialCase &Case) {
  auto P = makePipeline(Case, Case.Config);
  if (!P)
    return fail("build: " + P.error().message());
  auto Rec = recordStreamedBytes(**P, Case.Seed);
  if (Rec.Err)
    return fail("record-error: " + Rec.Err.message());

  auto SeqReader =
      replay::LogReader::open(Rec.Bytes, replay::LogReader::Options());
  if (!SeqReader)
    return fail("stream-open: " + SeqReader.error().message());
  auto Recovered = SeqReader->recover();
  if (!Recovered.Complete)
    return fail("stream-incomplete: " + Recovered.Failure.message());
  auto Seq = (*P)->replay(Recovered.Log);
  if (!Seq.Ok)
    return fail("replay-error: " + Seq.Error);

  auto ParReader =
      replay::LogReader::open(Rec.Bytes, replay::LogReader::Options());
  if (!ParReader)
    return fail("stream-open: " + ParReader.error().message());
  auto Par = (*P)->replayParallel(*ParReader, Case.Config.ReplayJobs);
  if (!Par.Exec.Ok)
    return fail("parallel-replay-error: " + Par.Exec.Error);
  if (Par.Exec.StateHash != Seq.StateHash)
    return fail("state-divergence: sequential=" + hex(Seq.StateHash) +
                " parallel=" + hex(Par.Exec.StateHash));
  if (Par.Exec.Output != Seq.Output)
    return fail("output-divergence: sequential/parallel outputs differ");
  if (replay::encodeLog(Par.Log) != replay::encodeLog(Recovered.Log))
    return fail("log-divergence: parallel merged log differs from recovery");
  return pass(Seq.StateHash);
}

TrialResult oracleCacheWarmCold(const TrialCase &Case) {
  service::ArtifactCache Cache;
  core::PipelineConfig Cfg = Case.Config;
  Cfg.Artifacts = &Cache;

  auto Cold = makePipeline(Case, Cfg);
  if (!Cold)
    return fail("build: cold: " + Cold.error().message());
  uint64_t ColdPlan = instrument::planFingerprint((*Cold)->plan());
  auto ColdRec = (*Cold)->record(Case.Seed);
  if (!ColdRec.Ok)
    return fail("record-error: cold: " + ColdRec.Error);

  auto Warm = makePipeline(Case, Cfg);
  if (!Warm)
    return fail("build: warm: " + Warm.error().message());
  uint64_t WarmPlan = instrument::planFingerprint((*Warm)->plan());
  if (WarmPlan != ColdPlan)
    return fail("plan-divergence: cold=" + hex(ColdPlan) +
                " warm=" + hex(WarmPlan));
  auto WarmRec = (*Warm)->record(Case.Seed);
  if (!WarmRec.Ok)
    return fail("record-error: warm: " + WarmRec.Error);
  if (WarmRec.StateHash != ColdRec.StateHash)
    return fail("state-divergence: cold=" + hex(ColdRec.StateHash) +
                " warm=" + hex(WarmRec.StateHash));
  if (replay::encodeLog(WarmRec.Log) != replay::encodeLog(ColdRec.Log))
    return fail("log-divergence: cold/warm logs differ");

  // Round-trip the cache image through serialize/load — the decoded
  // plan must still drive a bit-identical pipeline.
  service::ArtifactCache Reloaded;
  auto Loaded = Reloaded.loadBytes(Cache.serialize());
  if (!Loaded)
    return fail("cache-roundtrip: " + Loaded.error().message());
  core::PipelineConfig Cfg2 = Case.Config;
  Cfg2.Artifacts = &Reloaded;
  auto FromDisk = makePipeline(Case, Cfg2);
  if (!FromDisk)
    return fail("build: reloaded: " + FromDisk.error().message());
  uint64_t DiskPlan = instrument::planFingerprint((*FromDisk)->plan());
  if (DiskPlan != ColdPlan)
    return fail("plan-divergence: cold=" + hex(ColdPlan) +
                " reloaded=" + hex(DiskPlan));
  return pass(ColdRec.StateHash);
}

TrialResult oracleObsInert(const TrialCase &Case) {
  core::PipelineConfig Off = Case.Config;
  Off.Observability = obs::ObsMode::Off;
  auto POff = makePipeline(Case, Off);
  if (!POff)
    return fail("build: obs-off: " + POff.error().message());
  auto ROff = (*POff)->record(Case.Seed);
  if (!ROff.Ok)
    return fail("record-error: obs-off: " + ROff.Error);

  auto POn = makePipeline(Case, Case.Config);
  if (!POn)
    return fail("build: obs-on: " + POn.error().message());
  auto ROn = (*POn)->record(Case.Seed);
  if (!ROn.Ok)
    return fail("record-error: obs-on: " + ROn.Error);

  if (ROn.StateHash != ROff.StateHash)
    return fail("state-divergence: obs-off=" + hex(ROff.StateHash) +
                " obs-on=" + hex(ROn.StateHash));
  if (ROn.Output != ROff.Output)
    return fail("output-divergence: observability changed program output");
  if (replay::encodeLog(ROn.Log) != replay::encodeLog(ROff.Log))
    return fail("log-divergence: observability changed the recorded log");
  return pass(ROff.StateHash);
}

TrialResult oracleLogFault(const TrialCase &Case) {
  auto P = makePipeline(Case, Case.Config);
  if (!P)
    return fail("build: " + P.error().message());
  auto Rec = recordStreamedBytes(**P, Case.Seed);
  if (Rec.Err)
    return fail("record-error: " + Rec.Err.message());
  std::vector<uint8_t> Good = replay::encodeLog(Rec.Result.Log);

  std::vector<uint8_t> Damaged = Rec.Bytes;
  applyFault(Damaged, Case.Fault);

  auto Reader =
      replay::LogReader::open(Damaged, replay::LogReader::Options());
  if (!Reader)
    return pass(Rec.Result.StateHash); // Refusing a bad header is correct.
  auto Recovered = Reader->recover();
  if (Recovered.Complete &&
      replay::encodeLog(Recovered.Log) != Good)
    return fail("silent-corruption: recovery reported Complete but the "
                "recovered log differs from the recording");

  // Sequential replay of whatever prefix survived must agree with
  // parallel replay of the same damaged image — including whether it
  // errors at all.
  auto Seq = (*P)->replay(Recovered.Log);
  auto ParReader =
      replay::LogReader::open(Damaged, replay::LogReader::Options());
  if (!ParReader)
    return fail("fault-open-disagreement: sequential open succeeded but "
                "parallel open failed: " + ParReader.error().message());
  auto Par = (*P)->replayParallel(*ParReader, Case.Config.ReplayJobs);
  if (Par.Exec.Ok != Seq.Ok)
    return fail(std::string("fault-divergence: sequential ") +
                (Seq.Ok ? "succeeded" : "failed") + " but parallel " +
                (Par.Exec.Ok ? "succeeded" : "failed"));
  if (Seq.Ok && Par.Exec.StateHash != Seq.StateHash)
    return fail("state-divergence: damaged-log sequential=" +
                hex(Seq.StateHash) + " parallel=" + hex(Par.Exec.StateHash));
  if (replay::encodeLog(Par.Log) != replay::encodeLog(Recovered.Log))
    return fail("log-divergence: damaged-log parallel merge differs from "
                "sequential recovery");
  return pass(Rec.Result.StateHash);
}

TrialResult oracleCacheFault(const TrialCase &Case) {
  service::ArtifactCache Cache;
  core::PipelineConfig Cfg = Case.Config;
  Cfg.Artifacts = &Cache;
  auto Ref = makePipeline(Case, Cfg);
  if (!Ref)
    return fail("build: " + Ref.error().message());
  uint64_t RefPlan = instrument::planFingerprint((*Ref)->plan());
  auto RefRec = (*Ref)->record(Case.Seed);
  if (!RefRec.Ok)
    return fail("record-error: " + RefRec.Error);

  std::vector<uint8_t> Image = Cache.serialize();
  applyFault(Image, Case.Fault);

  // Damage may drop entries or fail the whole load; either way nothing
  // damaged may surface downstream.
  service::ArtifactCache Damaged;
  (void)Damaged.loadBytes(Image);

  core::PipelineConfig Cfg2 = Case.Config;
  Cfg2.Artifacts = &Damaged;
  auto P2 = makePipeline(Case, Cfg2);
  if (!P2)
    return fail("build: damaged-cache: " + P2.error().message());
  uint64_t Plan2 = instrument::planFingerprint((*P2)->plan());
  if (Plan2 != RefPlan)
    return fail("plan-divergence: clean=" + hex(RefPlan) +
                " damaged-cache=" + hex(Plan2));
  auto Rec2 = (*P2)->record(Case.Seed);
  if (!Rec2.Ok)
    return fail("record-error: damaged-cache: " + Rec2.Error);
  if (Rec2.StateHash != RefRec.StateHash)
    return fail("state-divergence: clean=" + hex(RefRec.StateHash) +
                " damaged-cache=" + hex(Rec2.StateHash));
  return pass(RefRec.StateHash);
}

TrialResult oracleBatchInvariance(const TrialCase &Case) {
  // With checkpoints on, both sides stream to a file: where a checkpoint
  // lands must not depend on the batch size either.
  const bool Streamed = Case.Config.CheckpointEvery > 0;
  auto Record = [&](core::ChimeraPipeline &P) {
    if (Streamed)
      return recordStreamedBytes(P, Case.Seed);
    StreamedRecording Out;
    Out.Result = P.record(Case.Seed);
    if (!Out.Result.Ok)
      Out.Err = support::Error::failure(Out.Result.Error);
    return Out;
  };

  auto P1 = makePipeline(Case, Case.Config);
  if (!P1)
    return fail("build: " + P1.error().message());
  auto R1 = Record(**P1);
  if (R1.Err)
    return fail("record-error: " + R1.Err.message());

  core::PipelineConfig Alt = Case.Config;
  Alt.DispatchBatch = Case.AltDispatchBatch;
  Alt.AnalysisJobs = Case.Config.AnalysisJobs == 1 ? 2 : 1;
  auto P2 = makePipeline(Case, Alt);
  if (!P2)
    return fail("build: alt-batch: " + P2.error().message());
  auto R2 = Record(**P2);
  if (R2.Err)
    return fail("record-error: alt-batch: " + R2.Err.message());

  if (R1.Result.StateHash != R2.Result.StateHash)
    return fail("state-divergence: batch=" +
                std::to_string(Case.Config.DispatchBatch) + " hash=" +
                hex(R1.Result.StateHash) + " batch=" +
                std::to_string(Case.AltDispatchBatch) + " hash=" +
                hex(R2.Result.StateHash));
  if (R1.Result.Output != R2.Result.Output)
    return fail("output-divergence: DispatchBatch changed program output");
  if (replay::encodeLog(R1.Result.Log) != replay::encodeLog(R2.Result.Log))
    return fail("log-divergence: DispatchBatch changed the recorded log");
  if (R1.Bytes != R2.Bytes)
    return fail("log-divergence: DispatchBatch changed the streamed file");
  return pass(R1.Result.StateHash);
}

TrialResult oracleReplayPerturbed(const TrialCase &Case) {
  auto P1 = makePipeline(Case, Case.Config);
  if (!P1)
    return fail("build: " + P1.error().message());
  auto Rec = (*P1)->record(Case.Seed);
  if (!Rec.Ok)
    return fail("record-error: " + Rec.Error);

  core::PipelineConfig Alt = Case.Config;
  Alt.QuantumMin = Case.AltQuantumMin;
  Alt.QuantumMax = Case.AltQuantumMax;
  Alt.DispatchBatch = Case.AltDispatchBatch;
  auto P2 = makePipeline(Case, Alt);
  if (!P2)
    return fail("build: perturbed: " + P2.error().message());
  auto Rep = (*P2)->replay(Rec.Log);
  if (!Rep.Ok)
    return fail("replay-error: perturbed: " + Rep.Error);
  if (Rep.StateHash != Rec.StateHash)
    return fail("state-divergence: recorded=" + hex(Rec.StateHash) +
                " perturbed-replay=" + hex(Rep.StateHash));
  if (Rep.Output != Rec.Output)
    return fail("output-divergence: perturbed replay changed output");
  return pass(Rec.StateHash);
}

} // namespace

TrialResult stress::runTrial(const TrialCase &Case) {
  if (auto Err = Case.Config.validate(); Err)
    return fail("config: " + Err.message());
  switch (Case.Oracle) {
  case OracleKind::RecordReplay:
    return oracleRecordReplay(Case);
  case OracleKind::StreamedLog:
    return oracleStreamedLog(Case);
  case OracleKind::ParallelReplay:
    return oracleParallelReplay(Case);
  case OracleKind::CacheWarmCold:
    return oracleCacheWarmCold(Case);
  case OracleKind::ObsInert:
    return oracleObsInert(Case);
  case OracleKind::LogFault:
    return oracleLogFault(Case);
  case OracleKind::CacheFault:
    return oracleCacheFault(Case);
  case OracleKind::BatchInvariance:
    return oracleBatchInvariance(Case);
  case OracleKind::ReplayPerturbed:
    return oracleReplayPerturbed(Case);
  }
  return fail("oracle: unknown oracle kind");
}
