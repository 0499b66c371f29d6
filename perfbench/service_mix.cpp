//===- perfbench/service_mix.cpp - Workload service-mix -------------------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A closed loop of sessions on one service::SessionManager: two clients,
/// each submitting its next request only when the previous one has
/// completed, over the nine programs at 2 and 4 workers. Every round is
/// a cold wave (each program once, in a seeded order, against an empty
/// ArtifactCache: every plan is a miss that runs RELAY, the 20 profile
/// runs, and the planner, then writes the cache), a restart (serialize
/// the cache, load it into a fresh one), and a warm wave (a seeded draw
/// with repeats, where every plan is a cache read). The only workload
/// where the static stages, native profile runs, the artifact cache,
/// and session queueing carry the time.
///
/// Stage times come from SessionOptions::StageHook timestamps measured
/// from the submit call, so queue wait is split from run time.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "instrument/LockOrderAuditor.h"
#include "race/SummaryCache.h"
#include "replay/LogCodec.h"
#include "service/SessionManager.h"
#include "support/Compressor.h"
#include "support/Rng.h"

#include <atomic>
#include <cstring>
#include <thread>

using namespace chimera;
using namespace chimera::perfbench;

namespace {

constexpr unsigned SetupReps = 3;
constexpr unsigned NativeRuns = 3;

/// What a session must reproduce: the one-shot pipeline's artifacts at
/// the session seed.
struct Reference {
  uint64_t PlanFp = 0;
  uint64_t StateHash = 0;
  std::vector<uint8_t> LogBytes;
  uint64_t RecInst = 0, RepInst = 0;
};

/// The stage boundaries a session reports through its StageHook, in order.
enum Boundary {
  AtAdmitted,
  AtBuilt,
  AtPlanned,
  AtRecorded,
  AtReplayed,
  NumBoundaries
};
const char *const BoundaryNames[NumBoundaries] = {
    "admitted", "built", "planned", "recorded", "replayed"};

/// One session as the client saw it. At each stage boundary the hook
/// samples the host speed on the session's own thread, so it notes when
/// it was entered (the previous stage's end) and when it returned (the
/// next stage's start).
struct SessionRun {
  size_t Prog = 0;
  bool Warm = false;
  Clock::time_point Submit, Done;
  Clock::time_point Enter[NumBoundaries], Leave[NumBoundaries];
  double KernelMs[NumBoundaries] = {};
  service::SessionResult Res;

  void boundary(const char *Stage) {
    Clock::time_point Now = Clock::now();
    for (int B = 0; B != NumBoundaries; ++B)
      if (!std::strcmp(Stage, BoundaryNames[B])) {
        Enter[B] = Now;
        KernelMs[B] = hostKernelMs();
        Leave[B] = Clock::now();
      }
  }
  /// Host ms of the stage between boundaries \p From and \p To.
  double stageMs(Boundary From, Boundary To) const {
    return msBetween(Leave[From], Enter[To]);
  }
  /// The same stage at reference speed.
  double stageRefMs(Boundary From, Boundary To) const {
    return stageMs(From, To) * HostSpeed::RefKernelMs /
           ((KernelMs[From] + KernelMs[To]) / 2);
  }
  /// Submit to completion at reference speed, without the hook's samples.
  double latencyRefMs() const {
    double Ms = msBetween(Submit, Done), Kernel = 0;
    for (int B = 0; B != NumBoundaries; ++B) {
      Ms -= msBetween(Enter[B], Leave[B]);
      Kernel += KernelMs[B];
    }
    return Ms * HostSpeed::RefKernelMs /
           (Kernel / static_cast<double>(NumBoundaries));
  }
};

struct CacheCounts {
  int64_t Hits = 0, Misses = 0, Entries = 0;
};

CacheCounts cacheCounts(const service::ArtifactCache &C) {
  obs::Registry Reg;
  C.publishTo(obs::Scope(&Reg, "c"));
  obs::Snapshot S = Reg.snapshot();
  return {S.value("c.hits"), S.value("c.misses"), S.value("c.entries")};
}

} // namespace

Result perfbench::runServiceMix(const RunArgs &Args, Tracer &T) {
  Result R;
  const ThreadBudget TB = threadBudget();
  const std::vector<Program> &Progs = inputSpace();
  const size_t N = Progs.size();

  // Set-up: the one-shot reference pipelines the sessions are checked
  // against, built cold, plus the manager.
  core::PipelineConfig RefConfig;
  RefConfig.AnalysisJobs = TB.AnalysisJobs;
  if (T.enabled())
    RefConfig.Observability = obs::ObsMode::Sampled;
  HostSpeed H;
  double BuildS = 0;
  std::vector<Built> B =
      buildCold(Progs, RefConfig, SetupReps, T, H, R, BuildS);
  if (R.Failed)
    return R;
  std::unique_ptr<service::SessionManager> M;
  std::vector<double> ManagerS;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    Clock::time_point Start = Clock::now();
    M.reset();
    service::SessionManager::Options MO;
    MO.Concurrency = TB.Sessions;
    M = std::make_unique<service::SessionManager>(MO);
    ManagerS.push_back(msBetween(Start, Clock::now()) / 1000.0);
  }
  const double SetupS = BuildS + median(ManagerS);

  // Canonical pass: each reference at the session seed, which is fixed,
  // so every count repeats exactly. Sessions run no native program, so
  // this pass times the native runs: NativeRuns per program, since one
  // run per program is too few to see past the host's noise.
  std::vector<Reference> Ref(N);
  struct ServiceCanonical : CanonicalCounts {
    std::vector<std::vector<double>> NatRates;
  };
  auto CanonicalPass = [&] {
    ServiceCanonical C;
    C.NatRates.resize(N);
    T.enter(Phase::Canonical, 0);
    Clock::time_point Start = Clock::now();
    for (size_t I = 0; I != N; ++I) {
      core::ChimeraPipeline &P = *B[I].P;
      const uint32_t Row = static_cast<uint32_t>(I + 1);
      rt::ExecutionResult Nat, Rec, Rep;
      std::vector<uint8_t> Encoded;
      size_t Zipped = 0;
      auto Native = [&](const char *SpanName) {
        double RefMs = timeAtRef(T, H, SpanName, "runtime", Row, [&] {
          Nat = P.runOriginalNative(CanonicalSeed);
        });
        C.NatRates[I].push_back(Nat.Stats.Instructions / RefMs);
      };
      T.time("bench.op", "bench", Row, [&] {
        Native("runtime.native");
        for (unsigned Again = 1; Again != NativeRuns; ++Again)
          Native("runtime.native_again");
        T.time("runtime.record", "runtime", Row, [&] {
          Rec = recordCounting(P, CanonicalSeed,
                               T.enabled() ? &C.Obs : nullptr);
        });
        T.time("runtime.replay", "runtime", Row,
               [&] { Rep = P.replay(Rec.Log); });
        T.time("replay.encode", "replay", Row,
               [&] { Encoded = replay::encodeLog(Rec.Log); });
        T.time("replay.compress", "replay", Row,
               [&] { Zipped = lzCompress(Encoded).size(); });
      });
      if (!R.check(Nat.Ok && Rec.Ok && sameResult(Rec, Rep),
                   Progs[I].label() + ": reference native, record, and "
                                      "bit-identical replay"))
        continue;
      Ref[I] = {instrument::planFingerprint(P.plan()), Rec.StateHash,
                Encoded, Rec.Stats.Instructions, Rep.Stats.Instructions};
      C.add(Rec.Stats, Nat.Stats, Encoded.size(), Zipped);
    }
    C.Ms = msBetween(Start, Clock::now());
    return C;
  };
  double UntracedCanonMs = 0;
  ServiceCanonical Canon =
      runCanonical<ServiceCanonical>(T, CanonicalPass, UntracedCanonMs, R);
  if (R.Failed)
    return R;

  core::PipelineConfig SessionConfig;
  SessionConfig.AnalysisJobs = TB.SessionAnalysisJobs;
  // The process-global summary cache would let concurrent sessions race
  // on whether RELAY runs; every cold session runs it in full instead.
  SessionConfig.UseSummaryCache = false;

  // Runs the programs in \p Draw as sessions against \p Cache, TB.Sessions
  // clients in a closed loop, and checks each against its reference.
  uint32_t NextRow = 1000;
  auto wave = [&](const std::vector<size_t> &Draw,
                  service::ArtifactCache &Cache, bool Warm) {
    std::vector<SessionRun> Runs(Draw.size());
    std::atomic<size_t> Next{0};
    std::atomic<unsigned> Finished{0};
    auto Client = [&] {
      for (size_t I; (I = Next.fetch_add(1)) < Draw.size();) {
        SessionRun &S = Runs[I];
        S.Prog = Draw[I];
        S.Warm = Warm;
        core::PipelineConfig C = SessionConfig;
        C.Artifacts = &Cache;
        service::SessionOptions SO;
        SO.Seed = CanonicalSeed;
        SO.StageHook = [&S](const char *Stage) { S.boundary(Stage); };
        S.Submit = Clock::now();
        auto Id = M->submit(requestFor(Progs[S.Prog], C), std::move(SO));
        if (Id)
          S.Res = M->wait(*Id);
        else
          S.Res.Error = Id.error().message();
        S.Done = Clock::now();
      }
      ++Finished;
    };
    std::vector<std::thread> Clients;
    for (unsigned I = 0; I != TB.Sessions; ++I)
      Clients.emplace_back(Client);
    // The sessions leave host threads free (thread budget), so the host
    // speed is sampled while they run.
    while (Finished.load() != TB.Sessions) {
      H.sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    for (std::thread &Th : Clients)
      Th.join();
    H.sample();

    for (const SessionRun &S : Runs) {
      const Reference &Want = Ref[S.Prog];
      const service::SessionResult &Res = S.Res;
      R.check(Res.Ok && Res.Deterministic &&
                  Res.RecordStateHash == Want.StateHash &&
                  Res.ReplayStateHash == Want.StateHash &&
                  Res.PlanFingerprint == Want.PlanFp &&
                  Res.LogBytes == Want.LogBytes,
              "session " + Progs[S.Prog].label() +
                  (Warm ? " (warm)" : " (cold)") +
                  ": ok, deterministic, and bit-identical to one-shot" +
                  (Res.Error.empty() ? "" : " (" + Res.Error + ")"));
      uint32_t Row = NextRow++;
      T.nameRow(Row, Progs[S.Prog].label() + (Warm ? " warm" : " cold"));
      int64_t Id = T.add("service.session", "service", Row, S.Submit, S.Done,
                         -1);
      if (!Res.Ok)
        continue;
      T.add("service.queue", "service", Row, S.Submit, S.Enter[AtAdmitted],
            Id);
      T.add("service.build", "codegen", Row, S.Leave[AtAdmitted],
            S.Enter[AtBuilt], Id);
      T.add("service.plan", "instrument", Row, S.Leave[AtBuilt],
            S.Enter[AtPlanned], Id);
      T.add("service.record", "runtime", Row, S.Leave[AtPlanned],
            S.Enter[AtRecorded], Id);
      T.add("service.replay", "runtime", Row, S.Leave[AtRecorded],
            S.Enter[AtReplayed], Id);
      for (int At = 0; At != NumBoundaries; ++At)
        T.add("bench.host_speed", "bench", Row, S.Enter[At], S.Leave[At], Id);
    }
    return Runs;
  };

  // Warm-up: one cold and one warm session on a throwaway cache.
  {
    T.setRecording(false);
    service::ArtifactCache Scratch;
    wave({0}, Scratch, false);
    wave({0}, Scratch, true);
    T.setRecording(true);
  }

  // Timed window: whole rounds of cold wave, restart, warm wave.
  std::vector<double> OpMs, QueueMs, BuildMs, PlanColdMs, PlanWarmMs,
      RecMsAll, RepMsAll, SaveMs, LoadMs;
  // Instructions and reference-speed ms of every session's record and
  // replay stages. Each program gets only a few sessions a window, too
  // few for per-program medians, so these rates are ratios of sums.
  double RecInst = 0, RecRefMs = 0, RepInst = 0, RepRefMs = 0;
  CacheCounts RoundCounts;
  Clock::time_point WindowStart = Clock::now();
  unsigned Rounds = 0;
  while (Rounds == 0 ||
         msBetween(WindowStart, Clock::now()) < Args.Seconds * 1000.0) {
    T.enter(Phase::Window, Rounds);
    std::vector<size_t> ColdDraw(N);
    for (size_t I = 0; I != N; ++I)
      ColdDraw[I] = I;
    Rng Order(deriveSeed(Args.Seed, Rounds, 0));
    for (size_t I = N - 1; I > 0; --I)
      std::swap(ColdDraw[I], ColdDraw[Order.nextBelow(I + 1)]);
    std::vector<size_t> WarmDraw(N);
    Rng Pick(deriveSeed(Args.Seed, Rounds, 1));
    for (size_t &W : WarmDraw)
      W = Pick.nextBelow(N);

    race::SummaryCache::global().clear();
    service::ArtifactCache Cold;
    std::vector<SessionRun> Runs = wave(ColdDraw, Cold, false);
    std::vector<uint8_t> Image;
    SaveMs.push_back(T.time("service.cache_save", "service", 0,
                            [&] { Image = Cold.serialize(); }));
    service::ArtifactCache Restarted;
    support::Expected<uint64_t> Loaded = uint64_t(0);
    LoadMs.push_back(T.time("service.cache_load", "service", 0,
                            [&] { Loaded = Restarted.loadBytes(Image); }));
    R.check(Loaded && *Loaded == N, "restart loads every plan");
    std::vector<SessionRun> WarmRuns = wave(WarmDraw, Restarted, true);
    Runs.insert(Runs.end(), WarmRuns.begin(), WarmRuns.end());

    CacheCounts C = cacheCounts(Cold), W = cacheCounts(Restarted);
    R.check(C.Hits == 0 && C.Misses == int64_t(N) && W.Hits == int64_t(N) &&
                W.Misses == 0,
            "cache counts: cold wave " + std::to_string(C.Hits) + " hit(s) " +
                std::to_string(C.Misses) + " miss(es), warm wave " +
                std::to_string(W.Hits) + " hit(s) " +
                std::to_string(W.Misses) + " miss(es)");
    RoundCounts = {C.Hits + W.Hits, C.Misses + W.Misses, W.Entries};

    // Per-layer stage times stay in host ms; end-to-end latencies and
    // rates are scaled to reference speed.
    for (const SessionRun &S : Runs) {
      if (!S.Res.Ok)
        continue;
      OpMs.push_back(S.latencyRefMs());
      QueueMs.push_back(msBetween(S.Submit, S.Enter[AtAdmitted]));
      BuildMs.push_back(S.stageMs(AtAdmitted, AtBuilt));
      (S.Warm ? PlanWarmMs : PlanColdMs)
          .push_back(S.stageMs(AtBuilt, AtPlanned));
      RecMsAll.push_back(S.stageMs(AtPlanned, AtRecorded));
      RepMsAll.push_back(S.stageMs(AtRecorded, AtReplayed));
      RecInst += Ref[S.Prog].RecInst;
      RecRefMs += S.stageRefMs(AtPlanned, AtRecorded);
      RepInst += Ref[S.Prog].RepInst;
      RepRefMs += S.stageRefMs(AtRecorded, AtReplayed);
    }
    ++Rounds;
  }
  Clock::time_point WindowEnd = Clock::now();

  R.e2e("setup_s", SetupS, "s");
  R.e2e("native_minst_per_s", mixMinstPerS(Canon.NatRates, Canon.NatWeights),
        "Minst/s");
  // Instructions per ms / 1000 = M instructions per second.
  R.e2e("record_minst_per_s", RecInst / RecRefMs / 1000.0, "Minst/s");
  R.e2e("replay_minst_per_s", RepInst / RepRefMs / 1000.0, "Minst/s");
  reportLatency(OpMs, "session", WindowStart, WindowEnd, H, R);
  R.e2e("sim_record_overhead", geomean(Canon.Overheads), "ratio");
  R.e2e("log_bytes_per_minst", Canon.Bytes / (Canon.Inst / 1e6), "B/Minst");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");

  if (!T.enabled())
    return R;
  reportStaticLayers(T.spans(), B, R);
  reportCanonicalLayers(T.spans(), Canon, R);
  R.layer("service.queue_ms", median(QueueMs), "ms");
  R.layer("service.build_ms", median(BuildMs), "ms");
  R.layer("service.plan_cold_ms", median(PlanColdMs), "ms");
  R.layer("service.plan_warm_ms", median(PlanWarmMs), "ms");
  R.layer("service.record_ms", median(RecMsAll), "ms");
  R.layer("service.replay_ms", median(RepMsAll), "ms");
  R.layer("service.cache_hits", RoundCounts.Hits, "count");
  R.layer("service.cache_misses", RoundCounts.Misses, "count");
  R.layer("service.cache_save_ms", median(SaveMs), "ms");
  R.layer("service.cache_load_ms", median(LoadMs), "ms");
  reportTrace(T, WindowStart, WindowEnd, Rounds, UntracedCanonMs, Canon.Ms,
              R);
  return R;
}
