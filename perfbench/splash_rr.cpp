//===- perfbench/splash_rr.cpp - Workload splash-rr -----------------------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four SPLASH-2 kernels (ocean, water, fft, radix) at their
/// evaluation scales, 4 workers on 8 simulated cores. A closed loop on
/// one thread: for each record seed derived from the workload seed, run
/// the original program natively, record the instrumented one, replay
/// the log in memory, and check the replay bit for bit. Barrier phases
/// with loop-lock and basic-block weak-lock traffic put nearly all host
/// time in the simulator; logs stay small, so the log engine idles.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "replay/LogCodec.h"
#include "support/Compressor.h"

using namespace chimera;
using namespace chimera::perfbench;
using workloads::WorkloadKind;

namespace {

constexpr unsigned SetupReps = 7;

/// Results of one native/record/replay round trip, with each call's time
/// at reference host speed.
struct RoundTrip {
  rt::ExecutionResult Nat, Rec, Rep;
  double NatMs = 0, RecMs = 0, RepMs = 0;
  double opMs() const { return NatMs + RecMs + RepMs; }
};

RoundTrip roundTrip(core::ChimeraPipeline &P, uint64_t Seed, uint32_t Row,
                    Tracer &T, HostSpeed &H, ObsCounts *Obs = nullptr) {
  RoundTrip X;
  T.time("bench.op", "bench", Row, [&] {
    X.NatMs = timeAtRef(T, H, "runtime.native", "runtime", Row,
                        [&] { X.Nat = P.runOriginalNative(Seed); });
    X.RecMs = timeAtRef(T, H, "runtime.record", "runtime", Row,
                        [&] { X.Rec = recordCounting(P, Seed, Obs); });
    X.RepMs = timeAtRef(T, H, "runtime.replay", "runtime", Row,
                        [&] { X.Rep = P.replay(X.Rec.Log); });
  });
  return X;
}

bool roundTripOk(const RoundTrip &X, const Program &Prog, uint64_t Seed,
                 Result &R) {
  std::string Why = !X.Nat.Ok   ? "native: " + X.Nat.Error
                    : !X.Rec.Ok ? "record: " + X.Rec.Error
                    : !sameResult(X.Rec, X.Rep)
                        ? "replay differs: " + X.Rep.Error
                        : "";
  return R.check(Why.empty(), Prog.label() + " seed " + std::to_string(Seed) +
                                  ": native, record, bit-identical replay" +
                                  (Why.empty() ? "" : " (" + Why + ")"));
}

} // namespace

Result perfbench::runSplashRR(const RunArgs &Args, Tracer &T) {
  Result R;
  core::PipelineConfig Config;
  Config.AnalysisJobs = threadBudget().AnalysisJobs;
  if (T.enabled())
    Config.Observability = obs::ObsMode::Sampled;

  std::vector<Program> Progs;
  for (WorkloadKind K : {WorkloadKind::Ocean, WorkloadKind::Water,
                         WorkloadKind::Fft, WorkloadKind::Radix})
    Progs.push_back(program(K, 4));

  HostSpeed H;
  double SetupS = 0;
  std::vector<Built> B =
      buildCold(Progs, Config, SetupReps, T, H, R, SetupS);
  if (R.Failed)
    return R;

  auto CanonicalPass = [&] {
    CanonicalCounts C;
    T.enter(Phase::Canonical, 0);
    Clock::time_point Start = Clock::now();
    for (size_t I = 0; I != B.size(); ++I) {
      const uint32_t Row = static_cast<uint32_t>(I + 1);
      RoundTrip X = roundTrip(*B[I].P, CanonicalSeed, Row, T, H,
                              T.enabled() ? &C.Obs : nullptr);
      std::vector<uint8_t> Encoded;
      size_t Zipped = 0;
      T.time("replay.encode", "replay", Row,
             [&] { Encoded = replay::encodeLog(X.Rec.Log); });
      T.time("replay.compress", "replay", Row,
             [&] { Zipped = lzCompress(Encoded).size(); });
      if (roundTripOk(X, B[I].Prog, CanonicalSeed, R))
        C.add(X.Rec.Stats, X.Nat.Stats, Encoded.size(), Zipped);
    }
    C.Ms = msBetween(Start, Clock::now());
    return C;
  };
  double UntracedCanonMs = 0;
  CanonicalCounts Canon =
      runCanonical<CanonicalCounts>(T, CanonicalPass, UntracedCanonMs, R);
  if (R.Failed)
    return R;

  // Timed window: whole cycles over the four programs until the time is
  // up, each recording at its own seed. Per program, the speed (inst/ms
  // at reference host speed) of every run.
  std::vector<std::vector<double>> NatRate(B.size()), RecRate(B.size()),
      RepRate(B.size());
  std::vector<double> OpMs;
  Clock::time_point WindowStart = Clock::now();
  unsigned Cycles = 0;
  while (Cycles == 0 ||
         msBetween(WindowStart, Clock::now()) < Args.Seconds * 1000.0) {
    T.enter(Phase::Window, Cycles);
    for (size_t I = 0; I != B.size(); ++I) {
      uint64_t Seed = deriveSeed(Args.Seed, Cycles, I);
      RoundTrip X =
          roundTrip(*B[I].P, Seed, static_cast<uint32_t>(I + 1), T, H);
      roundTripOk(X, B[I].Prog, Seed, R);
      NatRate[I].push_back(X.Nat.Stats.Instructions / X.NatMs);
      RecRate[I].push_back(X.Rec.Stats.Instructions / X.RecMs);
      RepRate[I].push_back(X.Rep.Stats.Instructions / X.RepMs);
      OpMs.push_back(X.opMs());
    }
    ++Cycles;
  }
  Clock::time_point WindowEnd = Clock::now();

  R.e2e("setup_s", SetupS, "s");
  R.e2e("native_minst_per_s", mixMinstPerS(NatRate, Canon.NatWeights),
        "Minst/s");
  R.e2e("record_minst_per_s", mixMinstPerS(RecRate, Canon.RecWeights),
        "Minst/s");
  R.e2e("replay_minst_per_s", mixMinstPerS(RepRate, Canon.RecWeights),
        "Minst/s");
  reportLatency(OpMs, "round trip", WindowStart, WindowEnd, H, R);
  R.e2e("sim_record_overhead", geomean(Canon.Overheads), "ratio");
  R.e2e("log_bytes_per_minst", Canon.Bytes / (Canon.Inst / 1e6), "B/Minst");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");

  if (T.enabled()) {
    reportStaticLayers(T.spans(), B, R);
    reportCanonicalLayers(T.spans(), Canon, R);
    reportTrace(T, WindowStart, WindowEnd, Cycles, UntracedCanonMs, Canon.Ms,
                R);
  }
  return R;
}
