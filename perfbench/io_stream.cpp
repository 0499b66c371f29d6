//===- perfbench/io_stream.cpp - Workload io-stream -----------------------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The five I/O-bound programs (aget, pfscan, pbzip2, knot, apache) at
/// their evaluation scales, 4 workers on 8 simulated cores. A closed
/// loop on one thread: run the original natively, record through the
/// streaming log engine to a file, open it, scan it to End, and replay
/// it epoch-parallel at 1 and at 4 jobs, checking both replays bit for
/// bit. These programs log about 5x more bytes per instruction than the
/// SPLASH kernels, so the log engine and epoch-parallel replay do their
/// most work here, and blocked I/O drives the scheduler's sleep/wake
/// path rather than its weak-lock path.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "replay/LogCodec.h"
#include "replay/LogReader.h"
#include "support/Compressor.h"

#include <cstdio>
#include <fstream>
#include <iterator>

using namespace chimera;
using namespace chimera::perfbench;
using workloads::WorkloadKind;

namespace {

constexpr unsigned SetupReps = 5;

/// Log events between checkpoints: every program's log holds at least
/// four checkpoints, so replayParallel(4) always gets four epochs.
constexpr uint64_t CheckpointEvery = 1024;

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In), {});
}

/// One streamed round trip: native run, streamed record, open, scan, and
/// replay from the file at 1 and at ReplayJobs jobs, with each call's
/// time at reference host speed.
struct StreamTrip {
  rt::ExecutionResult Nat, Rec;
  replay::ParallelReplayer::Result Seq, Par;
  bool ScanOk = false;
  std::string Error;
  uint64_t Decoded = 0;    ///< Ordered + Input + Revocation records.
  uint64_t FileBytes = 0;
  double NatMs = 0, RecMs = 0, ReadMs = 0, SeqMs = 0, ParMs = 0;
  double opMs() const { return NatMs + RecMs + ReadMs + SeqMs + ParMs; }
};

StreamTrip streamTrip(core::ChimeraPipeline &P, const std::string &Path,
                      uint64_t Seed, uint32_t Row, unsigned Jobs, Tracer &T,
                      HostSpeed &H) {
  StreamTrip X;
  T.time("bench.op", "bench", Row, [&] {
    X.NatMs = timeAtRef(T, H, "runtime.native", "runtime", Row,
                        [&] { X.Nat = P.runOriginalNative(Seed); });
    X.RecMs = timeAtRef(T, H, "runtime.record_streamed", "runtime", Row, [&] {
      auto Rec = P.recordStreamed(Path, Seed);
      if (Rec)
        X.Rec = Rec.take();
      else
        X.Error = "recordStreamed: " + Rec.error().message();
    });
    if (!X.Rec.Ok)
      return;
    std::unique_ptr<replay::LogReader> Reader;
    X.ReadMs += timeAtRef(T, H, "replay.open", "replay", Row, [&] {
      std::vector<uint8_t> Bytes = readFile(Path);
      X.FileBytes = Bytes.size();
      replay::LogReader::Options O;
      O.ExpectedFingerprint = P.workloadFingerprint();
      O.CheckFingerprint = true;
      auto Opened = replay::LogReader::open(std::move(Bytes), O);
      if (Opened)
        Reader = std::make_unique<replay::LogReader>(Opened.take());
      else
        X.Error = "open: " + Opened.error().message();
    });
    if (!Reader)
      return;
    X.ReadMs += timeAtRef(T, H, "replay.scan", "replay", Row, [&] {
      replay::LogReader::Record Rec;
      for (;;) {
        auto More = Reader->next(Rec);
        if (!More) {
          X.Error = "scan: " + More.error().message();
          return;
        }
        if (!*More)
          break;
        if (Rec.Tag == replay::RecordTag::Ordered ||
            Rec.Tag == replay::RecordTag::Input ||
            Rec.Tag == replay::RecordTag::Revocation)
          ++X.Decoded;
      }
      X.ScanOk = Reader->sawEnd();
    });
    X.SeqMs = timeAtRef(T, H, "replay.seq", "replay", Row,
                        [&] { X.Seq = P.replayParallel(*Reader, 1); });
    X.ParMs = timeAtRef(T, H, "replay.par4", "replay", Row,
                        [&] { X.Par = P.replayParallel(*Reader, Jobs); });
  });
  return X;
}

bool parallelOk(const replay::ParallelReplayer::Result &Par,
                const rt::ExecutionResult &Rec) {
  return sameResult(Rec, Par.Exec) && !Par.FellBackSequential &&
         Par.LogComplete;
}

bool streamTripOk(const StreamTrip &X, const Program &Prog, uint64_t Seed,
                  unsigned Jobs, Result &R) {
  std::string Why;
  if (!X.Nat.Ok)
    Why = "native: " + X.Nat.Error;
  else if (!X.Error.empty())
    Why = X.Error;
  else if (!X.ScanOk)
    Why = "scan stopped before End";
  else if (X.Decoded != X.Rec.Stats.LogEvents)
    Why = "decoded " + std::to_string(X.Decoded) + " log records, recorded " +
          std::to_string(X.Rec.Stats.LogEvents);
  else if (!parallelOk(X.Seq, X.Rec))
    Why = "replayParallel(1) differs or fell back";
  else if (!parallelOk(X.Par, X.Rec))
    Why = "replayParallel(" + std::to_string(Jobs) + ") differs or fell back";
  else if (X.Par.Epochs != Jobs)
    Why = std::to_string(X.Par.Epochs) + " epochs instead of " +
          std::to_string(Jobs);
  return R.check(Why.empty(), Prog.label() + " seed " + std::to_string(Seed) +
                                  ": streamed record and replays" +
                                  (Why.empty() ? "" : " (" + Why + ")"));
}

double imbalancePct(const std::vector<uint64_t> &EpochUs) {
  if (EpochUs.empty())
    return 0;
  double Sum = 0, Max = 0;
  for (uint64_t U : EpochUs) {
    Sum += static_cast<double>(U);
    Max = std::max(Max, static_cast<double>(U));
  }
  double Mean = Sum / static_cast<double>(EpochUs.size());
  return Mean > 0 ? (Max / Mean - 1.0) * 100.0 : 0.0;
}

} // namespace

Result perfbench::runIoStream(const RunArgs &Args, Tracer &T) {
  Result R;
  const ThreadBudget TB = threadBudget();
  core::PipelineConfig Config;
  Config.AnalysisJobs = TB.AnalysisJobs;
  Config.CheckpointEvery = CheckpointEvery;
  if (T.enabled())
    Config.Observability = obs::ObsMode::Sampled;

  std::vector<Program> Progs;
  for (WorkloadKind K : {WorkloadKind::Aget, WorkloadKind::Pfscan,
                         WorkloadKind::Pbzip2, WorkloadKind::Knot,
                         WorkloadKind::Apache})
    Progs.push_back(program(K, 4));

  HostSpeed H;
  double SetupS = 0;
  std::vector<Built> B =
      buildCold(Progs, Config, SetupReps, T, H, R, SetupS);
  if (R.Failed)
    return R;
  const std::string Path = Args.OutDir + "/io-stream.clg";

  // Canonical pass: also records in memory and replays that log, so the
  // streamed file can be checked against it and the log engine's share
  // split off. A traced run records in memory once more after streaming;
  // the mean of the two in-memory records is the base of replay.write_ms.
  struct IoCanonical : CanonicalCounts {
    uint64_t Stored = 0, Epochs = 0;
    std::vector<std::string> Lines;
  };
  auto CanonicalPass = [&] {
    IoCanonical C;
    T.enter(Phase::Canonical, 0);
    Clock::time_point Start = Clock::now();
    for (size_t I = 0; I != B.size(); ++I) {
      core::ChimeraPipeline &P = *B[I].P;
      const Program &Prog = B[I].Prog;
      const uint32_t Row = static_cast<uint32_t>(I + 1);
      rt::ExecutionResult Rec, Rep;
      T.time("runtime.record", "runtime", Row, [&] {
        Rec = recordCounting(P, CanonicalSeed,
                             T.enabled() ? &C.Obs : nullptr);
      });
      T.time("runtime.replay", "runtime", Row,
             [&] { Rep = P.replay(Rec.Log); });
      StreamTrip X =
          streamTrip(P, Path, CanonicalSeed, Row, TB.ReplayJobs, T, H);
      if (T.enabled())
        T.time("runtime.record_again", "runtime", Row,
               [&] { P.record(CanonicalSeed); });
      std::vector<uint8_t> Encoded;
      size_t Zipped = 0;
      T.time("replay.encode", "replay", Row,
             [&] { Encoded = replay::encodeLog(X.Rec.Log); });
      T.time("replay.compress", "replay", Row,
             [&] { Zipped = lzCompress(Encoded).size(); });
      bool Ok = streamTripOk(X, Prog, CanonicalSeed, TB.ReplayJobs, R);
      Ok = R.check(sameResult(Rec, Rep) && sameResult(Rec, X.Rec) &&
                       replay::encodeLog(Rec.Log) == Encoded,
                   Prog.label() +
                       ": in-memory replay and streamed log match record") &&
           Ok;
      if (!Ok)
        continue;
      const rt::RunStats &S = X.Rec.Stats;
      C.add(S, X.Nat.Stats, Encoded.size(), Zipped);
      C.Stored += X.FileBytes;
      C.Epochs += X.Par.Epochs;
      C.Lines.push_back(Prog.label() + ": " + std::to_string(S.Instructions) +
                        " instructions, " + std::to_string(S.LogEvents) +
                        " log events, " + std::to_string(X.FileBytes) +
                        " bytes stored, " + std::to_string(X.Par.Epochs) +
                        " epochs");
    }
    C.Ms = msBetween(Start, Clock::now());
    return C;
  };
  double UntracedCanonMs = 0;
  IoCanonical Canon =
      runCanonical<IoCanonical>(T, CanonicalPass, UntracedCanonMs, R);
  for (const std::string &Line : Canon.Lines)
    R.note(Line);
  if (R.Failed)
    return R;

  // Timed window: whole cycles over the five programs. Per program, the
  // speed (inst/ms at reference host speed) of every run.
  std::vector<std::vector<double>> NatRate(B.size()), RecRate(B.size()),
      SeqRate(B.size());
  std::vector<double> OpMs, Imbalance;
  uint64_t Fallbacks = 0;
  Clock::time_point WindowStart = Clock::now();
  unsigned Cycles = 0;
  while (Cycles == 0 ||
         msBetween(WindowStart, Clock::now()) < Args.Seconds * 1000.0) {
    T.enter(Phase::Window, Cycles);
    for (size_t I = 0; I != B.size(); ++I) {
      uint64_t Seed = deriveSeed(Args.Seed, Cycles, I);
      StreamTrip X = streamTrip(*B[I].P, Path, Seed,
                                static_cast<uint32_t>(I + 1), TB.ReplayJobs,
                                T, H);
      streamTripOk(X, B[I].Prog, Seed, TB.ReplayJobs, R);
      Fallbacks += X.Seq.FellBackSequential + X.Par.FellBackSequential;
      Imbalance.push_back(imbalancePct(X.Par.EpochWallUs));
      NatRate[I].push_back(X.Nat.Stats.Instructions / X.NatMs);
      RecRate[I].push_back(X.Rec.Stats.Instructions / X.RecMs);
      SeqRate[I].push_back(X.Rec.Stats.Instructions / X.SeqMs);
      OpMs.push_back(X.opMs());
    }
    ++Cycles;
  }
  Clock::time_point WindowEnd = Clock::now();
  std::remove(Path.c_str());

  R.e2e("setup_s", SetupS, "s");
  R.e2e("native_minst_per_s", mixMinstPerS(NatRate, Canon.NatWeights),
        "Minst/s");
  R.e2e("record_minst_per_s", mixMinstPerS(RecRate, Canon.RecWeights),
        "Minst/s");
  R.e2e("replay_minst_per_s", mixMinstPerS(SeqRate, Canon.RecWeights),
        "Minst/s");
  reportLatency(OpMs, "streamed round trip", WindowStart, WindowEnd, H, R);
  R.e2e("sim_record_overhead", geomean(Canon.Overheads), "ratio");
  R.e2e("log_bytes_per_minst", Canon.Stored / (Canon.Inst / 1e6), "B/Minst");
  R.e2e("peak_rss_mb", peakRssMb(), "MB");

  if (!T.enabled())
    return R;
  const std::vector<Span> &S = T.spans();
  auto CanonMs = [&](const char *Name) {
    return medianPerCycleMs(S, Name, Phase::Canonical);
  };
  reportStaticLayers(S, B, R);
  reportCanonicalLayers(S, Canon, R);
  R.layer("replay.write_ms",
          CanonMs("runtime.record_streamed") -
              (CanonMs("runtime.record") + CanonMs("runtime.record_again")) /
                  2,
          "ms");
  R.layer("replay.open_ms", CanonMs("replay.open"), "ms");
  R.layer("replay.scan_ms", CanonMs("replay.scan"), "ms");
  R.layer("replay.seq_ms", CanonMs("replay.seq"), "ms");
  R.layer("replay.par4_ms", CanonMs("replay.par4"), "ms");
  R.layer("replay.par4_speedup",
          CanonMs("replay.seq") / CanonMs("replay.par4"), "ratio");
  R.layer("replay.epochs", Canon.Epochs, "count");
  R.layer("replay.fallbacks", Fallbacks, "count");
  R.layer("replay.imbalance_pct", median(Imbalance), "%");
  R.layer("replay.bytes_stored", Canon.Stored, "B");
  reportTrace(T, WindowStart, WindowEnd, Cycles, UntracedCanonMs, Canon.Ms,
              R);
  return R;
}
