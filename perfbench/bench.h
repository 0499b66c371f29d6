//===- perfbench/bench.h - The repo benchmark: shared pieces ----*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared vocabulary of the repo benchmark (see perfbench/README.md):
/// the input generator, the thread budget, the span tracer that times
/// every layer from outside, and the result a workload reports.
///
/// The benchmark only calls the library's public entry points; every
/// timing is taken around a call into a layer, never inside it.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_PERFBENCH_BENCH_H
#define CHIMERA_PERFBENCH_BENCH_H

#include "core/Pipeline.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace chimera {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

// -- Inputs -----------------------------------------------------------------

/// One program the generator can emit: a workload template at a scale
/// and worker count.
struct Program {
  workloads::WorkloadKind Kind;
  unsigned Workers = 4;
  unsigned Scale = 0;
  /// "ocean_w4".
  std::string label() const;
};

/// Every program any workload can draw: the nine templates at their
/// evaluation scales, at 2 and 4 workers. The benchmark's self-test
/// (selftest.cpp) replays each one; nothing outside this list is run.
const std::vector<Program> &inputSpace();

/// Scales known to break the workload templates (array overflows), at
/// any worker count: pbzip2 at Scale >= 20, ocean at 32, radix at 24 and
/// 32. inputSpace() must contain none of them.
bool knownInvalid(workloads::WorkloadKind Kind, unsigned Scale);

/// The inputSpace() entry for \p Kind at \p Workers.
const Program &program(workloads::WorkloadKind Kind, unsigned Workers);

/// A pipeline request for \p P with the benchmark's fixed settings.
core::PipelineRequest requestFor(const Program &P,
                                 core::PipelineConfig Config);

/// A 64-bit seed mixed from the workload seed and two indices
/// (splitmix64), so every recording in a run has its own seed and the
/// same workload seed always yields the same ones.
uint64_t deriveSeed(uint64_t WorkloadSeed, uint64_t A, uint64_t B);

/// Seed of the canonical pass: fixed, so the counts and the deterministic
/// metrics it yields repeat exactly across runs and workload seeds.
inline constexpr uint64_t CanonicalSeed = 2012;

// -- Thread budget ----------------------------------------------------------

/// Busy host threads never exceed nproc: a pipeline pool of N workers
/// plus the calling thread (which helps in parallelFor) is N + 1.
struct ThreadBudget {
  unsigned AnalysisJobs = 3;        ///< Pipeline pool in splash-rr/io-stream.
  unsigned ReplayJobs = 4;          ///< replayParallel width.
  unsigned Sessions = 2;            ///< SessionManager concurrency.
  unsigned SessionAnalysisJobs = 1; ///< Per-session pool (inline).
};
ThreadBudget threadBudget();

// -- Tracing ----------------------------------------------------------------

/// Which part of a run a span belongs to.
enum class Phase : uint8_t { Setup, Canonical, Window };
const char *phaseName(Phase P);

struct Span {
  const char *Name = "";
  const char *Layer = "";
  Clock::time_point Start, End;
  int64_t Parent = -1; ///< Index into the span list, -1 for a root.
  uint32_t Row = 0;    ///< Program or session the span belongs to.
  Phase Ph = Phase::Setup;
  uint32_t Cycle = 0;  ///< Setup repetition, window cycle, or round.
  double ms() const { return msBetween(Start, End); }
};

/// Times calls into the layers. Every measurement the benchmark takes
/// goes through time(); with tracing on, each call also leaves a span
/// (kept in memory until the run ends), nested under the span open on
/// the calling thread.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return Enabled; }
  /// Suspends span recording (timings are still returned).
  void setRecording(bool On) { Recording = On; }

  /// Sets the phase and cycle stamped on later spans. Call only while
  /// no other thread records spans.
  void enter(Phase P, uint32_t Cycle) {
    CurPhase = P;
    CurCycle = Cycle;
  }

  /// Runs \p Fn, returns its wall time in ms, and records a span named
  /// \p Name in \p Layer on \p Row when tracing is on.
  template <typename FnT>
  double time(const char *Name, const char *Layer, uint32_t Row, FnT &&Fn) {
    int64_t Id = open(Name, Layer, Row);
    Clock::time_point Start = Clock::now();
    Fn();
    Clock::time_point End = Clock::now();
    close(Id, Start, End);
    return msBetween(Start, End);
  }

  /// Records an already finished span (session stages, which run on the
  /// service's workers); returns its id for use as a parent, -1 when not
  /// recording.
  int64_t add(const char *Name, const char *Layer, uint32_t Row,
              Clock::time_point Start, Clock::time_point End,
              int64_t Parent);

  /// Labels \p Row in the Chrome trace.
  void nameRow(uint32_t Row, const std::string &Name);

  /// Snapshot of all spans (call after every recording thread is done).
  const std::vector<Span> &spans() const { return Spans; }

  /// Chrome trace_event JSON, one row (tid) per program or session.
  std::string chromeJson() const;

private:
  int64_t open(const char *Name, const char *Layer, uint32_t Row);
  void close(int64_t Id, Clock::time_point Start, Clock::time_point End);

  const bool Enabled;
  bool Recording = true;
  Phase CurPhase = Phase::Setup;
  uint32_t CurCycle = 0;
  Clock::time_point Origin = Clock::now();
  std::mutex Mu;
  std::vector<Span> Spans;
  std::map<uint32_t, std::string> RowNames;
};

/// Per-layer self time over the spans of phase \p P: each span's
/// duration minus the part its children cover, summed by layer (ms).
std::map<std::string, double> selfTimeByLayer(const std::vector<Span> &S,
                                              Phase P);

/// Time in [\p From, \p To] that no span of phase \p P covers, in ms.
double uncoveredMs(const std::vector<Span> &S, Phase P,
                   Clock::time_point From, Clock::time_point To);

/// Median over cycles of the per-cycle sum of span \p Name's durations
/// in phase \p P (0 when the span never ran).
double medianPerCycleMs(const std::vector<Span> &S, const char *Name,
                        Phase P);

// -- Host speed -------------------------------------------------------------

/// One host-speed sample on the calling thread, in ms: the geometric mean
/// of two fixed CPU kernels (no library code), one with the simulator's
/// memory behaviour and one with its interpreter's dispatch behaviour.
/// Thread-safe.
double hostKernelMs();

/// The speed of the host, sampled on the benchmark's own thread between
/// measurements. This runs on shared virtual CPUs whose speed moves by
/// tens of percent over seconds and between processes (co-tenants,
/// frequency), which swamps a code change's effect on raw wall time. A
/// time measured over [A, B] is scaled to the reference host, on which a
/// sample reads RefKernelMs, by the samples around [A, B]. Every
/// end-to-end time and rate is reported at reference speed.
class HostSpeed {
public:
  static constexpr double RefKernelMs = 1.0;

  /// Takes one hostKernelMs() sample and keeps it.
  void sample();

  /// Reference-host ms per host ms over [A, B]: RefKernelMs over the mean
  /// kernel time of the samples inside [A, B] and the nearest sample on
  /// each side (1 when there are none).
  double toRef(Clock::time_point A, Clock::time_point B) const;

  /// Median kernel time over all samples (for the report).
  double medianKernelMs() const;

private:
  std::vector<std::pair<Clock::time_point, double>> Samples; ///< In order.
};

/// Tracer::time followed by a host-speed sample; returns the call's time
/// at reference speed.
template <typename FnT>
double timeAtRef(Tracer &T, HostSpeed &H, const char *Name, const char *Layer,
                 uint32_t Row, FnT &&Fn) {
  Clock::time_point Start = Clock::now();
  double Ms = T.time(Name, Layer, Row, std::forward<FnT>(Fn));
  Clock::time_point End = Clock::now();
  H.sample();
  return Ms * H.toRef(Start, End);
}

// -- Statistics -------------------------------------------------------------

double median(std::vector<double> V);
/// Linear-interpolated quantile, Q in [0, 1].
double quantile(std::vector<double> V, double Q);
/// Highest whole percentile with at least ten samples above it (50 when
/// there are too few samples for any higher one).
unsigned tailPercentile(size_t Samples);
double geomean(const std::vector<double> &V);

/// Speed of one pass over a program mix, in M inst/s: the mix's
/// instructions (\p Weights, one per program) over the time each program
/// takes at the median of its per-run speeds \p Rates (inst/ms, one
/// list per program, already at reference host speed).
double mixMinstPerS(const std::vector<std::vector<double>> &Rates,
                    const std::vector<double> &Weights);

/// Peak resident set size of this process, MB.
double peakRssMb();

// -- Results ----------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one workload run reports. Every checked operation counts in
/// Attempted; a check that fails counts in Failed and names itself on
/// stderr.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Human-readable report lines (tail percentile, trace summary).
  std::vector<std::string> Notes;

  /// Counts one checked operation; returns \p Ok.
  bool check(bool Ok, const std::string &What);
  void e2e(const std::string &Name, double Value, const std::string &Unit) {
    EndToEnd.push_back({Name, Value, Unit});
  }
  void layer(const std::string &Name, double Value, const std::string &Unit) {
    PerLayer.push_back({Name, Value, Unit});
  }
  void note(const std::string &Line) { Notes.push_back(Line); }
};

/// Settings of one run, from the command line.
struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".bench_build/out";
};

// -- Shared workload steps --------------------------------------------------

/// One program's pipeline, built cold through every stage accessor.
struct Built {
  Program Prog;
  std::unique_ptr<core::ChimeraPipeline> P;
  uint64_t RacePairs = 0;
};

/// Builds every program in \p Progs cold, \p Reps times (clearing the
/// process summary cache before each build and checking it served no
/// hits), timing each stage accessor in dependency order. Returns the
/// last repetition's pipelines; \p SetupSeconds receives the median
/// over repetitions of the total build time at reference host speed.
std::vector<Built> buildCold(const std::vector<Program> &Progs,
                             const core::PipelineConfig &Config,
                             unsigned Reps, Tracer &T, HostSpeed &H,
                             Result &R, double &SetupSeconds);

/// True when \p A and \p B agree bit for bit on state hash and output.
bool sameResult(const rt::ExecutionResult &A, const rt::ExecutionResult &B);

/// Adds the static-stage per-layer metrics (setup spans) to \p R.
void reportStaticLayers(const std::vector<Span> &S,
                        const std::vector<Built> &B, Result &R);

/// Record-mode counters from a pipeline's metrics() snapshot
/// (observability on): weak-timeout polls and scheduler quanta.
struct ObsCounts {
  uint64_t WeakPolls = 0;
  uint64_t Quanta = 0;
};

/// P.record(Seed); with \p Obs, also adds the run's ObsCounts to it.
rt::ExecutionResult recordCounting(core::ChimeraPipeline &P, uint64_t Seed,
                                   ObsCounts *Obs);

/// What a canonical pass counts: simulated work and log sizes of the
/// recordings at CanonicalSeed, plus the host time of the whole pass.
/// Workloads extend it with their own counts.
struct CanonicalCounts {
  double Ms = 0;
  uint64_t Inst = 0, Weak = 0, Sync = 0, Events = 0, Revocations = 0;
  uint64_t Bytes = 0, Compressed = 0;
  ObsCounts Obs;
  /// Record / native simulated makespan, per program.
  std::vector<double> Overheads;
  /// Native and record instruction counts, per program (the weights of
  /// mixMinstPerS).
  std::vector<double> NatWeights, RecWeights;

  /// Adds one program's recording (and its native run at the same seed).
  void add(const rt::RunStats &Rec, const rt::RunStats &Nat, size_t Encoded,
           size_t Zipped);
  bool sameCounts(const CanonicalCounts &O) const {
    return Inst == O.Inst && Weak == O.Weak && Sync == O.Sync &&
           Events == O.Events && Revocations == O.Revocations &&
           Bytes == O.Bytes && Compressed == O.Compressed &&
           Obs.WeakPolls == O.Obs.WeakPolls && Obs.Quanta == O.Obs.Quanta;
  }
};

/// Runs the canonical pass \p Pass (fixed seed; warms the run up and
/// yields the deterministic metrics). An untraced run makes it once; a
/// traced run makes it three times — warm-up, untraced, traced — checks
/// the counts repeat exactly, and stores the untraced pass's time in
/// \p UntracedMs so the traced pass measures the tracing overhead.
/// Returns the last pass.
template <typename PassT, typename FnT>
PassT runCanonical(Tracer &T, FnT &&Pass, double &UntracedMs, Result &R) {
  T.setRecording(false);
  PassT C = Pass();
  UntracedMs = C.Ms;
  if (T.enabled()) {
    UntracedMs = Pass().Ms;
    T.setRecording(true);
    PassT Traced = Pass();
    R.check(Traced.sameCounts(C), "canonical pass counts repeat exactly");
    C = std::move(Traced);
  }
  T.setRecording(true);
  return C;
}

/// Adds the per-layer metrics every workload's canonical pass yields:
/// runtime times and counts, encode/compress times, and log sizes.
void reportCanonicalLayers(const std::vector<Span> &S,
                           const CanonicalCounts &C, Result &R);

/// Adds the trace summary (self time per layer over the whole run,
/// uncovered window time per cycle of \p Cycles, tracing overhead) to
/// \p R as per-layer metrics and notes.
void reportTrace(const Tracer &T, Clock::time_point WindowStart,
                 Clock::time_point WindowEnd, unsigned Cycles,
                 double UntracedCanonicalMs, double TracedCanonicalMs,
                 Result &R);

/// Adds ops_per_s (end to end) and the latency median and tail
/// (per layer, bench.op_*) of the operations the window [\p Start,
/// \p End] completed, whose latencies \p OpMs are already at reference
/// speed; notes the tail percentile, the sample count, and the host
/// speed.
void reportLatency(std::vector<double> OpMs, const char *OpName,
                   Clock::time_point Start, Clock::time_point End,
                   const HostSpeed &H, Result &R);

// -- Workloads --------------------------------------------------------------

Result runSplashRR(const RunArgs &Args, Tracer &T);
Result runIoStream(const RunArgs &Args, Tracer &T);
Result runServiceMix(const RunArgs &Args, Tracer &T);

} // namespace perfbench
} // namespace chimera

#endif // CHIMERA_PERFBENCH_BENCH_H
