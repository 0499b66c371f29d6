//===- perfbench/bench.cpp - The repo benchmark: shared pieces ------------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "race/SummaryCache.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

using namespace chimera;
using namespace chimera::perfbench;
using workloads::WorkloadKind;

// -- Inputs -----------------------------------------------------------------

std::string Program::label() const {
  return std::string(workloads::workloadInfo(Kind).Name) + "_w" +
         std::to_string(Workers);
}

bool perfbench::knownInvalid(WorkloadKind Kind, unsigned Scale) {
  switch (Kind) {
  case WorkloadKind::Pbzip2:
    return Scale >= 20; // Faults in compress_block.
  case WorkloadKind::Ocean:
    return Scale == 32; // Faults in init_grid.
  case WorkloadKind::Radix:
    return Scale == 24 || Scale == 32; // Races / diverging replay.
  default:
    return false;
  }
}

const std::vector<Program> &perfbench::inputSpace() {
  static const std::vector<Program> Space = [] {
    std::vector<Program> S;
    for (WorkloadKind K : workloads::allWorkloads())
      for (unsigned Workers : {2u, 4u})
        S.push_back({K, Workers, workloads::evalParams(K, Workers).Scale});
    return S;
  }();
  return Space;
}

const Program &perfbench::program(WorkloadKind Kind, unsigned Workers) {
  for (const Program &P : inputSpace())
    if (P.Kind == Kind && P.Workers == Workers)
      return P;
  std::fprintf(stderr, "perfbench: program outside the input space\n");
  std::abort();
}

core::PipelineRequest perfbench::requestFor(const Program &P,
                                            core::PipelineConfig Config) {
  core::PipelineRequest R =
      workloads::pipelineRequest(P.Kind, P.Workers, std::move(Config));
  R.Tag = P.label();
  return R;
}

uint64_t perfbench::deriveSeed(uint64_t WorkloadSeed, uint64_t A,
                               uint64_t B) {
  uint64_t X = WorkloadSeed ^ (A * 0x9e3779b97f4a7c15ull) ^
               (B * 0xc2b2ae3d27d4eb4full);
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

ThreadBudget perfbench::threadBudget() {
  unsigned N = std::max(1u, std::thread::hardware_concurrency());
  ThreadBudget B;
  // Pool workers plus the caller that helps in parallelFor.
  B.AnalysisJobs = std::max(1u, std::min(3u, N - 1));
  B.Sessions = std::min(2u, N);
  return B;
}

// -- Tracing ----------------------------------------------------------------

const char *perfbench::phaseName(Phase P) {
  switch (P) {
  case Phase::Setup:
    return "setup";
  case Phase::Canonical:
    return "canonical";
  case Phase::Window:
    return "window";
  }
  return "?";
}

namespace {
/// Spans open on this thread, innermost last (parents of new spans).
std::vector<int64_t> &openStack() {
  thread_local std::vector<int64_t> Stack;
  return Stack;
}
} // namespace

int64_t Tracer::open(const char *Name, const char *Layer, uint32_t Row) {
  if (!Enabled || !Recording)
    return -1;
  std::vector<int64_t> &Stack = openStack();
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Row = Row;
  S.Ph = CurPhase;
  S.Cycle = CurCycle;
  int64_t Id;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Id = static_cast<int64_t>(Spans.size());
    Spans.push_back(S);
  }
  Stack.push_back(Id);
  return Id;
}

void Tracer::close(int64_t Id, Clock::time_point Start,
                   Clock::time_point End) {
  if (Id < 0)
    return;
  openStack().pop_back();
  std::lock_guard<std::mutex> Lock(Mu);
  Spans[Id].Start = Start;
  Spans[Id].End = End;
}

int64_t Tracer::add(const char *Name, const char *Layer, uint32_t Row,
                    Clock::time_point Start, Clock::time_point End,
                    int64_t Parent) {
  if (!Enabled || !Recording)
    return -1;
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Start = Start;
  S.End = End;
  S.Parent = Parent;
  S.Row = Row;
  S.Ph = CurPhase;
  S.Cycle = CurCycle;
  std::lock_guard<std::mutex> Lock(Mu);
  Spans.push_back(S);
  return static_cast<int64_t>(Spans.size()) - 1;
}

void Tracer::nameRow(uint32_t Row, const std::string &Name) {
  if (!Enabled || !Recording)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  RowNames.emplace(Row, Name);
}

std::string Tracer::chromeJson() const {
  auto Us = [&](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  };
  std::string Out = "{\"traceEvents\": [\n";
  char Buf[512];
  bool First = true;
  auto Emit = [&](const char *Line) {
    if (!First)
      Out += ",\n";
    First = false;
    Out += Line;
  };
  for (const auto &[Row, Name] : RowNames) {
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                  "\"tid\": %u, \"args\": {\"name\": \"%s\"}}",
                  Row, Name.c_str());
    Emit(Buf);
  }
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %lld, "
                  "\"phase\": \"%s\", \"cycle\": %u}}",
                  S.Name, S.Layer, S.Row, Us(S.Start), S.ms() * 1000.0, I,
                  static_cast<long long>(S.Parent), phaseName(S.Ph),
                  S.Cycle);
    Emit(Buf);
  }
  Out += "\n]}\n";
  return Out;
}

std::map<std::string, double>
perfbench::selfTimeByLayer(const std::vector<Span> &S, Phase P) {
  std::vector<double> ChildMs(S.size(), 0.0);
  for (const Span &Sp : S)
    if (Sp.Parent >= 0)
      ChildMs[Sp.Parent] += Sp.ms();
  std::map<std::string, double> Self;
  for (size_t I = 0; I != S.size(); ++I)
    if (S[I].Ph == P)
      Self[S[I].Layer] += std::max(0.0, S[I].ms() - ChildMs[I]);
  return Self;
}

double perfbench::uncoveredMs(const std::vector<Span> &S, Phase P,
                              Clock::time_point From, Clock::time_point To) {
  std::vector<std::pair<Clock::time_point, Clock::time_point>> Iv;
  for (const Span &Sp : S)
    if (Sp.Ph == P)
      Iv.push_back({std::max(Sp.Start, From), std::min(Sp.End, To)});
  std::sort(Iv.begin(), Iv.end());
  double Covered = 0;
  Clock::time_point Reach = From;
  for (const auto &[A, B] : Iv) {
    Clock::time_point Lo = std::max(A, Reach);
    if (B > Lo) {
      Covered += msBetween(Lo, B);
      Reach = B;
    }
  }
  return std::max(0.0, msBetween(From, To) - Covered);
}

double perfbench::medianPerCycleMs(const std::vector<Span> &S,
                                   const char *Name, Phase P) {
  std::map<uint32_t, double> PerCycle;
  for (const Span &Sp : S)
    if (Sp.Ph == P && std::string(Sp.Name) == Name)
      PerCycle[Sp.Cycle] += Sp.ms();
  std::vector<double> V;
  for (const auto &[Cycle, Ms] : PerCycle)
    V.push_back(Ms);
  return V.empty() ? 0.0 : median(V);
}

// -- Host speed -------------------------------------------------------------

namespace {

/// Host-speed kernel with the memory behaviour of the simulator's state:
/// dependent pseudo-random reads and writes over a 2 MB table.
void memoryKernel(std::vector<uint64_t> &Table) {
  uint64_t X = 88172645463325252ull, Acc = 0;
  for (int I = 0; I != 125000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    uint64_t &Cell = Table[X & (Table.size() - 1)];
    Acc += Cell;
    Cell = Acc ^ X;
    Acc = (Acc & 1) ? Acc + 3 : Acc >> 1;
  }
  Table[0] += Acc; // Keeps the loop's result observable.
}

/// Host-speed kernel with the control behaviour of the interpreter: a
/// switch dispatch over a fixed pseudo-random byte program with
/// data-dependent branches.
void dispatchKernel(std::vector<uint64_t> &Table) {
  static const std::vector<uint8_t> Code = [] {
    std::vector<uint8_t> C(4096);
    uint64_t S = 1234567;
    for (uint8_t &Byte : C) {
      S ^= S << 13;
      S ^= S >> 7;
      S ^= S << 17;
      Byte = static_cast<uint8_t>(S);
    }
    return C;
  }();
  uint64_t Reg[16] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  uint32_t Pc = 0;
  for (int I = 0; I != 60000; ++I) {
    uint8_t Op = Code[Pc & 4095];
    uint8_t A = Code[(Pc + 1) & 4095] & 15, B = Code[(Pc + 2) & 4095] & 15;
    switch (Op & 7) {
    case 0: Reg[A] += Reg[B]; break;
    case 1: Reg[A] ^= Reg[B] << 1; break;
    case 2: Reg[A] = Reg[A] * 3 + 1; break;
    case 3: Pc += (Reg[A] & 1) ? 4 : 0; break;
    case 4: Reg[A] = Table[Reg[B] & 4095]; break;
    case 5: Table[Reg[A] & 4095] = Reg[B]; break;
    case 6: Pc += (Reg[A] > Reg[B]) ? 8 : 0; break;
    default: Reg[A] -= Reg[B]; break;
    }
    Pc += 3;
  }
  Table[1] += Reg[0] + Reg[7];
}

/// Median of three timed runs of \p Kernel, so one preemption does not
/// skew the sample.
double medianOfThreeMs(void (*Kernel)(std::vector<uint64_t> &),
                       std::vector<uint64_t> &Table) {
  double Ms[3];
  for (double &Run : Ms) {
    Clock::time_point Start = Clock::now();
    Kernel(Table);
    Run = msBetween(Start, Clock::now());
  }
  std::sort(std::begin(Ms), std::end(Ms));
  return Ms[1];
}

} // namespace

double perfbench::hostKernelMs() {
  thread_local std::vector<uint64_t> Table(1 << 18, 1);
  // Neither kernel alone tracks the simulator's slowdowns as well as the
  // two together.
  return std::sqrt(medianOfThreeMs(memoryKernel, Table) *
                   medianOfThreeMs(dispatchKernel, Table));
}

void HostSpeed::sample() {
  Clock::time_point Start = Clock::now();
  double Ms = hostKernelMs();
  Clock::time_point End = Clock::now();
  Samples.push_back({Start + (End - Start) / 2, Ms});
}

double HostSpeed::toRef(Clock::time_point A, Clock::time_point B) const {
  auto First = std::lower_bound(
      Samples.begin(), Samples.end(), A,
      [](const auto &S, Clock::time_point T) { return S.first < T; });
  auto Last = std::upper_bound(
      Samples.begin(), Samples.end(), B,
      [](Clock::time_point T, const auto &S) { return T < S.first; });
  if (First != Samples.begin())
    --First;
  if (Last != Samples.end())
    ++Last;
  if (First == Last)
    return 1.0;
  double Sum = 0;
  for (auto It = First; It != Last; ++It)
    Sum += It->second;
  return RefKernelMs / (Sum / static_cast<double>(Last - First));
}

double HostSpeed::medianKernelMs() const {
  std::vector<double> V;
  for (const auto &S : Samples)
    V.push_back(S.second);
  return median(V);
}

// -- Statistics -------------------------------------------------------------

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

unsigned perfbench::tailPercentile(size_t Samples) {
  for (unsigned P = 99; P > 50; --P)
    if (static_cast<double>(Samples) * (100 - P) / 100.0 >= 10.0)
      return P;
  return 50;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::mixMinstPerS(const std::vector<std::vector<double>> &Rates,
                               const std::vector<double> &Weights) {
  double Inst = 0, Ms = 0;
  for (size_t P = 0; P != Rates.size(); ++P) {
    if (Rates[P].empty())
      continue;
    Inst += Weights[P];
    Ms += Weights[P] / median(Rates[P]);
  }
  return Ms > 0 ? Inst / Ms / 1000.0 : 0.0; // inst/ms / 1000 = Minst/s.
}

double perfbench::peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

// -- Results ----------------------------------------------------------------

bool Result::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    std::fprintf(stderr, "perfbench: FAILED: %s\n", What.c_str());
  }
  return Ok;
}

bool perfbench::sameResult(const rt::ExecutionResult &A,
                           const rt::ExecutionResult &B) {
  return A.Ok && B.Ok && A.StateHash == B.StateHash && A.Output == B.Output;
}

// -- Shared workload steps --------------------------------------------------

namespace {
uint64_t summaryCacheHits() {
  obs::Registry Reg;
  race::SummaryCache::global().publishTo(obs::Scope(&Reg, "c"));
  return static_cast<uint64_t>(Reg.snapshot().value("c.hits"));
}
} // namespace

std::vector<Built> perfbench::buildCold(const std::vector<Program> &Progs,
                                        const core::PipelineConfig &Config,
                                        unsigned Reps, Tracer &T,
                                        HostSpeed &H, Result &R,
                                        double &SetupSeconds) {
  std::vector<double> RepSeconds;
  std::vector<Built> Out;
  H.sample();
  for (unsigned Rep = 0; Rep != Reps; ++Rep) {
    T.enter(Phase::Setup, Rep);
    Out.clear();
    Clock::time_point Start = Clock::now();
    for (size_t I = 0; I != Progs.size(); ++I) {
      const uint32_t Row = static_cast<uint32_t>(I + 1);
      T.nameRow(Row, Progs[I].label());
      race::SummaryCache::global().clear();
      Built B;
      B.Prog = Progs[I];
      bool AuditsOk = false;
      T.time("bench.build", "bench", Row, [&] {
        T.time("codegen.create", "codegen", Row, [&] {
          auto P = core::ChimeraPipeline::create(requestFor(B.Prog, Config));
          if (P)
            B.P = P.take();
          else
            std::fprintf(stderr, "perfbench: %s\n",
                         P.error().message().c_str());
        });
        if (!B.P)
          return;
        core::ChimeraPipeline &P = *B.P;
        T.time("analysis.mhp", "analysis", Row, [&] { P.mhp(); });
        T.time("race.relay", "race", Row,
               [&] { B.RacePairs = P.raceReport().Pairs.size(); });
        T.time("profile.profile", "profile", Row, [&] { P.profileData(); });
        T.time("instrument.plan", "instrument", Row, [&] { P.plan(); });
        T.time("instrument.instrument", "instrument", Row,
               [&] { P.instrumentedModule(); });
        bool PlanOk = false, OrderOk = false;
        T.time("instrument.audit", "instrument", Row,
               [&] { PlanOk = P.planAudit().ok(); });
        T.time("analysis.lockorder_audit", "analysis", Row,
               [&] { OrderOk = P.lockOrderAudit().ok(); });
        AuditsOk = PlanOk && OrderOk;
      });
      R.check(B.P && AuditsOk,
              "cold build of " + B.Prog.label() + " (compile and audits)");
      R.check(summaryCacheHits() == 0,
              "cold build of " + B.Prog.label() +
                  " served RELAY summaries from the process cache");
      Out.push_back(std::move(B));
    }
    Clock::time_point End = Clock::now();
    H.sample();
    RepSeconds.push_back(msBetween(Start, End) / 1000.0 * H.toRef(Start, End));
  }
  SetupSeconds = median(RepSeconds);
  return Out;
}

void perfbench::reportStaticLayers(const std::vector<Span> &S,
                                   const std::vector<Built> &B, Result &R) {
  static const std::pair<const char *, const char *> Stages[] = {
      {"codegen.create", "codegen.compile_ms"},
      {"analysis.mhp", "analysis.mhp_ms"},
      {"race.relay", "race.relay_ms"},
      {"profile.profile", "profile.profile_ms"},
      {"instrument.plan", "instrument.plan_ms"},
      {"instrument.instrument", "instrument.instrument_ms"},
      {"instrument.audit", "instrument.audit_ms"},
      {"analysis.lockorder_audit", "analysis.lockorder_audit_ms"},
  };
  for (const auto &[SpanName, Metric] : Stages)
    R.layer(Metric, medianPerCycleMs(S, SpanName, Phase::Setup), "ms");
  uint64_t Pairs = 0;
  for (const Built &X : B)
    Pairs += X.RacePairs;
  R.layer("race.pairs", static_cast<double>(Pairs), "count");
}

void CanonicalCounts::add(const rt::RunStats &Rec, const rt::RunStats &Nat,
                          size_t Encoded, size_t Zipped) {
  Inst += Rec.Instructions;
  Weak += Rec.weakAcquiresTotal();
  Sync += Rec.SyncOps;
  Events += Rec.LogEvents;
  Revocations += Rec.Revocations;
  Bytes += Encoded;
  Compressed += Zipped;
  Overheads.push_back(static_cast<double>(Rec.MakespanCycles) /
                      static_cast<double>(Nat.MakespanCycles));
  NatWeights.push_back(static_cast<double>(Nat.Instructions));
  RecWeights.push_back(static_cast<double>(Rec.Instructions));
}

void perfbench::reportCanonicalLayers(const std::vector<Span> &S,
                                      const CanonicalCounts &C, Result &R) {
  auto Ms = [&](const char *Name) {
    return medianPerCycleMs(S, Name, Phase::Canonical);
  };
  R.layer("runtime.native_ms", Ms("runtime.native"), "ms");
  R.layer("runtime.record_ms", Ms("runtime.record"), "ms");
  R.layer("runtime.replay_ms", Ms("runtime.replay"), "ms");
  R.layer("runtime.instructions", C.Inst, "count");
  R.layer("runtime.weak_acquires", C.Weak, "count");
  R.layer("runtime.sync_ops", C.Sync, "count");
  R.layer("runtime.log_events", C.Events, "count");
  R.layer("runtime.revocations", C.Revocations, "count");
  R.layer("runtime.weak_polls", C.Obs.WeakPolls, "count");
  R.layer("runtime.quanta", C.Obs.Quanta, "count");
  R.layer("replay.encode_ms", Ms("replay.encode"), "ms");
  R.layer("replay.compress_ms", Ms("replay.compress"), "ms");
  R.layer("replay.bytes_raw", C.Bytes, "B");
  R.layer("replay.bytes_compressed", C.Compressed, "B");
}

namespace {
ObsCounts obsCounts(const core::ChimeraPipeline &P) {
  ObsCounts C;
  auto Snap = P.metrics();
  if (!Snap)
    return C;
  C.WeakPolls =
      static_cast<uint64_t>(Snap->value("runtime.record.weak.poll"));
  C.Quanta = static_cast<uint64_t>(Snap->value("runtime.record.sched.quanta"));
  return C;
}
} // namespace

rt::ExecutionResult perfbench::recordCounting(core::ChimeraPipeline &P,
                                              uint64_t Seed, ObsCounts *Obs) {
  if (!Obs)
    return P.record(Seed);
  ObsCounts Before = obsCounts(P);
  rt::ExecutionResult Rec = P.record(Seed);
  ObsCounts After = obsCounts(P);
  Obs->WeakPolls += After.WeakPolls - Before.WeakPolls;
  Obs->Quanta += After.Quanta - Before.Quanta;
  return Rec;
}

void perfbench::reportTrace(const Tracer &T, Clock::time_point WindowStart,
                            Clock::time_point WindowEnd, unsigned Cycles,
                            double UntracedCanonicalMs,
                            double TracedCanonicalMs, Result &R) {
  static const char *Layers[] = {"bench",      "codegen", "analysis",
                                 "race",       "profile", "instrument",
                                 "runtime",    "replay",  "service"};
  const std::vector<Span> &S = T.spans();
  std::map<std::string, double> Total;
  for (Phase P : {Phase::Setup, Phase::Canonical, Phase::Window}) {
    std::map<std::string, double> Self = selfTimeByLayer(S, P);
    std::string Line = std::string("self time, ") + phaseName(P) + ":";
    for (const char *L : Layers) {
      Total[L] += Self[L];
      char Buf[64];
      std::snprintf(Buf, sizeof(Buf), " %s %.1f ms", L, Self[L]);
      Line += Buf;
    }
    R.note(Line);
  }
  for (const char *L : Layers)
    R.layer(std::string("self.") + L + "_ms", Total[L], "ms");

  double Uncovered = uncoveredMs(S, Phase::Window, WindowStart, WindowEnd);
  double WindowMs = msBetween(WindowStart, WindowEnd);
  R.layer("trace.uncovered_ms", Uncovered / std::max(1u, Cycles), "ms");
  double Overhead = UntracedCanonicalMs > 0
                        ? (TracedCanonicalMs - UntracedCanonicalMs) /
                              UntracedCanonicalMs * 100.0
                        : 0.0;
  R.layer("trace.overhead_pct", Overhead, "%");
  R.layer("trace.spans", static_cast<double>(S.size()), "count");
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "window %.1f ms over %u cycle(s): %.1f ms (%.2f%%) covered "
                "by no span",
                WindowMs, Cycles, Uncovered,
                WindowMs > 0 ? Uncovered / WindowMs * 100 : 0.0);
  R.note(Buf);
  std::snprintf(Buf, sizeof(Buf),
                "tracing overhead: canonical pass %.1f ms untraced, %.1f ms "
                "traced (%+.2f%%), %zu spans",
                UntracedCanonicalMs, TracedCanonicalMs, Overhead, S.size());
  R.note(Buf);
}

void perfbench::reportLatency(std::vector<double> OpMs, const char *OpName,
                              Clock::time_point Start, Clock::time_point End,
                              const HostSpeed &H, Result &R) {
  const double WindowS = msBetween(Start, End) / 1000.0;
  const double RefWindowS = WindowS * H.toRef(Start, End);
  unsigned P = tailPercentile(OpMs.size());
  R.e2e("ops_per_s", static_cast<double>(OpMs.size()) / RefWindowS, "1/s");
  R.layer("bench.op_p50_ms", median(OpMs), "ms");
  R.layer("bench.op_tail_ms", quantile(OpMs, P / 100.0), "ms");
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "%zu %s(s) in %.2f s (%.2f s at reference speed): p50 "
                "%.1f ms, tail p%u %.1f ms over %zu samples; host kernel "
                "median %.3f ms (reference %.1f ms)",
                OpMs.size(), OpName, WindowS, RefWindowS, median(OpMs), P,
                quantile(OpMs, P / 100.0), OpMs.size(), H.medianKernelMs(),
                HostSpeed::RefKernelMs);
  R.note(Buf);
}
