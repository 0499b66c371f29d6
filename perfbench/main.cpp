//===- perfbench/main.cpp - The repo benchmark ----------------------------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
///
/// Runs one workload (splash-rr, io-stream, service-mix) for S seconds
/// of timed closed loop, checks every result, and prints as its last
/// line one JSON object:
///
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
/// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
/// they are the per-layer metrics of a traced run, which also writes a
/// Chrome trace and a report into DIR. Exits 1 when any check failed.
///
/// The metric lists below must match BENCHMARK.json.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

using namespace chimera;
using namespace chimera::perfbench;

namespace {

const char *const EndToEnd[] = {
    "setup_s",          "native_minst_per_s",  "record_minst_per_s",
    "replay_minst_per_s", "ops_per_s",         "sim_record_overhead",
    "log_bytes_per_minst", "peak_rss_mb",
};

/// Every per-layer metric with its unit. A workload that does not run a
/// layer reports 0 for it (service.* outside service-mix, the file-based
/// log engine outside io-stream).
const std::pair<const char *, const char *> PerLayer[] = {
    {"codegen.compile_ms", "ms"},
    {"analysis.mhp_ms", "ms"},
    {"race.relay_ms", "ms"},
    {"race.pairs", "count"},
    {"profile.profile_ms", "ms"},
    {"instrument.plan_ms", "ms"},
    {"instrument.instrument_ms", "ms"},
    {"instrument.audit_ms", "ms"},
    {"analysis.lockorder_audit_ms", "ms"},
    {"runtime.native_ms", "ms"},
    {"runtime.record_ms", "ms"},
    {"runtime.replay_ms", "ms"},
    {"runtime.instructions", "count"},
    {"runtime.weak_acquires", "count"},
    {"runtime.sync_ops", "count"},
    {"runtime.log_events", "count"},
    {"runtime.revocations", "count"},
    {"runtime.weak_polls", "count"},
    {"runtime.quanta", "count"},
    {"replay.write_ms", "ms"},
    {"replay.encode_ms", "ms"},
    {"replay.compress_ms", "ms"},
    {"replay.open_ms", "ms"},
    {"replay.scan_ms", "ms"},
    {"replay.seq_ms", "ms"},
    {"replay.par4_ms", "ms"},
    {"replay.par4_speedup", "ratio"},
    {"replay.epochs", "count"},
    {"replay.fallbacks", "count"},
    {"replay.imbalance_pct", "%"},
    {"replay.bytes_raw", "B"},
    {"replay.bytes_compressed", "B"},
    {"replay.bytes_stored", "B"},
    {"service.queue_ms", "ms"},
    {"service.build_ms", "ms"},
    {"service.plan_cold_ms", "ms"},
    {"service.plan_warm_ms", "ms"},
    {"service.record_ms", "ms"},
    {"service.replay_ms", "ms"},
    {"service.cache_hits", "count"},
    {"service.cache_misses", "count"},
    {"service.cache_save_ms", "ms"},
    {"service.cache_load_ms", "ms"},
    {"bench.op_p50_ms", "ms"},
    {"bench.op_tail_ms", "ms"},
    {"self.bench_ms", "ms"},
    {"self.codegen_ms", "ms"},
    {"self.analysis_ms", "ms"},
    {"self.race_ms", "ms"},
    {"self.profile_ms", "ms"},
    {"self.instrument_ms", "ms"},
    {"self.runtime_ms", "ms"},
    {"self.replay_ms", "ms"},
    {"self.service_ms", "ms"},
    {"trace.uncovered_ms", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "splash-rr|io-stream|service-mix --seed N --seconds S "
               "--trace 0|1 [--out DIR]\n",
               Why);
  std::exit(2);
}

uint64_t parseUnsigned(const char *Text, const char *Flag) {
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno || End == Text || *End)
    usage((std::string("bad value for ") + Flag).c_str());
  return V;
}

RunArgs parseArgs(int Argc, char **Argv) {
  RunArgs A;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = parseUnsigned(V, "--seed");
    else if (Flag == "--seconds")
      A.Seconds = static_cast<double>(parseUnsigned(V, "--seconds"));
    else if (Flag == "--trace")
      A.Trace = parseUnsigned(V, "--trace") != 0;
    else if (Flag == "--out")
      A.OutDir = V;
    else
      usage(("unknown flag " + Flag).c_str());
  }
  if (A.Workload.empty())
    usage("--workload is required");
  if (A.Seconds <= 0)
    usage("--seconds must be positive");
  return A;
}

std::string number(double V) {
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

/// The metrics object: every declared metric in declaration order.
/// A declared end-to-end metric the workload failed to report is a bug
/// in the benchmark and aborts the run.
std::string metricsJson(const Result &R, bool Trace) {
  std::map<std::string, const Metric *> Got;
  for (const Metric &M : Trace ? R.PerLayer : R.EndToEnd)
    Got[M.Name] = &M;
  std::string Out = "{";
  auto Emit = [&](const std::string &Name, double Value,
                  const std::string &Unit) {
    if (Out.size() > 1)
      Out += ", ";
    Out += "\"" + Name + "\": {\"value\": " + number(Value) +
           ", \"unit\": \"" + Unit + "\"}";
  };
  std::set<std::string> Declared;
  if (Trace) {
    for (const auto &[Name, Unit] : PerLayer) {
      Declared.insert(Name);
      auto It = Got.find(Name);
      if (It != Got.end() && It->second->Unit != Unit) {
        std::fprintf(stderr, "perfbench: %s reported in %s, declared %s\n",
                     Name, It->second->Unit.c_str(), Unit);
        std::exit(3);
      }
      Emit(Name, It == Got.end() ? 0.0 : It->second->Value, Unit);
    }
  } else {
    for (const char *Name : EndToEnd) {
      Declared.insert(Name);
      auto It = Got.find(Name);
      if (It == Got.end()) {
        std::fprintf(stderr, "perfbench: metric %s missing\n", Name);
        std::exit(3);
      }
      Emit(Name, It->second->Value, It->second->Unit);
    }
  }
  for (const auto &[Name, M] : Got)
    if (!Declared.count(Name)) {
      std::fprintf(stderr, "perfbench: metric %s is not declared\n",
                   Name.c_str());
      std::exit(3);
    }
  return Out + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs Args = parseArgs(Argc, Argv);
  Result (*Run)(const RunArgs &, Tracer &) = nullptr;
  if (Args.Workload == "splash-rr")
    Run = runSplashRR;
  else if (Args.Workload == "io-stream")
    Run = runIoStream;
  else if (Args.Workload == "service-mix")
    Run = runServiceMix;
  else
    usage(("unknown workload " + Args.Workload).c_str());

  std::error_code Ec;
  std::filesystem::create_directories(Args.OutDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 Args.OutDir.c_str(), Ec.message().c_str());
    return 2;
  }

  ThreadBudget TB = threadBudget();
  std::fprintf(stderr,
               "perfbench: %s seed %llu, %.0f s window, trace %d; threads: "
               "AnalysisJobs %u, replay jobs %u, sessions %u (session "
               "AnalysisJobs %u)\n",
               Args.Workload.c_str(),
               static_cast<unsigned long long>(Args.Seed), Args.Seconds,
               Args.Trace ? 1 : 0, TB.AnalysisJobs, TB.ReplayJobs,
               TB.Sessions, TB.SessionAnalysisJobs);

  Tracer T(Args.Trace);
  Result R = Run(Args, T);
  for (const std::string &Line : R.Notes)
    std::fprintf(stderr, "perfbench: %s\n", Line.c_str());
  const bool Correct = R.Failed == 0 && R.Attempted > 0;
  if (R.Failed)
    std::fprintf(stderr, "perfbench: %llu of %llu checked operation(s) "
                         "failed\n",
                 static_cast<unsigned long long>(R.Failed),
                 static_cast<unsigned long long>(R.Attempted));

  if (Correct && Args.Trace) {
    std::string Stem = Args.OutDir + "/" + Args.Workload + "-seed" +
                       std::to_string(Args.Seed);
    std::ofstream(Stem + ".trace.json") << T.chromeJson();
    std::ofstream Report(Stem + ".report.txt");
    for (const std::string &Line : R.Notes)
      Report << Line << "\n";
    for (const Metric &M : R.EndToEnd)
      Report << "e2e " << M.Name << " " << number(M.Value) << " " << M.Unit
             << "\n";
    for (const Metric &M : R.PerLayer)
      Report << "layer " << M.Name << " " << number(M.Value) << " "
             << M.Unit << "\n";
    std::fprintf(stderr, "perfbench: wrote %s.trace.json and %s.report.txt\n",
                 Stem.c_str(), Stem.c_str());
  }

  std::string Metrics = Correct ? metricsJson(R, Args.Trace) : "{}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return Correct ? 0 : 1;
}
