//===- perfbench/selftest.cpp - Input validity of the benchmark -----------===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the benchmark's input generator: every (program, scale, workers)
/// it can emit records and replays bit for bit, and the instrumented run
/// has no dynamic race, at the canonical seed and at workload-derived
/// seeds. The inputs known to overflow the workload templates must never
/// be emitted. Exits 1 on the first failure.
///
/// Run it with `python3 perfbench/run.py --self-test`, or with ctest in
/// the benchmark's build directory.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include <cstdio>

using namespace chimera;
using namespace chimera::perfbench;
using workloads::WorkloadKind;

int main() {
  unsigned Failures = 0;
  auto Expect = [&](bool Ok, const std::string &What) {
    std::printf("%s %s\n", Ok ? "ok  " : "FAIL", What.c_str());
    Failures += !Ok;
  };

  const struct {
    WorkloadKind Kind;
    unsigned Scale;
  } KnownBad[] = {{WorkloadKind::Pbzip2, 20},
                  {WorkloadKind::Ocean, 32},
                  {WorkloadKind::Radix, 24},
                  {WorkloadKind::Radix, 32}};
  for (const auto &Bad : KnownBad)
    Expect(knownInvalid(Bad.Kind, Bad.Scale),
           std::string(workloads::workloadInfo(Bad.Kind).Name) + " at scale " +
               std::to_string(Bad.Scale) + " is flagged invalid");

  core::PipelineConfig Config;
  Config.AnalysisJobs = threadBudget().AnalysisJobs;
  const uint64_t Seeds[] = {CanonicalSeed, deriveSeed(1, 0, 0),
                            deriveSeed(7, 3, 2)};
  for (const Program &Prog : inputSpace()) {
    const std::string Name =
        Prog.label() + " scale " + std::to_string(Prog.Scale);
    Expect(!knownInvalid(Prog.Kind, Prog.Scale),
           Name + " is not a known-invalid input");
    auto P = core::ChimeraPipeline::create(requestFor(Prog, Config));
    if (!P) {
      Expect(false, Name + " builds: " + P.error().message());
      continue;
    }
    for (uint64_t Seed : Seeds) {
      const std::string At = Name + " seed " + std::to_string(Seed);
      rt::ExecutionResult Rec = (*P)->record(Seed);
      rt::ExecutionResult Rep = (*P)->replay(Rec.Log);
      Expect(sameResult(Rec, Rep), At + " replays bit-identically");
      Expect((*P)->dynamicRaceCount(Seed) == 0,
             At + " has no dynamic race in the instrumented run");
    }
  }
  std::printf("%u failure(s)\n", Failures);
  return Failures ? 1 : 0;
}
