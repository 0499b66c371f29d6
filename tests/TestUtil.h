//===- tests/TestUtil.h - Shared gtest helpers ------------------*- C++ -*-===//
//
// Part of the Chimera reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unwrap helpers bridging the Expected-returning entry points to
/// gtest: fail the current test (with the carried message) and return
/// null instead of propagating an Expected through every fixture.
///
//===----------------------------------------------------------------------===//

#ifndef CHIMERA_TESTS_TESTUTIL_H
#define CHIMERA_TESTS_TESTUTIL_H

#include "codegen/CodeGen.h"
#include "race/SummaryCache.h"
#include "runtime/Machine.h"
#include "support/Metrics.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace chimera {
namespace test {

/// Compiles MiniC to IR; on failure the test fails and null is
/// returned (callers that can't proceed also check the pointer).
inline std::unique_ptr<ir::Module>
compileOrNull(const std::string &Source, const std::string &Name = "t") {
  auto M = compileMiniCEx(Source, Name);
  EXPECT_TRUE(M.hasValue()) << (M ? "" : M.error().message());
  return M ? M.take() : nullptr;
}

/// Records \p M on a bare rt::Machine (no pipeline, no audit).
inline rt::ExecutionResult recordRun(const ir::Module &M, uint64_t Seed,
                                     unsigned NumCores = 4) {
  rt::MachineOptions MO;
  MO.Mode = rt::ExecMode::Record;
  MO.Seed = Seed;
  MO.NumCores = NumCores;
  return rt::Machine(M, MO).run();
}

/// Replays \p Log against \p M on a bare rt::Machine. \p Seed only
/// exists so tests can show replay ignores it.
inline rt::ExecutionResult replayRun(const ir::Module &M,
                                     const rt::ExecutionLog &Log,
                                     unsigned NumCores = 4,
                                     uint64_t Seed = 1) {
  rt::MachineOptions MO;
  MO.Mode = rt::ExecMode::Replay;
  MO.Seed = Seed;
  MO.NumCores = NumCores;
  MO.ReplayLog = &Log;
  return rt::Machine(M, MO).run();
}

/// Builds a workload pipeline; fails the test and returns null on
/// error.
inline std::unique_ptr<core::ChimeraPipeline>
pipelineOrNull(workloads::WorkloadKind Kind, unsigned Workers) {
  auto P = workloads::buildPipelineEx(Kind, Workers);
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().message());
  return P ? P.take() : nullptr;
}

/// Snapshot of a SummaryCache's counters under the "cache." prefix
/// (the registry read path that replaced SummaryCache::stats()).
inline obs::Snapshot cacheSnapshot(const race::SummaryCache &Cache) {
  obs::Registry Reg;
  Cache.publishTo(obs::Scope(&Reg, "cache"));
  return Reg.snapshot();
}

} // namespace test
} // namespace chimera

#endif // CHIMERA_TESTS_TESTUTIL_H
