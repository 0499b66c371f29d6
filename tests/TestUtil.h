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
#include "runtime/Machine.h"
#include "support/Hash.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <ios>
#include <memory>
#include <ostream>
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

/// apache with one integer literal changed so that main stores out of
/// bounds: every profile run faults (a MiniC-source mutant that the
/// profile stage once built a plan from).
inline std::string apacheWithInvalidStore() {
  using namespace workloads;
  std::string Source =
      workloadSource(WorkloadKind::Apache, evalParams(WorkloadKind::Apache));
  const std::string Loop = "for (w = 0; w < workers; w++) {\n    tids[w]";
  size_t At = Source.find(Loop);
  EXPECT_NE(At, std::string::npos);
  if (At != std::string::npos)
    Source.replace(At, std::string("for (w = 0;").size(), "for (w = -100000;");
  return Source;
}

/// Builds a workload pipeline; fails the test and returns null on
/// error.
inline std::unique_ptr<core::ChimeraPipeline>
pipelineOrNull(workloads::WorkloadKind Kind, unsigned Workers) {
  auto P = workloads::buildPipelineEx(Kind, Workers);
  EXPECT_TRUE(P.hasValue()) << (P ? "" : P.error().message());
  return P ? P.take() : nullptr;
}

/// Folds every callback (a tag, its arguments, its clock) into one
/// digest, and forwards it to \p Next when one is given.
class DigestObserver : public rt::ExecutionObserver {
public:
  explicit DigestObserver(rt::ExecutionObserver *Next = nullptr)
      : Next(Next) {}

  struct Stream {
    uint64_t Digest = 0;
    uint64_t Events = 0;
    bool operator==(const Stream &) const = default;
  };
  Stream stream() const { return {H.digest(), Events}; }

  void onThreadStart(uint32_t Tid, uint32_t ParentTid, uint32_t FuncId,
                     uint64_t Now) override {
    add({1, Tid, ParentTid, FuncId, Now});
    if (Next)
      Next->onThreadStart(Tid, ParentTid, FuncId, Now);
  }
  void onThreadFinish(uint32_t Tid, uint64_t Now) override {
    add({2, Tid, Now});
    if (Next)
      Next->onThreadFinish(Tid, Now);
  }
  void onJoin(uint32_t ParentTid, uint32_t ChildTid, uint64_t Now) override {
    add({3, ParentTid, ChildTid, Now});
    if (Next)
      Next->onJoin(ParentTid, ChildTid, Now);
  }
  void onFunctionEnter(uint32_t Tid, uint32_t FuncId, uint64_t Now) override {
    add({4, Tid, FuncId, Now});
    if (Next)
      Next->onFunctionEnter(Tid, FuncId, Now);
  }
  void onFunctionExit(uint32_t Tid, uint32_t FuncId, uint64_t Now) override {
    add({5, Tid, FuncId, Now});
    if (Next)
      Next->onFunctionExit(Tid, FuncId, Now);
  }
  void onMemoryAccess(uint32_t Tid, uint64_t Addr, bool IsWrite,
                      uint32_t FuncId, ir::InstId Ident,
                      uint64_t Now) override {
    add({6, Tid, Addr, IsWrite, FuncId, Ident, Now});
    if (Next)
      Next->onMemoryAccess(Tid, Addr, IsWrite, FuncId, Ident, Now);
  }
  void onSync(uint32_t Tid, rt::ObservedSync Kind, uint32_t ObjId,
              uint64_t Aux, uint64_t Now) override {
    add({7, Tid, static_cast<uint64_t>(Kind), ObjId, Aux, Now});
    if (Next)
      Next->onSync(Tid, Kind, ObjId, Aux, Now);
  }
  void onWeak(uint32_t Tid, bool IsAcquire, uint32_t LockId, bool HasRange,
              uint64_t Lo, uint64_t Hi, uint64_t Now) override {
    add({8, Tid, IsAcquire, LockId, HasRange, Lo, Hi, Now});
    if (Next)
      Next->onWeak(Tid, IsAcquire, LockId, HasRange, Lo, Hi, Now);
  }

private:
  void add(std::initializer_list<uint64_t> Words) {
    for (uint64_t W : Words)
      H.addWord(W);
    ++Events;
  }

  rt::ExecutionObserver *Next;
  chimera::Hasher H;
  uint64_t Events = 0;
};

inline void PrintTo(const DigestObserver::Stream &S, std::ostream *OS) {
  *OS << "{0x" << std::hex << S.Digest << std::dec << "ull, " << S.Events
      << "ull}";
}

} // namespace test
} // namespace chimera

#endif // CHIMERA_TESTS_TESTUTIL_H
