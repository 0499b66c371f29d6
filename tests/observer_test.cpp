//===- tests/observer_test.cpp - Observer event-stream goldens -------------===//
//
// The profiler (paper §4) and the dynamic race oracle see an execution
// only through rt::ExecutionObserver. These tests pin a digest of every
// callback, in order, with all its arguments and its clock, for the two
// observed runs the system makes on each workload: the profile stage's
// native run and the detector-attached record and replay of the
// instrumented program. The stream must not depend on DispatchBatch,
// and a change to how the machine dispatches instructions must leave it
// bit-identical.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "race/DynamicDetector.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <ios>
#include <ostream>

using namespace chimera;
using namespace chimera::workloads;

namespace {

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
  Hasher H;
  uint64_t Events = 0;
};

using Stream = DigestObserver::Stream;

void PrintTo(const Stream &S, std::ostream *OS) {
  *OS << "{0x" << std::hex << S.Digest << std::dec << "ull, " << S.Events
      << "ull}";
}

/// The profile stage's run: native, on the profile module, with the
/// pipeline's default costs and first profile seed, on 8 cores.
Stream profileStream(WorkloadKind Kind, unsigned Batch) {
  core::PipelineRequest Req = pipelineRequest(Kind, 4);
  auto M = test::compileOrNull(Req.Profile.empty() ? Req.Eval : Req.Profile,
                               workloadInfo(Kind).Name);
  if (!M)
    return {};
  DigestObserver Obs;
  rt::MachineOptions MO;
  MO.Mode = rt::ExecMode::Native;
  MO.NumCores = 8;
  MO.Seed = Req.Config.ProfileSeedBase;
  MO.Costs = Req.Config.Costs;
  MO.DispatchBatch = Batch;
  MO.Observer = &Obs;
  rt::ExecutionResult R = rt::Machine(*M, MO).run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return Obs.stream();
}

struct RecordReplayStreams {
  Stream Record, Replay;
};

/// Record and replay of the 4-worker instrumented program at seed 2012
/// with a DynamicDetector attached; the instrumented program is
/// race-free (paper §2.4) in both runs.
RecordReplayStreams detectorStreams(WorkloadKind Kind, unsigned Batch) {
  const char *Name = workloadInfo(Kind).Name;
  core::PipelineConfig Cfg;
  Cfg.DispatchBatch = Batch;
  auto P = buildPipelineEx(Kind, 4, Cfg);
  EXPECT_TRUE(static_cast<bool>(P)) << P.error().message();
  if (!P)
    return {};
  RecordReplayStreams S;
  race::DynamicDetector RecDetector;
  DigestObserver RecObs(&RecDetector);
  rt::ExecutionResult Rec = (*P)->record(2012, &RecObs);
  EXPECT_TRUE(Rec.Ok) << Name << ": " << Rec.Error;
  EXPECT_EQ(RecDetector.raceCount(), 0u) << Name << " record";
  S.Record = RecObs.stream();

  race::DynamicDetector RepDetector;
  DigestObserver RepObs(&RepDetector);
  rt::ExecutionResult Rep = (*P)->replay(Rec.Log, &RepObs);
  EXPECT_TRUE(Rep.Ok) << Name << ": " << Rep.Error;
  EXPECT_EQ(Rep.StateHash, Rec.StateHash) << Name;
  EXPECT_EQ(RepDetector.raceCount(), 0u) << Name << " replay";
  S.Replay = RepObs.stream();
  return S;
}

struct StreamGolden {
  WorkloadKind Kind;
  Stream Profile, Record, Replay;
};

/// Pinned while observed runs still dispatched every instruction through
/// the generic per-instruction interpreter (Machine::execInstruction), so
/// any later dispatch path must reproduce that stream exactly.
const StreamGolden StreamGoldens[] = {
    {WorkloadKind::Aget,
     {0x29d0deb620a786b3ull, 2351ull},
     {0xd12a214c165a02a8ull, 55411ull},
     {0x2490b87dd8c9aa10ull, 55411ull}},
    {WorkloadKind::Pfscan,
     {0x1625c1c57bb27ed7ull, 4505ull},
     {0xb2a996b85bf44351ull, 15253ull},
     {0x87be4fbafbd7fbc1ull, 15253ull}},
    {WorkloadKind::Pbzip2,
     {0xc7e699fc69ea66e9ull, 10970ull},
     {0x9008332db9996024ull, 74942ull},
     {0x7d946716066d06d4ull, 74942ull}},
    {WorkloadKind::Knot,
     {0x165877667053c4d3ull, 8283ull},
     {0x9f6d7311c75ea432ull, 39121ull},
     {0x58d23133e1cb210eull, 39121ull}},
    {WorkloadKind::Apache,
     {0x79b2c17e2bc14060ull, 39759ull},
     {0x8d0da5883bdd2eaeull, 228269ull},
     {0x9e02b7ba2dc9eb7eull, 228269ull}},
    {WorkloadKind::Ocean,
     {0x2bce5dc9ed3c050dull, 10620ull},
     {0x52233f5331d9e288ull, 81274ull},
     {0x3e28af978295bcecull, 81274ull}},
    {WorkloadKind::Water,
     {0x37cf3da12097734eull, 11696ull},
     {0x9ad10e03e374c755ull, 65915ull},
     {0xde6738a6b34cbc25ull, 65915ull}},
    {WorkloadKind::Fft,
     {0x55dc135d109e004eull, 3400ull},
     {0x76a4a1c3dabca351ull, 27044ull},
     {0xb45619622e240befull, 27044ull}},
    {WorkloadKind::Radix,
     {0x21b6c26a63df5d92ull, 10868ull},
     {0x18a7451b4f98aa44ull, 41084ull},
     {0x6b13eddcbc7f53abull, 41084ull}},
};

} // namespace

TEST(ObserverStream, ProfileRunsMatchGolden) {
  for (const StreamGolden &G : StreamGoldens)
    for (unsigned Batch : {1u, 64u})
      EXPECT_EQ(profileStream(G.Kind, Batch), G.Profile)
          << workloadInfo(G.Kind).Name << " at batch " << Batch;
}

TEST(ObserverStream, DetectorRecordReplayMatchGolden) {
  for (const StreamGolden &G : StreamGoldens)
    for (unsigned Batch : {1u, 64u}) {
      RecordReplayStreams S = detectorStreams(G.Kind, Batch);
      const char *Name = workloadInfo(G.Kind).Name;
      EXPECT_EQ(S.Record, G.Record) << Name << " record at batch " << Batch;
      EXPECT_EQ(S.Replay, G.Replay) << Name << " replay at batch " << Batch;
    }
}

namespace {

/// Records the memory accesses of one run.
struct AccessLog : rt::ExecutionObserver {
  std::vector<uint64_t> Addrs;
  void onMemoryAccess(uint32_t, uint64_t Addr, bool, uint32_t, ir::InstId,
                      uint64_t) override {
    Addrs.push_back(Addr);
  }
};

} // namespace

// A load that overwrites its own address register must report the
// address it read from, not the value it loaded.
TEST(ObserverStream, LoadIntoItsAddressRegisterReportsTheAddress) {
  auto M = test::compileOrNull("int g = 777;\nint main() { return 0; }");
  ASSERT_NE(M, nullptr);
  ir::Function &Main = *M->findFunction("main");
  ir::Reg R = Main.newReg();
  auto inst = [&](ir::Opcode Op) {
    ir::Instruction I;
    I.Op = Op;
    I.Ident = Main.newInstId();
    return I;
  };
  ir::Instruction Addr = inst(ir::Opcode::AddrGlobal);
  Addr.Dst = R;
  Addr.Id = 0; // g
  ir::Instruction Load = inst(ir::Opcode::Load);
  Load.Dst = R;
  Load.A = R;
  ir::Instruction Out = inst(ir::Opcode::Output);
  Out.A = R;
  auto &Insts = Main.block(0).Insts;
  Insts.insert(Insts.begin(), {Addr, Load, Out});

  for (unsigned Batch : {1u, 64u}) {
    AccessLog Obs;
    rt::MachineOptions MO;
    MO.DispatchBatch = Batch;
    MO.Observer = &Obs;
    rt::ExecutionResult Res = rt::Machine(*M, MO).run();
    ASSERT_TRUE(Res.Ok) << Res.Error;
    EXPECT_EQ(Res.Output, std::vector<uint64_t>{777}) << "batch " << Batch;
    EXPECT_EQ(Obs.Addrs, std::vector<uint64_t>{M->Globals[0].BaseAddr})
        << "batch " << Batch;
  }
}
