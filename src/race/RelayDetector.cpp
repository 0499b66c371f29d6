//===- race/RelayDetector.cpp - Sound static race detection ----------------===//

#include "race/RelayDetector.h"

#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

using namespace chimera;
using namespace chimera::race;
using namespace chimera::ir;

uint64_t RacePair::key() const {
  uint64_t KA = (static_cast<uint64_t>(A.FuncId) << 24) | A.Ident;
  uint64_t KB = (static_cast<uint64_t>(B.FuncId) << 24) | B.Ident;
  if (KA > KB)
    std::swap(KA, KB);
  return (KA << 32) | KB;
}

std::vector<RacyAccess> RaceReport::racyInstructions() const {
  std::vector<RacyAccess> Out;
  std::set<std::pair<uint32_t, InstId>> Seen;
  for (const RacePair &P : Pairs) {
    for (const RacyAccess *A : {&P.A, &P.B})
      if (Seen.insert({A->FuncId, A->Ident}).second)
        Out.push_back(*A);
  }
  std::sort(Out.begin(), Out.end(), [](const RacyAccess &X,
                                       const RacyAccess &Y) {
    return std::tie(X.FuncId, X.Ident) < std::tie(Y.FuncId, Y.Ident);
  });
  return Out;
}

std::vector<std::pair<uint32_t, uint32_t>>
RaceReport::racyFunctionPairs() const {
  std::set<std::pair<uint32_t, uint32_t>> Seen;
  for (const RacePair &P : Pairs) {
    uint32_t A = P.A.FuncId, B = P.B.FuncId;
    Seen.insert({std::min(A, B), std::max(A, B)});
  }
  return {Seen.begin(), Seen.end()};
}

std::string RaceReport::str(const Module &M) const {
  std::string Out;
  for (const RacePair &P : Pairs) {
    auto describe = [&](const RacyAccess &A) {
      const Function &F = M.function(A.FuncId);
      const Instruction *Inst = F.findInst(A.Ident);
      std::string S = F.Name + ":" +
                      (Inst ? std::to_string(Inst->Loc.Line) : "?") +
                      (A.IsWrite ? " (write)" : " (read)");
      return S;
    };
    Out += describe(P.A) + " <-> " + describe(P.B) + " on {";
    for (size_t I = 0; I != P.Objects.size(); ++I) {
      if (I)
        Out += ", ";
      Out += "obj" + std::to_string(P.Objects[I]);
    }
    Out += "}\n";
  }
  return Out;
}

void RaceReport::publishTo(const obs::Scope &Scope) const {
  if (!Scope)
    return;
  Scope.gauge("pairs_before").set(static_cast<int64_t>(Mhp.PairsBefore));
  Scope.gauge("pairs_after").set(static_cast<int64_t>(Mhp.pairsAfter()));
  Scope.gauge("pruned_forkjoin").set(static_cast<int64_t>(Mhp.PrunedForkJoin));
  Scope.gauge("pruned_barrier").set(static_cast<int64_t>(Mhp.PrunedBarrier));
  Scope.gauge("pruned_listed").set(static_cast<int64_t>(PrunedPairs.size()));
}

RelayDetector::RelayDetector(const Module &M, const analysis::CallGraph &CG,
                             const analysis::PointsTo &PT,
                             const analysis::EscapeAnalysis &Escape,
                             support::ThreadPool *Pool,
                             const analysis::MayHappenInParallel *Mhp)
    : M(M), CG(CG), PT(PT), Escape(Escape), Pool(Pool), Mhp(Mhp) {}

namespace {

/// Flow state for the must-lockset dataflow: locks acquired since entry
/// and still held, plus entry locks possibly released.
struct LockFlow {
  Lockset RelHeld = Lockset::top(); ///< Top = unvisited.
  Lockset RelReleased;

  static LockFlow meet(const LockFlow &A, const LockFlow &B) {
    LockFlow Out;
    Out.RelHeld = Lockset::intersect(A.RelHeld, B.RelHeld);
    Out.RelReleased = Lockset::unite(A.RelReleased, B.RelReleased);
    return Out;
  }
  bool operator==(const LockFlow &O) const {
    return RelHeld == O.RelHeld && RelReleased == O.RelReleased;
  }
};

} // namespace

FunctionSummary RelayDetector::summarizeFunction(uint32_t FuncId) {
  const Function &Func = M.function(FuncId);
  uint32_t N = Func.numBlocks();

  std::vector<LockFlow> In(N), Out(N);
  In[0].RelHeld = Lockset(); // Entry: nothing acquired yet.

  // Access collection happens on every sweep but only the final sweep's
  // records survive (they are rebuilt each iteration).
  FunctionSummary Summary;

  auto transferBlock = [&](BlockId B, LockFlow Flow,
                           FunctionSummary *Collect) -> LockFlow {
    for (const Instruction &Inst : Func.block(B).Insts) {
      switch (Inst.Op) {
      case Opcode::MutexLock:
        if (Flow.RelReleased.contains(Inst.Id))
          Flow.RelReleased.erase(Inst.Id); // Entry lock reacquired.
        else if (!Flow.RelHeld.isTop())
          Flow.RelHeld.insert(Inst.Id);
        break;
      case Opcode::MutexUnlock:
        if (Flow.RelHeld.contains(Inst.Id) && !Flow.RelHeld.isTop())
          Flow.RelHeld.erase(Inst.Id);
        else
          Flow.RelReleased.insert(Inst.Id);
        if (Collect)
          Collect->MayReleased.insert(Inst.Id);
        break;
      case Opcode::CondWait:
        // Releases and reacquires the mutex: the net lockset is
        // unchanged, but any access that could interleave during the
        // wait is covered because the waiters hold no *other* lock in
        // common — RELAY models wait as lock-neutral too.
        break;
      case Opcode::Call: {
        const FunctionSummary &CS = Summaries[Inst.Id];
        if (!Flow.RelHeld.isTop())
          Flow.RelHeld = Lockset::unite(
              Lockset::subtract(Flow.RelHeld, CS.MayReleased),
              CS.NetAcquired);
        Flow.RelReleased = Lockset::unite(Flow.RelReleased, CS.MayReleased);
        if (Collect) {
          Collect->MayReleased =
              Lockset::unite(Collect->MayReleased, CS.MayReleased);
          // Lift callee accesses: they additionally hold whatever the
          // caller holds at the call site, minus anything the callee
          // might release.
          Lockset CallerHeld =
              Flow.RelHeld.isTop()
                  ? Lockset()
                  : Lockset::subtract(Flow.RelHeld, CS.MayReleased);
          for (const AccessRecord &A : CS.Accesses) {
            AccessRecord Lifted = A;
            Lifted.Held = Lockset::unite(A.Held, CallerHeld);
            Collect->Accesses.push_back(std::move(Lifted));
          }
        }
        break;
      }
      case Opcode::Load:
      case Opcode::Store: {
        if (!Collect)
          break;
        std::vector<uint32_t> Objects = PT.pointsTo(FuncId, Inst.A);
        Objects.erase(std::remove_if(Objects.begin(), Objects.end(),
                                     [&](uint32_t Obj) {
                                       return !Escape.escapes(Obj);
                                     }),
                      Objects.end());
        if (Objects.empty())
          break;
        AccessRecord Rec;
        Rec.FuncId = FuncId;
        Rec.Ident = Inst.Ident;
        Rec.IsWrite = Inst.Op == Opcode::Store;
        Rec.Objects = std::move(Objects);
        Rec.Held = Flow.RelHeld.isTop() ? Lockset() : Flow.RelHeld;
        Collect->Accesses.push_back(std::move(Rec));
        break;
      }
      default:
        break;
      }
    }
    return Flow;
  };

  // Fixpoint on block-entry states.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B = 0; B != N; ++B) {
      LockFlow NewIn = B == 0 ? In[0] : LockFlow();
      if (B != 0) {
        NewIn.RelHeld = Lockset::top();
        bool AnyPred = false;
        for (BlockId P = 0; P != N; ++P)
          for (BlockId S : Func.successors(P))
            if (S == B) {
              NewIn = LockFlow::meet(NewIn, Out[P]);
              AnyPred = true;
            }
        if (!AnyPred)
          NewIn.RelHeld = Lockset::top(); // Unreachable.
      }
      LockFlow NewOut = transferBlock(B, NewIn, nullptr);
      if (!(NewIn == In[B]) || !(NewOut == Out[B])) {
        In[B] = NewIn;
        Out[B] = NewOut;
        Changed = true;
      }
    }
  }

  // Final sweep: collect accesses and lock effects.
  for (BlockId B = 0; B != N; ++B) {
    if (In[B].RelHeld.isTop() && B != 0)
      continue; // Unreachable block.
    transferBlock(B, In[B], &Summary);
  }

  // Net lock effect: meet over return blocks.
  LockFlow ExitFlow;
  ExitFlow.RelHeld = Lockset::top();
  bool AnyRet = false;
  for (BlockId B = 0; B != N; ++B) {
    const BasicBlock &BB = Func.block(B);
    if (BB.hasTerminator() && BB.terminator().Op == Opcode::Ret &&
        !(In[B].RelHeld.isTop() && B != 0)) {
      ExitFlow = AnyRet ? LockFlow::meet(ExitFlow, Out[B]) : Out[B];
      AnyRet = true;
    }
  }
  Summary.NetAcquired =
      AnyRet && !ExitFlow.RelHeld.isTop() ? ExitFlow.RelHeld : Lockset();

  // Deduplicate accesses per instruction: union objects, intersect
  // locksets (sound across contexts).
  std::map<std::pair<uint32_t, InstId>, AccessRecord> Dedup;
  for (AccessRecord &A : Summary.Accesses) {
    auto Key = std::make_pair(A.FuncId, A.Ident);
    auto It = Dedup.find(Key);
    if (It == Dedup.end()) {
      Dedup.emplace(Key, std::move(A));
      continue;
    }
    AccessRecord &Existing = It->second;
    std::vector<uint32_t> MergedObjs;
    std::set_union(Existing.Objects.begin(), Existing.Objects.end(),
                   A.Objects.begin(), A.Objects.end(),
                   std::back_inserter(MergedObjs));
    Existing.Objects = std::move(MergedObjs);
    Existing.Held = Lockset::intersect(Existing.Held, A.Held);
  }
  Summary.Accesses.clear();
  for (auto &[Key, Rec] : Dedup)
    Summary.Accesses.push_back(std::move(Rec));

  return Summary;
}

void RelayDetector::computeScc(const std::vector<uint32_t> &Scc) {
  // Iterate the SCC to fixpoint (recursion converges because locksets
  // shrink and access sets are bounded by the dedup).
  for (unsigned Iter = 0;; ++Iter) {
    bool Changed = false;
    for (uint32_t F : Scc) {
      FunctionSummary New = summarizeFunction(F);
      if (!(New == Summaries[F])) {
        Summaries[F] = std::move(New);
        Changed = true;
      }
    }
    if (!Changed || Scc.size() == 1)
      break;
    assert(Iter < 100 && "SCC summary iteration failed to converge");
  }
}

void RelayDetector::computeSummaries() {
  Summaries.assign(M.Functions.size(), FunctionSummary());

  // Bottom-up over the SCC condensation. SCCs are numbered callee-first,
  // so a callee's DAG level is always computed before its callers'.
  const std::vector<std::vector<uint32_t>> &Sccs = CG.bottomUpSccs();
  std::vector<uint32_t> Level(Sccs.size(), 0);
  uint32_t MaxLevel = 0;
  for (uint32_t S = 0; S != Sccs.size(); ++S) {
    for (uint32_t F : Sccs[S])
      for (uint32_t Callee : CG.callees(F))
        if (CG.sccId(Callee) != S)
          Level[S] = std::max(Level[S], Level[CG.sccId(Callee)] + 1);
    MaxLevel = std::max(MaxLevel, Level[S]);
  }
  std::vector<std::vector<uint32_t>> ByLevel(MaxLevel + 1);
  for (uint32_t S = 0; S != Sccs.size(); ++S)
    ByLevel[Level[S]].push_back(S);

  // SCCs within a level share no call edges, so their summary slots are
  // disjoint and their callee reads all target completed lower levels:
  // any interleaving produces the same Summaries vector.
  for (const std::vector<uint32_t> &Group : ByLevel) {
    if (Pool && !Pool->isInline() && Group.size() > 1)
      Pool->parallelFor(Group.size(),
                        [&](size_t I) { computeScc(Sccs[Group[I]]); });
    else
      for (uint32_t S : Group)
        computeScc(Sccs[S]);
  }
}

RaceReport RelayDetector::detect() {
  computeSummaries();

  RaceReport Report;
  std::set<uint64_t> Seen;
  // Candidates removed under some root context. A key pruned under one
  // context but racy under another must stay in Pairs, so pruning is
  // resolved only after every context was examined: a key lands in
  // PrunedPairs iff it never entered Seen. First-encounter reason wins
  // (the root iteration order is deterministic).
  std::map<uint64_t, PrunedRace> PrunedCand;
  const bool Filter = Mhp && Mhp->mode() != analysis::MhpMode::Off;

  const std::vector<uint32_t> &Roots = CG.threadRoots();
  for (size_t I = 0; I != Roots.size(); ++I) {
    for (size_t J = I; J != Roots.size(); ++J) {
      uint32_t R1 = Roots[I], R2 = Roots[J];
      if (R1 == R2) {
        // A root races with itself only if two of its instances can run
        // concurrently (a spawn target spawned repeatedly); main cannot.
        if (R1 == M.MainFunction || !CG.mayHaveConcurrentInstances(R1))
          continue;
      }
      const auto &AccA = Summaries[R1].Accesses;
      const auto &AccB = Summaries[R2].Accesses;
      for (const AccessRecord &A : AccA) {
        for (const AccessRecord &B : AccB) {
          if (!A.IsWrite && !B.IsWrite)
            continue;
          if (!Lockset::disjoint(A.Held, B.Held))
            continue;
          std::vector<uint32_t> Common;
          std::set_intersection(A.Objects.begin(), A.Objects.end(),
                                B.Objects.begin(), B.Objects.end(),
                                std::back_inserter(Common));
          if (Common.empty())
            continue;

          RacePair Pair;
          Pair.A = {A.FuncId, A.Ident, A.IsWrite};
          Pair.B = {B.FuncId, B.Ident, B.IsWrite};
          Pair.Objects = std::move(Common);
          if (Filter) {
            analysis::MhpOrdering Ord = Mhp->classify(
                R1, A.FuncId, A.Ident, R2, B.FuncId, B.Ident);
            if (Ord != analysis::MhpOrdering::MayRace) {
              PrunedCand.try_emplace(Pair.key(),
                                     PrunedRace{std::move(Pair), Ord});
              continue;
            }
          }
          if (Seen.insert(Pair.key()).second)
            Report.Pairs.push_back(std::move(Pair));
        }
      }
    }
  }

  for (auto &Entry : PrunedCand) {
    if (Seen.count(Entry.first))
      continue; // Racy under another root context: stays a real pair.
    if (Entry.second.Reason == analysis::MhpOrdering::OrderedForkJoin)
      ++Report.Mhp.PrunedForkJoin;
    else
      ++Report.Mhp.PrunedBarrier;
    Report.PrunedPairs.push_back(std::move(Entry.second));
  }
  Report.Mhp.Mode = Mhp ? Mhp->mode() : analysis::MhpMode::Off;
  Report.Mhp.PairsBefore = Report.Pairs.size() + Report.PrunedPairs.size();

  std::sort(Report.Pairs.begin(), Report.Pairs.end(),
            [](const RacePair &X, const RacePair &Y) {
              return X.key() < Y.key();
            });
  return Report;
}
