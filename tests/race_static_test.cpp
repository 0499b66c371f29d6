//===- tests/race_static_test.cpp - RELAY static race detector tests -------===//

#include "TestUtil.h"
#include "codegen/CodeGen.h"
#include "race/Lockset.h"
#include "race/RelayDetector.h"

#include <gtest/gtest.h>

using namespace chimera;
using namespace chimera::race;

namespace {

RaceReport detect(const std::string &Source) {
    auto M = test::compileOrNull(Source, "t");
  analysis::CallGraph CG(*M);
  analysis::PointsTo PT(*M);
  analysis::EscapeAnalysis Escape(*M, PT);
  RelayDetector Detector(*M, CG, PT, Escape);
  return Detector.detect();
}

bool reportsRaceBetween(const RaceReport &Report, const ir::Module &M,
                        const std::string &FA, const std::string &FB) {
  uint32_t A = M.findFunction(FA)->Index;
  uint32_t B = M.findFunction(FB)->Index;
  for (auto [X, Y] : Report.racyFunctionPairs())
    if ((X == A && Y == B) || (X == B && Y == A))
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lockset algebra
//===----------------------------------------------------------------------===//

TEST(Lockset, BasicOps) {
  Lockset L;
  EXPECT_TRUE(L.empty());
  L.insert(3);
  L.insert(1);
  L.insert(3);
  EXPECT_EQ(L.size(), 2u);
  EXPECT_TRUE(L.contains(1));
  L.erase(1);
  EXPECT_FALSE(L.contains(1));
}

TEST(Lockset, IntersectUniteSubtract) {
  Lockset A({1, 2, 3}), B({2, 3, 4});
  EXPECT_EQ(Lockset::intersect(A, B), Lockset({2, 3}));
  EXPECT_EQ(Lockset::unite(A, B), Lockset({1, 2, 3, 4}));
  EXPECT_EQ(Lockset::subtract(A, B), Lockset({1}));
}

TEST(Lockset, TopBehavesAsIdentityForIntersect) {
  Lockset A({1, 2});
  EXPECT_EQ(Lockset::intersect(Lockset::top(), A), A);
  EXPECT_EQ(Lockset::intersect(A, Lockset::top()), A);
  EXPECT_TRUE(Lockset::unite(A, Lockset::top()).isTop());
}

TEST(Lockset, Disjointness) {
  EXPECT_TRUE(Lockset::disjoint(Lockset({1}), Lockset({2})));
  EXPECT_FALSE(Lockset::disjoint(Lockset({1, 2}), Lockset({2, 3})));
  EXPECT_TRUE(Lockset::disjoint(Lockset(), Lockset()));
  EXPECT_TRUE(Lockset::disjoint(Lockset::top(), Lockset()));
  EXPECT_FALSE(Lockset::disjoint(Lockset::top(), Lockset({1})));
}

//===----------------------------------------------------------------------===//
// Detection on whole programs
//===----------------------------------------------------------------------===//

TEST(Relay, UnlockedSharedCounterIsRacy) {
  auto Report = detect("int c;\nint tids[2];\n"
                       "void w(int n) { int i; for (i = 0; i < n; i++) { "
                       "c = c + 1; } }\n"
                       "int main() { tids[0] = spawn(w, 10); "
                       "tids[1] = spawn(w, 10); join(tids[0]); "
                       "join(tids[1]); return 0; }");
  EXPECT_FALSE(Report.Pairs.empty());
}

TEST(Relay, MutexProtectedCounterIsClean) {
  auto Report = detect("int c;\nmutex m;\nint tids[2];\n"
                       "void w(int n) { int i; for (i = 0; i < n; i++) { "
                       "lock(m); c = c + 1; unlock(m); } }\n"
                       "int main() { tids[0] = spawn(w, 10); "
                       "tids[1] = spawn(w, 10); join(tids[0]); "
                       "join(tids[1]); return 0; }");
  EXPECT_TRUE(Report.Pairs.empty()) << Report.Pairs.size();
}

TEST(Relay, DifferentLocksStillRace) {
  auto Report = detect("int c;\nmutex m1;\nmutex m2;\n"
                       "void w1() { lock(m1); c = 1; unlock(m1); }\n"
                       "void w2() { lock(m2); c = 2; unlock(m2); }\n"
                       "int main() { int a = spawn(w1); int b = spawn(w2); "
                       "join(a); join(b); return 0; }");
  EXPECT_FALSE(Report.Pairs.empty());
}

TEST(Relay, ReadOnlySharingIsClean) {
  auto Report = detect("int table[8];\nint out[2];\n"
                       "void w(int id) { out[id] = table[id]; }\n"
                       "int main() { int a = spawn(w, 0); "
                       "int b = spawn(w, 1); join(a); join(b); "
                       "return 0; }");
  // out[id] write-write races (same abstract object); table reads alone
  // must not race. Verify no pair is read/read.
  for (const RacePair &P : Report.Pairs)
    EXPECT_TRUE(P.A.IsWrite || P.B.IsWrite);
}

TEST(Relay, BarrierOrderingIsInvisible) {
  // The classic false positive (paper Fig. 2): phases separated by a
  // barrier do not race dynamically, but RELAY must still report them.
  std::string Src = "int x;\nbarrier b(2);\n"
                    "void interf() { x = 1; }\n"
                    "void bndry() { x = 2; }\n"
                    "void w1() { interf(); barrier_wait(b); }\n"
                    "void w2() { barrier_wait(b); bndry(); }\n"
                    "int main() { int t1 = spawn(w1); int t2 = spawn(w2); "
                    "join(t1); join(t2); return 0; }";
    auto M = test::compileOrNull(Src, "t");
  ASSERT_NE(M, nullptr);
  auto Report = detect(Src);
  EXPECT_TRUE(reportsRaceBetween(Report, *M, "interf", "bndry"));
}

TEST(Relay, ForkJoinOrderingIsInvisible) {
  // Init-before-spawn and read-after-join are HB-ordered dynamically;
  // RELAY reports them anyway (its second false-positive class).
  std::string Src = "int cfg;\nint res;\n"
                    "void init() { cfg = 5; }\n"
                    "void fini() { res = cfg; }\n"
                    "void w() { res = cfg + 1; }\n"
                    "int main() { init(); int t = spawn(w); join(t); "
                    "fini(); return 0; }";
    auto M = test::compileOrNull(Src, "t");
  ASSERT_NE(M, nullptr);
  auto Report = detect(Src);
  EXPECT_TRUE(reportsRaceBetween(Report, *M, "init", "w"));
  EXPECT_TRUE(reportsRaceBetween(Report, *M, "fini", "w"));
}

TEST(Relay, MainOnlyCodeCannotRaceWithItself) {
  auto Report = detect("int g;\n"
                       "void a() { g = 1; }\nvoid b() { g = 2; }\n"
                       "int main() { a(); b(); return g; }");
  EXPECT_TRUE(Report.Pairs.empty());
}

TEST(Relay, SingleSpawnDoesNotSelfRace) {
  auto Report = detect("int g;\nvoid w() { g = g + 1; }\n"
                       "int main() { int t = spawn(w); join(t); "
                       "return 0; }");
  // w races with nothing: main never touches g.
  EXPECT_TRUE(Report.Pairs.empty());
}

TEST(Relay, SpawnInLoopSelfRaces) {
  auto Report = detect("int g;\nint tids[4];\nvoid w() { g = g + 1; }\n"
                       "int main() { int j; for (j = 0; j < 4; j++) { "
                       "tids[j] = spawn(w); } "
                       "for (j = 0; j < 4; j++) { join(tids[j]); } "
                       "return 0; }");
  ASSERT_FALSE(Report.Pairs.empty());
  EXPECT_EQ(Report.Pairs[0].A.FuncId, Report.Pairs[0].B.FuncId);
}

TEST(Relay, PartitionedArrayStillReported) {
  // Workers write disjoint halves; field-insensitive points-to merges
  // them (the imprecision the symbolic-bounds optimization targets).
  auto Report = detect("int a[100];\n"
                       "void w(int* base, int n) { int i; "
                       "for (i = 0; i < n; i++) { base[i] = i; } }\n"
                       "int main() { int t1 = spawn(w, &a[0], 50); "
                       "int t2 = spawn(w, &a[50], 50); join(t1); join(t2); "
                       "return 0; }");
  EXPECT_FALSE(Report.Pairs.empty());
}

TEST(Relay, NonEscapingHeapFiltered) {
  auto Report = detect("int tids[2];\n"
                       "void w(int n) { int* p = alloc(8); int i; "
                       "for (i = 0; i < n; i++) { p[0] = p[0] + i; } }\n"
                       "int main() { tids[0] = spawn(w, 5); "
                       "tids[1] = spawn(w, 5); join(tids[0]); "
                       "join(tids[1]); return 0; }");
  // Each thread's scratch is its own allocation... but the abstract
  // heap site is shared between instances of w. It does NOT escape via
  // spawn args, so the escape filter drops it (paper §6.2's heapified
  // local filtering).
  EXPECT_TRUE(Report.Pairs.empty());
}

TEST(Relay, EscapingHeapReported) {
  auto Report = detect("int tids[2];\n"
                       "void w(int* p) { p[0] = p[0] + 1; }\n"
                       "int main() { int* shared = alloc(4); "
                       "tids[0] = spawn(w, shared); "
                       "tids[1] = spawn(w, shared); "
                       "join(tids[0]); join(tids[1]); return 0; }");
  EXPECT_FALSE(Report.Pairs.empty());
}

TEST(Relay, LockedCalleeSummariesCompose) {
  // The lock is taken in the caller; the access is in the callee. The
  // bottom-up summary must register the lock at the lifted access.
  auto Report = detect("int c;\nmutex m;\nint tids[2];\n"
                       "void bump() { c = c + 1; }\n"
                       "void w() { lock(m); bump(); unlock(m); }\n"
                       "int main() { tids[0] = spawn(w); "
                       "tids[1] = spawn(w); join(tids[0]); join(tids[1]); "
                       "return 0; }");
  EXPECT_TRUE(Report.Pairs.empty());
}

TEST(Relay, CalleeUnlockInvalidatesCallerLock) {
  // The callee releases the caller's lock before the access: unsafe, and
  // the summary's MayReleased must catch it.
  auto Report = detect("int c;\nmutex m;\nint tids[2];\n"
                       "void sneaky() { unlock(m); c = c + 1; lock(m); }\n"
                       "void w() { lock(m); sneaky(); unlock(m); }\n"
                       "int main() { tids[0] = spawn(w); "
                       "tids[1] = spawn(w); join(tids[0]); join(tids[1]); "
                       "return 0; }");
  EXPECT_FALSE(Report.Pairs.empty());
}

TEST(Relay, BranchMergeIntersectsLocksets) {
  // Lock held on only one path to the access: must-analysis intersects,
  // so the access counts as unprotected.
  auto Report = detect("int c;\nmutex m;\nint tids[2];\n"
                       "void w(int f) { if (f) { lock(m); } "
                       "c = c + 1; if (f) { unlock(m); } }\n"
                       "int main() { tids[0] = spawn(w, 0); "
                       "tids[1] = spawn(w, 1); join(tids[0]); "
                       "join(tids[1]); return 0; }");
  EXPECT_FALSE(Report.Pairs.empty());
}

TEST(Relay, RacyInstructionsAndFunctionPairsDeduplicated) {
  auto Report = detect("int g;\nint tids[3];\n"
                       "void w() { g = g + 1; g = g + 2; }\n"
                       "int main() { int j; for (j = 0; j < 3; j++) { "
                       "tids[j] = spawn(w); } "
                       "for (j = 0; j < 3; j++) { join(tids[j]); } "
                       "return 0; }");
  // Two writes + two reads in w; pairs among them; function pair just 1.
  EXPECT_EQ(Report.racyFunctionPairs().size(), 1u);
  auto Insts = Report.racyInstructions();
  for (size_t I = 1; I < Insts.size(); ++I)
    EXPECT_TRUE(std::tie(Insts[I - 1].FuncId, Insts[I - 1].Ident) <
                std::tie(Insts[I].FuncId, Insts[I].Ident));
}

TEST(Relay, CondVarOrderingInvisible) {
  // Producer/consumer ordered by condvar handshake on a DIFFERENT
  // variable: the flag is mutex-protected, but the payload written
  // outside the lock races per RELAY.
  auto Report = detect(
      "int payload;\nint ready;\nmutex m;\ncond cv;\n"
      "void producer() { payload = 9; lock(m); ready = 1; "
      "cond_signal(cv); unlock(m); }\n"
      "void consumer() { lock(m); while (ready == 0) { cond_wait(cv, m); } "
      "unlock(m); output(payload); }\n"
      "int main() { int a = spawn(producer); int b = spawn(consumer); "
      "join(a); join(b); return 0; }");
  EXPECT_FALSE(Report.Pairs.empty());
}
