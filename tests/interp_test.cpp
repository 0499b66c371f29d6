//===- tests/interp_test.cpp - Sequential interpreter semantics ------------===//
//
// Single-threaded execution semantics: the MiniC program's outputs are
// checked against expected values, which exercises codegen and the
// interpreter together.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "codegen/CodeGen.h"
#include "runtime/Machine.h"

#include <gtest/gtest.h>

using namespace chimera;

namespace {

rt::ExecutionResult runSource(const std::string &Source,
                              uint64_t Seed = 1) {
    auto M = test::compileOrNull(Source, "t");
  if (!M)
    return {};
  rt::MachineOptions MO;
  MO.Seed = Seed;
  rt::Machine Machine(*M, MO);
  return Machine.run();
}

std::vector<uint64_t> outputsOf(const std::string &Source) {
  auto R = runSource(Source);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Output;
}

} // namespace

TEST(Interp, ArithmeticBasics) {
  EXPECT_EQ(outputsOf("int main() { output(2 + 3 * 4); "
                      "output(10 - 7); output(9 / 2); output(9 % 2); "
                      "return 0; }"),
            (std::vector<uint64_t>{14, 3, 4, 1}));
}

TEST(Interp, SignedDivisionAndShift) {
  EXPECT_EQ(outputsOf("int main() { output(0 - (7 / 2)); "
                      "output((0 - 8) >> 1); output(1 << 10); return 0; }"),
            (std::vector<uint64_t>{static_cast<uint64_t>(-3),
                                   static_cast<uint64_t>(-4), 1024}));
}

TEST(Interp, BitwiseOps) {
  EXPECT_EQ(outputsOf("int main() { output(12 & 10); output(12 | 3); "
                      "output(12 ^ 10); return 0; }"),
            (std::vector<uint64_t>{8, 15, 6}));
}

TEST(Interp, Comparisons) {
  EXPECT_EQ(outputsOf("int main() { output(1 < 2); output(2 <= 1); "
                      "output(3 > 2); output(2 >= 3); output(4 == 4); "
                      "output(4 != 4); return 0; }"),
            (std::vector<uint64_t>{1, 0, 1, 0, 1, 0}));
}

TEST(Interp, UnaryOps) {
  EXPECT_EQ(outputsOf("int main() { output(-5 + 6); output(!0); output(!7); "
                      "return 0; }"),
            (std::vector<uint64_t>{1, 1, 0}));
}

// Parameterized sweep: every binary operator against a table of operand
// pairs, compared with the host's semantics.
struct OpCase {
  const char *Spelling;
  int64_t A, B;
  int64_t Expected;
};

// CTest names each discovered case after its printed parameter, so print
// a stable mnemonic (e.g. `div_-7_2`) rather than gtest's default byte
// dump, which embeds the address of `Spelling` and changes every run.
void PrintTo(const OpCase &C, std::ostream *OS) {
  static const std::pair<std::string, const char *> Names[] = {
      {"+", "add"}, {"-", "sub"}, {"*", "mul"},  {"/", "div"},
      {"%", "rem"}, {"&", "and"}, {"|", "or"},   {"^", "xor"},
      {"<<", "shl"}, {">>", "shr"}, {"<", "lt"}, {"<=", "le"},
      {">", "gt"},  {">=", "ge"}, {"==", "eq"},  {"!=", "ne"}};
  const char *Name = C.Spelling;
  for (const auto &[Spelling, Mnemonic] : Names)
    if (Spelling == C.Spelling)
      Name = Mnemonic;
  *OS << Name << '_' << C.A << '_' << C.B;
}

class BinaryOpSemantics : public ::testing::TestWithParam<OpCase> {};

TEST_P(BinaryOpSemantics, MatchesHost) {
  const OpCase &C = GetParam();
  std::string Src = "int main() { int a = " + std::to_string(C.A) +
                    "; int b = " + std::to_string(C.B) + "; output(a " +
                    C.Spelling + " b); return 0; }";
  auto Out = outputsOf(Src);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(static_cast<int64_t>(Out[0]), C.Expected) << Src;
}

INSTANTIATE_TEST_SUITE_P(
    Table, BinaryOpSemantics,
    ::testing::Values(
        OpCase{"+", 1000000007, 998244353, 1998244360},
        OpCase{"+", -5, 3, -2}, OpCase{"-", 3, 10, -7},
        OpCase{"*", -7, 6, -42}, OpCase{"/", -7, 2, -3},
        OpCase{"/", 7, -2, -3}, OpCase{"%", -7, 2, -1},
        OpCase{"%", 7, 3, 1}, OpCase{"&", 0xf0f0, 0xff00, 0xf000},
        OpCase{"|", 0x0f, 0xf0, 0xff}, OpCase{"^", 0xff, 0x0f, 0xf0},
        OpCase{"<<", 3, 4, 48}, OpCase{">>", -16, 2, -4},
        OpCase{"<", -1, 0, 1}, OpCase{"<=", 5, 5, 1},
        OpCase{">", -1, -2, 1}, OpCase{">=", -3, -2, 0},
        OpCase{"==", 42, 42, 1}, OpCase{"!=", 42, 43, 1}));

TEST(Interp, ShortCircuitSkipsSideEffects) {
  // The `g = 1` branch of && must not run when the left side is false.
  EXPECT_EQ(outputsOf("int g;\n"
                      "int set() { g = 1; return 1; }\n"
                      "int main() { int x = 0 && set(); output(g); "
                      "output(x); x = 1 || set(); output(g); output(x); "
                      "return 0; }"),
            (std::vector<uint64_t>{0, 0, 0, 1}));
}

TEST(Interp, WhileAndForLoops) {
  EXPECT_EQ(outputsOf("int main() { int s = 0; int i = 0; "
                      "while (i < 5) { s += i; i++; } output(s); "
                      "int t = 0; for (i = 10; i > 0; i -= 2) { t++; } "
                      "output(t); return 0; }"),
            (std::vector<uint64_t>{10, 5}));
}

TEST(Interp, BreakAndContinue) {
  EXPECT_EQ(outputsOf("int main() { int s = 0; int i; "
                      "for (i = 0; i < 10; i++) { "
                      "if (i == 7) { break; } "
                      "if (i % 2 == 0) { continue; } s += i; } "
                      "output(s); return 0; }"),
            (std::vector<uint64_t>{1 + 3 + 5}));
}

TEST(Interp, NestedLoops) {
  EXPECT_EQ(outputsOf("int main() { int s = 0; int i; int j; "
                      "for (i = 0; i < 4; i++) { "
                      "for (j = 0; j < i; j++) { s++; } } "
                      "output(s); return 0; }"),
            (std::vector<uint64_t>{6}));
}

TEST(Interp, GlobalsAndArrays) {
  EXPECT_EQ(outputsOf("int g = 5;\nint a[4];\n"
                      "int main() { a[0] = g; a[1] = a[0] * 2; "
                      "a[2] = a[1] + a[0]; g = a[2]; output(g); "
                      "return 0; }"),
            (std::vector<uint64_t>{15}));
}

TEST(Interp, GlobalInitializers) {
  EXPECT_EQ(outputsOf("int g = -9;\nint a[3];\n"
                      "int main() { output(g); output(a[2]); return 0; }"),
            (std::vector<uint64_t>{static_cast<uint64_t>(-9), 0}));
}

TEST(Interp, PointersAndAddressOf) {
  EXPECT_EQ(outputsOf("int a[8];\n"
                      "int main() { int* p = &a[2]; p[0] = 7; p[1] = 8; "
                      "int* q = a + 3; output(a[2]); output(q[0]); "
                      "q = q - 1; output(q[0]); return 0; }"),
            (std::vector<uint64_t>{7, 8, 7}));
}

TEST(Interp, PointerParamsAcrossCalls) {
  EXPECT_EQ(outputsOf("int a[4];\n"
                      "void fill(int* p, int n, int v) { int i; "
                      "for (i = 0; i < n; i++) { p[i] = v + i; } }\n"
                      "int main() { fill(&a[1], 3, 10); output(a[0]); "
                      "output(a[1]); output(a[3]); return 0; }"),
            (std::vector<uint64_t>{0, 10, 12}));
}

TEST(Interp, HeapAllocation) {
  EXPECT_EQ(outputsOf("int main() { int* p = alloc(4); int* q = alloc(4); "
                      "p[0] = 1; q[0] = 2; output(p[0]); output(q[0]); "
                      "output(p == q); return 0; }"),
            (std::vector<uint64_t>{1, 2, 0}));
}

TEST(Interp, RecursionFactorial) {
  EXPECT_EQ(outputsOf("int fact(int n) { if (n <= 1) { return 1; } "
                      "return n * fact(n - 1); }\n"
                      "int main() { output(fact(10)); return 0; }"),
            (std::vector<uint64_t>{3628800}));
}

TEST(Interp, MutualRecursion) {
  // Note: no forward declarations needed — name resolution sees every
  // function in the translation unit.
  EXPECT_EQ(outputsOf("int iseven(int n) { if (n == 0) { return 1; } "
                      "return isodd(n - 1); }\n"
                      "int isodd(int n) { if (n == 0) { return 0; } "
                      "return iseven(n - 1); }\n"
                      "int main() { output(iseven(10)); output(isodd(7)); "
                      "return 0; }"),
            (std::vector<uint64_t>{1, 1}));
}

TEST(Interp, ImplicitReturnZero) {
  EXPECT_EQ(outputsOf("int f() { int x = 3; x++; }\n"
                      "int main() { output(f()); return 0; }"),
            (std::vector<uint64_t>{0}));
}

TEST(Interp, DivisionByZeroFaults) {
  auto R = runSource("int main() { int z = 0; return 5 / z; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("division by zero"), std::string::npos);
}

TEST(Interp, RemainderByZeroFaults) {
  auto R = runSource("int main() { int z = 0; return 5 % z; }");
  EXPECT_FALSE(R.Ok);
}

TEST(Interp, WildAddressFaults) {
  auto R = runSource("int main() { int* p = alloc(1); p = p + 100000; "
                     "p[0] = 1; return 0; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invalid store"), std::string::npos);
}

TEST(Interp, NullDereferenceFaults) {
  auto R = runSource("int z;\nint main() { int* p = &z; p = p - 99999; "
                     "return p[0]; }");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("invalid load"), std::string::npos);
}

TEST(Interp, InputsAreSeedDeterministic) {
  const char *Src = "int main() { output(input()); output(input()); "
                    "return 0; }";
  auto A = runSource(Src, 5);
  auto B = runSource(Src, 5);
  auto C = runSource(Src, 6);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_NE(A.Output, C.Output);
}

TEST(Interp, StatsCountInstructionsAndMemOps) {
  auto R = runSource("int a[4];\nint main() { a[0] = 1; a[1] = a[0]; "
                     "return 0; }");
  ASSERT_TRUE(R.Ok);
  // Two stores and one load.
  EXPECT_EQ(R.Stats.MemOps, 3u);
  EXPECT_GT(R.Stats.Instructions, 3u);
  EXPECT_GT(R.Stats.MakespanCycles, 0u);
}

TEST(Interp, OutputOrderPreservedSingleThread) {
  std::vector<uint64_t> Expected;
  for (int I = 0; I != 20; ++I)
    Expected.push_back(static_cast<uint64_t>(I * I));
  EXPECT_EQ(outputsOf("int main() { int i; for (i = 0; i < 20; i++) { "
                      "output(i * i); } return 0; }"),
            Expected);
}
