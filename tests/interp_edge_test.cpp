// Additional interpreter edge-case coverage: scoping, unwinding,
// arithmetic corners, intrinsic boundaries. The InterpEdge tests run
// each program on the VM and on the tree-walking oracle and expect the
// same run (tests/oracle.h); the EngineEdge suite at the bottom pins the
// trickiest semantics — short-circuit side-effect ordering,
// division/modulo faults, negative strides — on each engine explicitly.
#include <gtest/gtest.h>

#include "instrument/annotator.h"
#include "minic/parser.h"
#include "oracle.h"
#include "sim/interpreter.h"
#include "trace/sink.h"

namespace foray::sim {
namespace {

std::unique_ptr<minic::Program> prepare(std::string_view src) {
  util::DiagList diags;
  auto prog = minic::parse_and_check(src, &diags);
  EXPECT_NE(prog, nullptr) << diags.str();
  if (prog) instrument::annotate_loops(prog.get());
  return prog;
}

/// Runs `src` on the VM and on the tree-walking oracle, expects the same
/// run, and returns the VM's.
RunResult run_src(std::string_view src, const RunOptions& opts = {}) {
  auto prog = prepare(src);
  if (!prog) return RunResult{};
  return oracle::run_both(*prog, opts).result;
}

int exit_of(std::string_view src) {
  RunResult r = run_src(src);
  EXPECT_TRUE(r.ok()) << r.error();
  return r.exit_code;
}

TEST(InterpEdge, BlockScopeShadowing) {
  EXPECT_EQ(exit_of("int main(void) { int x = 1; { int x = 2; { int x = 3; "
                    "} x = x + 10; } return x; }"),
            1);
}

TEST(InterpEdge, ForScopeIteratorInvisibleOutside) {
  EXPECT_EQ(exit_of("int main(void) { int i = 99; "
                    "for (int i = 0; i < 5; i++) {} return i; }"),
            99);
}

TEST(InterpEdge, NestedBreakOnlyExitsInnerLoop) {
  EXPECT_EQ(exit_of("int main(void) { int s = 0; "
                    "for (int i = 0; i < 3; i++) "
                    "for (int j = 0; j < 100; j++) { if (j == 2) break; "
                    "s++; } return s; }"),
            6);
}

TEST(InterpEdge, ContinueInWhileLoop) {
  EXPECT_EQ(exit_of("int main(void) { int i = 0; int s = 0; "
                    "while (i < 10) { i++; if (i % 2) continue; s += i; } "
                    "return s; }"),
            30);
}

TEST(InterpEdge, BreakInsideDoWhile) {
  EXPECT_EQ(exit_of("int main(void) { int n = 0; do { n++; if (n == 3) "
                    "break; } while (1); return n; }"),
            3);
}

TEST(InterpEdge, ReturnValueConversionNarrows) {
  EXPECT_EQ(exit_of("char f(void) { return 300; } "
                    "int main(void) { return f(); }"),
            44);
}

TEST(InterpEdge, FloatToIntTruncatesTowardZero) {
  EXPECT_EQ(exit_of("int main(void) { float f = 2.9f; return (int)f; }"),
            2);
  EXPECT_EQ(exit_of("int main(void) { float f = -2.9f; return (int)f; }"),
            -2);
}

TEST(InterpEdge, MixedIntFloatArithmeticPromotes) {
  EXPECT_EQ(exit_of("int main(void) { float f = 0.5f; "
                    "return (int)(3 * f * 4.0f); }"),
            6);
}

TEST(InterpEdge, ShortTypeRoundTrips) {
  EXPECT_EQ(exit_of("short s;\nint main(void) { s = 70000; return s == "
                    "70000 - 65536; }"),
            1);
}

TEST(InterpEdge, NegativeModulo) {
  EXPECT_EQ(exit_of("int main(void) { return (-7 % 3) + 10; }"), 9);
}

TEST(InterpEdge, CharPointerVsIntPointerStride) {
  EXPECT_EQ(exit_of("int a[4];\n"
                    "int main(void) { char *c = (char*)a; int *p = a; "
                    "return (int)((char*)(p + 1) - c); }"),
            4);
}

TEST(InterpEdge, PointerComparisonInLoop) {
  EXPECT_EQ(exit_of("int a[10];\n"
                    "int main(void) { int *p = a; int *end = a + 10; "
                    "int n = 0; while (p != end) { p++; n++; } return n; }"),
            10);
}

TEST(InterpEdge, RecursionDepthLimitReported) {
  RunResult r = run_src("int f(int n) { return f(n + 1); } "
                        "int main(void) { return f(0); }");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("depth"), std::string::npos);
}

TEST(InterpEdge, GlobalInitializersRunInOrder) {
  EXPECT_EQ(exit_of("int a = 5; int b = a + 1; int c = b * 2;\n"
                    "int main(void) { return c; }"),
            12);
}

TEST(InterpEdge, ArrayInitListPartiallyFilled) {
  EXPECT_EQ(exit_of("int t[8] = {1, 2, 3};\n"
                    "int main(void) { return t[0] + t[2] + t[7]; }"),
            4);  // trailing elements zero-initialized
}

TEST(InterpEdge, TernaryNested) {
  EXPECT_EQ(exit_of("int main(void) { int x = 5; "
                    "return x < 3 ? 1 : x < 7 ? 2 : 3; }"),
            2);
}

TEST(InterpEdge, CommaFreeForWithCompoundStep) {
  EXPECT_EQ(exit_of("int main(void) { int s = 0; "
                    "for (int i = 0; i < 32; i += 8) s += i; return s; }"),
            48);
}

TEST(InterpEdge, LogicalNotOnPointer) {
  EXPECT_EQ(exit_of("int a[2];\n"
                    "int main(void) { int *p = a; return !p + !!p; }"),
            1);
}

TEST(InterpEdge, PutcharSequence) {
  RunResult r = run_src(
      "int main(void) { putchar(104); putchar(105); return 0; }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.output, "hi");
}

TEST(InterpEdge, PrintfPercentEscapes) {
  RunResult r = run_src(
      "int main(void) { printf(\"100%%\\n\"); return 0; }");
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_EQ(r.output, "100%\n");
}

TEST(InterpEdge, MemcpyOverlappingForwardIsDeterministic) {
  // Our memcpy copies byte-by-byte forward; a shift-down overlap is
  // well-defined in the simulator.
  EXPECT_EQ(exit_of("char b[8];\n"
                    "int main(void) { for (int i = 0; i < 8; i++) b[i] = "
                    "i; memcpy(b, b + 2, 6); return b[0] * 10 + b[5]; }"),
            27);
}

TEST(InterpEdge, MallocZeroBytesDistinctFromNull) {
  EXPECT_EQ(exit_of("int main(void) { char *p = malloc(0); "
                    "return p != (char*)0; }"),
            1);
}

TEST(InterpEdge, StepLimitCountsConditionEvaluations) {
  RunOptions opts;
  opts.budget.max_steps = 100;
  RunResult r = run_src("int main(void) { for (;;) {} return 0; }", opts);
  EXPECT_FALSE(r.ok());
}

TEST(InterpEdge, WhileConditionSideEffects) {
  EXPECT_EQ(exit_of("int main(void) { int n = 5; int c = 0; "
                    "while (n-- > 0) c++; return c * 10 + (n == -1 ? 1 : "
                    "0); }"),
            51);
}

TEST(InterpEdge, AssignmentExpressionValue) {
  EXPECT_EQ(exit_of("int main(void) { int a; int b; "
                    "return (a = 3) + (b = a * 2); }"),
            9);
}

TEST(InterpEdge, CompoundAssignOnArrayElement) {
  EXPECT_EQ(exit_of("int t[4] = {1, 2, 3, 4};\n"
                    "int main(void) { t[2] *= 5; t[2] -= 1; return t[2]; }"),
            14);
}

// ---------------------------------------------------------------------------
// Engine-pinned edge cases. Each runs on the AST walker and on the
// bytecode VM as its own test case, so a divergence in these corners
// names the engine that broke.

class EngineEdge : public ::testing::TestWithParam<Engine> {
 protected:
  RunResult run_on(std::string_view src, RunOptions opts = {}) {
    auto prog = prepare(src);
    if (!prog) return RunResult{};
    opts.engine = GetParam();
    trace::NullSink sink;
    return run_program(*prog, &sink, opts);
  }

  int exit_on(std::string_view src) {
    RunResult r = run_on(src);
    EXPECT_TRUE(r.ok()) << r.error();
    return r.exit_code;
  }
};

TEST_P(EngineEdge, LogicalAndEvaluatesLeftToRightAndStopsEarly) {
  // f() appends a digit to g; the right operand of && must not run
  // once the left is false, and must run exactly once when it is true.
  EXPECT_EQ(exit_on("int g;\n"
                    "int f(int v) { g = g * 10 + v + 1; return v; }\n"
                    "int main(void) { f(1) && f(0) && f(2); return g; }"),
            21);  // f(1) -> 2, f(0) -> 21, f(2) never runs
}

TEST_P(EngineEdge, LogicalOrSkipsTheRightOperandWhenLeftIsTrue) {
  EXPECT_EQ(exit_on("int g;\n"
                    "int f(int v) { g = g * 10 + v + 1; return v; }\n"
                    "int main(void) { f(0) || f(3); f(1) || f(5); "
                    "return g; }"),
            142);  // f(0)->1, f(3)->14, f(1)->142, f(5) never runs
}

TEST_P(EngineEdge, ShortCircuitResultNormalizesToZeroOrOne) {
  EXPECT_EQ(exit_on("int main(void) { return (7 && 9) * 10 + (0 || -3); }"),
            11);
}

TEST_P(EngineEdge, ShortCircuitSideEffectsInConditionOrder) {
  // Assignments inside the condition must land before the right
  // operand reads them.
  EXPECT_EQ(exit_on("int a;\nint b;\n"
                    "int main(void) { ((a = 4) && (b = a + 1)) || (b = "
                    "99); return b; }"),
            5);
}

TEST_P(EngineEdge, DivisionByZeroFaultsWithDiagnostic) {
  RunResult r = run_on("int main(void) { int z = 0; return 7 / z; }");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("integer division by zero"), std::string::npos)
      << r.error();
}

TEST_P(EngineEdge, ModuloByZeroFaultsWithDiagnostic) {
  RunResult r = run_on("int main(void) { int z = 0; return 7 % z; }");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("modulo by zero"), std::string::npos)
      << r.error();
}

TEST_P(EngineEdge, CompoundDivideByZeroFaultsToo) {
  RunResult r = run_on(
      "int main(void) { int x = 8; int z = 0; x /= z; return x; }");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("integer division by zero"), std::string::npos);
}

TEST_P(EngineEdge, FloatDivisionByZeroIsNotAFault) {
  // Float division follows IEEE semantics (inf), like the reference.
  EXPECT_EQ(exit_on("int main(void) { float z = 0.0f; "
                    "return (1.0f / z > 1000000.0f) ? 4 : 5; }"),
            4);
}

TEST_P(EngineEdge, WorkBeforeTheFaultIsStillObservable) {
  RunResult r = run_on(
      "int main(void) { putchar(111); putchar(107); int z = 0; "
      "return 1 / z; }");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.output, "ok");
}

TEST_P(EngineEdge, NegativeStrideForLoop) {
  EXPECT_EQ(exit_on("int main(void) { int s = 0; "
                    "for (int i = 9; i >= 0; i -= 3) s += i; return s; }"),
            18);  // 9 + 6 + 3 + 0
}

TEST_P(EngineEdge, NegativeStrideOverArrayWritesDescendingAddresses) {
  EXPECT_EQ(exit_on("int a[8];\n"
                    "int main(void) { for (int i = 7; i >= 0; i -= 2) "
                    "a[i] = i; return a[7] * 10 + a[1]; }"),
            71);
}

TEST_P(EngineEdge, NegativeStrideDoWhileCountsDown) {
  EXPECT_EQ(exit_on("int main(void) { int i = 5; int n = 0; "
                    "do { n++; i -= 2; } while (i > 0); return n * 10 + "
                    "i + 5; }"),
            34);  // 3 iterations, i ends at -1
}

TEST_P(EngineEdge, AddressWrapAroundFaultsInsteadOfMapping) {
  // An address near 2^32 must fault as unmapped; with 32-bit range
  // arithmetic (addr + size wrapping to 0) it would pass the stack
  // region check and index ~2 GB past the backing store.
  RunResult r = run_on(
      "char a[4];\n"
      "int main(void) { char *p = a; return *(p + 4026531839); }");
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error().find("unmapped"), std::string::npos) << r.error();
}

TEST_P(EngineEdge, PointerWalkDownward) {
  EXPECT_EQ(exit_on("int a[6];\n"
                    "int main(void) { int *p = a + 5; int n = 0; "
                    "while (p >= a) { *p = n++; p--; } return a[0] * 10 + "
                    "a[5]; }"),
            50);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineEdge,
    ::testing::Values(Engine::Ast, Engine::Bytecode),
    [](const ::testing::TestParamInfo<Engine>& pi) {
      switch (pi.param) {
        case Engine::Ast: return "ast";
        case Engine::Bytecode: return "bytecode";
      }
      return "unknown";
    });

}  // namespace
}  // namespace foray::sim
