#include <gtest/gtest.h>

#include "instrument/annotator.h"
#include "minic/parser.h"
#include "oracle.h"
#include "sim/interpreter.h"
#include "trace/sink.h"

namespace foray::sim {
namespace {

using trace::AccessKind;
using trace::CheckpointType;
using trace::Record;
using trace::RecordType;

using RunCapture = oracle::Run;

/// Runs `src` on the VM and on the tree-walking oracle, expects the same
/// status, exit code, output and trace, and returns the VM's run.
RunCapture run_src(std::string_view src, const RunOptions& opts = {}) {
  util::DiagList diags;
  auto prog = minic::parse_and_check(src, &diags);
  EXPECT_NE(prog, nullptr) << diags.str();
  if (!prog) return {};
  instrument::annotate_loops(prog.get());
  return oracle::run_both(*prog, opts);
}

int exit_of(std::string_view src) {
  RunCapture r = run_src(src);
  EXPECT_TRUE(r.result.ok()) << r.result.error();
  return r.result.exit_code;
}

TEST(Interp, ReturnsExitCode) {
  EXPECT_EQ(exit_of("int main(void) { return 42; }"), 42);
}

TEST(Interp, IntegerArithmetic) {
  EXPECT_EQ(exit_of("int main(void) { return 2 + 3 * 4 - 6 / 2; }"), 11);
  EXPECT_EQ(exit_of("int main(void) { return 17 % 5; }"), 2);
  EXPECT_EQ(exit_of("int main(void) { return (1 << 6) >> 2; }"), 16);
  EXPECT_EQ(exit_of("int main(void) { return (12 & 10) | (1 ^ 3); }"), 10);
}

TEST(Interp, ComparisonAndLogical) {
  EXPECT_EQ(exit_of("int main(void) { return (3 < 4) + (4 <= 4) + (5 > 4) "
                    "+ (4 >= 5) + (2 == 2) + (2 != 2); }"),
            4);
  EXPECT_EQ(exit_of("int main(void) { return (1 && 2) + (0 || 3) + !5; }"),
            2);
}

TEST(Interp, ShortCircuitSkipsSideEffects) {
  EXPECT_EQ(exit_of(
                "int g = 0;\n"
                "int bump(void) { g = g + 1; return 1; }\n"
                "int main(void) { 0 && bump(); 1 || bump(); return g; }"),
            0);
}

TEST(Interp, FloatArithmetic) {
  EXPECT_EQ(exit_of("int main(void) { float f = 1.5f; f = f * 4.0f; "
                    "return (int)f; }"),
            6);
  EXPECT_EQ(exit_of("int main(void) { float f = 7.0f; return (int)(f / "
                    "2.0f * 2.0f); }"),
            7);
}

TEST(Interp, CharTruncation) {
  EXPECT_EQ(exit_of("int main(void) { char c = 300; return c; }"), 44);
  EXPECT_EQ(exit_of("int main(void) { char c = -1; return c; }"), -1);
}

TEST(Interp, TernaryEvaluatesOneSide) {
  EXPECT_EQ(exit_of(
                "int g = 0;\n"
                "int bump(void) { g = g + 10; return g; }\n"
                "int main(void) { int x = 1 ? 5 : bump(); return x + g; }"),
            5);
}

TEST(Interp, WhileLoopSum) {
  EXPECT_EQ(exit_of("int main(void) { int s = 0; int i = 0; "
                    "while (i < 10) { s += i; i++; } return s; }"),
            45);
}

TEST(Interp, DoWhileRunsAtLeastOnce) {
  EXPECT_EQ(exit_of("int main(void) { int n = 0; do { n++; } while (0); "
                    "return n; }"),
            1);
}

TEST(Interp, ForLoopNested) {
  EXPECT_EQ(exit_of("int main(void) { int s = 0; "
                    "for (int i = 0; i < 4; i++) "
                    "for (int j = 0; j < 3; j++) s++; return s; }"),
            12);
}

TEST(Interp, BreakAndContinue) {
  EXPECT_EQ(exit_of("int main(void) { int s = 0; "
                    "for (int i = 0; i < 100; i++) { "
                    "if (i % 2) continue; if (i >= 10) break; s += i; } "
                    "return s; }"),
            20);  // 0+2+4+6+8
}

TEST(Interp, GlobalArrayReadWrite) {
  EXPECT_EQ(exit_of("int a[8];\n"
                    "int main(void) { for (int i = 0; i < 8; i++) a[i] = "
                    "i * i; return a[7]; }"),
            49);
}

TEST(Interp, LocalArrayStableAcrossIterations) {
  EXPECT_EQ(exit_of("int main(void) { int s = 0; "
                    "for (int i = 0; i < 3; i++) { int buf[4]; "
                    "buf[0] = i; s += buf[0]; } return s; }"),
            3);
}

TEST(Interp, PointerWalk) {
  EXPECT_EQ(exit_of("char q[16];\n"
                    "int main(void) { char *p = q; "
                    "for (int i = 0; i < 16; i++) *p++ = i; "
                    "return q[5] + q[10]; }"),
            15);
}

TEST(Interp, PointerArithmeticScalesByElement) {
  EXPECT_EQ(exit_of("int a[4];\n"
                    "int main(void) { int *p = a; a[2] = 7; "
                    "return *(p + 2); }"),
            7);
  EXPECT_EQ(exit_of("int a[4];\n"
                    "int main(void) { int *p = a + 3; int *q = a; "
                    "return p - q; }"),
            3);
}

TEST(Interp, AddressOfScalar) {
  EXPECT_EQ(exit_of("int main(void) { int x = 3; int *p = &x; *p = 9; "
                    "return x; }"),
            9);
}

TEST(Interp, PreAndPostIncrement) {
  EXPECT_EQ(exit_of("int main(void) { int i = 5; int a = i++; int b = ++i; "
                    "return a * 100 + b * 10 + i; }"),
            577);
}

TEST(Interp, PointerPostIncrementStride) {
  EXPECT_EQ(exit_of("int a[4];\n"
                    "int main(void) { int *p = a; *p++ = 1; *p++ = 2; "
                    "return a[0] * 10 + a[1]; }"),
            12);
}

TEST(Interp, FunctionCallAndRecursion) {
  EXPECT_EQ(exit_of("int fib(int n) { if (n < 2) return n; "
                    "return fib(n - 1) + fib(n - 2); }\n"
                    "int main(void) { return fib(10); }"),
            55);
}

TEST(Interp, PassingPointersToFunctions) {
  EXPECT_EQ(exit_of("void fill(int *dst, int n, int v) { "
                    "for (int i = 0; i < n; i++) dst[i] = v; }\n"
                    "int a[6];\n"
                    "int main(void) { fill(a, 6, 7); return a[5]; }"),
            7);
}

TEST(Interp, GlobalInitializerList) {
  EXPECT_EQ(exit_of("int t[4] = {10, 20, 30, 40};\n"
                    "int main(void) { return t[0] + t[3]; }"),
            50);
}

TEST(Interp, StringLiteralAndPuts) {
  RunCapture r = run_src("int main(void) { puts(\"hello\"); return 0; }");
  ASSERT_TRUE(r.result.ok()) << r.result.error();
  EXPECT_EQ(r.result.output, "hello\n");
}

TEST(Interp, PrintfFormats) {
  RunCapture r = run_src(
      "int main(void) { printf(\"%d %x %c %s %.1f\\n\", 42, 255, 65, "
      "\"ok\", 1.5f); return 0; }");
  ASSERT_TRUE(r.result.ok()) << r.result.error();
  EXPECT_EQ(r.result.output, "42 ff A ok 1.5\n");
}

TEST(Interp, MallocAndUse) {
  EXPECT_EQ(exit_of("int main(void) { int *p = (int*)malloc(16); "
                    "p[0] = 3; p[3] = 4; return p[0] + p[3]; }"),
            7);
}

TEST(Interp, MemsetMemcpy) {
  EXPECT_EQ(exit_of("char a[8]; char b[8];\n"
                    "int main(void) { memset(a, 7, 8); memcpy(b, a, 8); "
                    "return b[0] + b[7]; }"),
            14);
}

TEST(Interp, RandDeterministicUnderSeed) {
  const char* src =
      "int main(void) { srand(5); int a = rand(); srand(5); "
      "int b = rand(); return a == b; }";
  EXPECT_EQ(exit_of(src), 1);
}

TEST(Interp, MathIntrinsics) {
  EXPECT_EQ(exit_of("int main(void) { return (int)sqrtf(49.0f); }"), 7);
  EXPECT_EQ(exit_of("int main(void) { return (int)(cosf(0.0f) * 10.0f); }"),
            10);
  EXPECT_EQ(exit_of("int main(void) { return abs(-5) + (int)fabsf(-2.5f); }"),
            7);
  EXPECT_EQ(exit_of("int main(void) { return (int)powf(2.0f, 10.0f); }"),
            1024);
}

TEST(Interp, ExitIntrinsicStopsProgram) {
  RunCapture r = run_src("int main(void) { exit(3); return 9; }");
  ASSERT_TRUE(r.result.ok());
  EXPECT_EQ(r.result.exit_code, 3);
}

TEST(Interp, AssertFailureReported) {
  RunCapture r = run_src("int main(void) { assert(1 == 2); return 0; }");
  EXPECT_FALSE(r.result.ok());
  EXPECT_NE(r.result.error().find("assertion failed"), std::string::npos);
}

TEST(Interp, DivisionByZeroReported) {
  RunCapture r = run_src("int main(void) { int z = 0; return 5 / z; }");
  EXPECT_FALSE(r.result.ok());
  EXPECT_NE(r.result.error().find("division by zero"), std::string::npos);
}

TEST(Interp, OutOfBoundsReported) {
  RunCapture r = run_src("int a[2];\nint main(void) { int *p = a; "
                  "return p[100000]; }");
  EXPECT_FALSE(r.result.ok());
  EXPECT_NE(r.result.error().find("unmapped"), std::string::npos);
}

TEST(Interp, StepLimitGuards) {
  RunOptions opts;
  opts.budget.max_steps = 1000;
  RunCapture r = run_src("int main(void) { while (1) {} return 0; }", opts);
  EXPECT_FALSE(r.result.ok());
  EXPECT_NE(r.result.error().find("step limit"), std::string::npos);
  EXPECT_EQ(r.result.status.code(), util::ErrorCode::kResourceExhausted);
}

// -- trace emission ----------------------------------------------------------

TEST(InterpTrace, CheckpointNestingWellFormed) {
  RunCapture r = run_src(
      "int main(void) {\n"
      "  for (int i = 0; i < 2; i++)\n"
      "    for (int j = 0; j < 3; j++) { int x = 0; }\n"
      "  return 0;\n"
      "}\n");
  ASSERT_TRUE(r.result.ok());
  int depth = 0;
  int enters = 0, bodies = 0;
  for (const auto& rec : r.records) {
    if (rec.type() != RecordType::Checkpoint) continue;
    switch (rec.cp()) {
      case CheckpointType::LoopEnter:
        ++depth;
        ++enters;
        break;
      case CheckpointType::LoopExit:
        --depth;
        EXPECT_GE(depth, 0);
        break;
      case CheckpointType::BodyBegin:
        ++bodies;
        break;
      case CheckpointType::BodyEnd:
        break;
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(enters, 1 + 2);       // outer once, inner re-entered twice
  EXPECT_EQ(bodies, 2 + 2 * 3);   // outer 2 + inner 6
}

TEST(InterpTrace, PaperFigure4TraceShape) {
  // The worked example from Figure 4: while loop runs twice, inner for
  // three times per entry; the store goes through *ptr++.
  RunCapture r = run_src(
      "char q[10000];\n"
      "int main(void) {\n"
      "  char *ptr = q;\n"
      "  int i; int t1 = 98;\n"
      "  while (t1 < 100) {\n"
      "    t1++;\n"
      "    ptr += 100;\n"
      "    for (i = 40; i > 37; i--) {\n"
      "      *ptr++ = i * i % 256;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  ASSERT_TRUE(r.result.ok()) << r.result.error();
  // Collect the Data-kind writes: must be 6 (2 outer x 3 inner), with
  // addresses forming two runs of 3 consecutive bytes 103 apart.
  std::vector<uint32_t> writes;
  for (const auto& rec : r.records) {
    if (rec.type() == RecordType::Access && rec.is_write() &&
        rec.kind() == AccessKind::Data) {
      writes.push_back(rec.addr());
    }
  }
  ASSERT_EQ(writes.size(), 6u);
  EXPECT_EQ(writes[1], writes[0] + 1);
  EXPECT_EQ(writes[2], writes[0] + 2);
  EXPECT_EQ(writes[3], writes[0] + 103);
  EXPECT_EQ(writes[4], writes[0] + 104);
  EXPECT_EQ(writes[5], writes[0] + 105);
}

TEST(InterpTrace, CallRetRecordsBalance) {
  RunCapture r = run_src(
      "int foo(int x) { return x + 1; }\n"
      "int main(void) { int s = 0; for (int i = 0; i < 3; i++) "
      "s += foo(i); return s; }");
  ASSERT_TRUE(r.result.ok());
  int calls = 0, rets = 0;
  for (const auto& rec : r.records) {
    if (rec.type() == RecordType::Call) ++calls;
    if (rec.type() == RecordType::Ret) ++rets;
  }
  EXPECT_EQ(calls, rets);
  EXPECT_EQ(calls, 1 + 3);  // main + 3 foo calls
}

TEST(InterpTrace, SystemKindForIntrinsics) {
  RunCapture r = run_src("char a[64]; char b[64];\n"
                  "int main(void) { memcpy(b, a, 64); return 0; }");
  ASSERT_TRUE(r.result.ok());
  int system_accesses = 0;
  for (const auto& rec : r.records) {
    if (rec.type() == RecordType::Access &&
        rec.kind() == AccessKind::System) {
      ++system_accesses;
    }
  }
  EXPECT_EQ(system_accesses, 32);  // 16 reads + 16 writes (4B granules)
}

TEST(InterpTrace, ScalarKindForDirectVariables) {
  RunCapture r = run_src("int main(void) { int x = 1; x = x + 1; return x; }");
  ASSERT_TRUE(r.result.ok());
  bool saw_scalar = false;
  for (const auto& rec : r.records) {
    if (rec.type() == RecordType::Access &&
        rec.kind() == AccessKind::Scalar) {
      saw_scalar = true;
    }
  }
  EXPECT_TRUE(saw_scalar);
}

TEST(InterpTrace, ReplayViewKeepsCheckpointsAndDataOnly) {
  // One outer loop instance and three inner ones: the view holds their
  // LoopEnter/LoopExit records and the 12 Data reads of `a`, nothing else.
  const char* src =
      "int a[4];\nint f(int v) { return v + 1; }\n"
      "int main(void) { int x = 0; "
      "for (int j = 0; j < 3; j++) "
      "for (int i = 0; i < 4; i++) x += f(a[i]); "
      "printf(\"%d\\n\", x); return x; }";
  RunOptions opts;
  opts.replay_view = true;
  RunCapture view = run_src(src, opts);
  ASSERT_TRUE(view.result.ok());
  size_t data = 0;
  size_t enters = 0;
  size_t exits = 0;
  for (const auto& rec : view.records) {
    if (rec.type() == RecordType::Access) {
      EXPECT_EQ(rec.kind(), AccessKind::Data);
      ++data;
    } else if (rec.type() == RecordType::Checkpoint) {
      if (rec.cp() == CheckpointType::LoopEnter) {
        ++enters;
      } else if (rec.cp() == CheckpointType::LoopExit) {
        ++exits;
      } else {
        ADD_FAILURE() << "body checkpoint in the replay view";
      }
    } else {
      ADD_FAILURE() << "call/ret record in the replay view";
    }
  }
  EXPECT_EQ(data, 12u);
  EXPECT_EQ(enters, 4u);
  EXPECT_EQ(exits, 4u);
  EXPECT_EQ(view.records.size(), 2 * 4u + data);
  // The dropped accesses still count.
  EXPECT_GT(view.result.accesses, data);

  // The view is the full trace with everything else filtered out.
  opts.replay_view = false;
  const RunCapture full = run_src(src, opts);
  ASSERT_TRUE(full.result.ok());
  EXPECT_EQ(full.result.accesses, view.result.accesses);
  std::vector<Record> kept;
  for (const auto& rec : full.records) {
    const bool bound =
        rec.type() == RecordType::Checkpoint &&
        (rec.cp() == CheckpointType::LoopEnter ||
         rec.cp() == CheckpointType::LoopExit);
    const bool data_access = rec.type() == RecordType::Access &&
                             rec.kind() == AccessKind::Data;
    if (bound || data_access) kept.push_back(rec);
  }
  EXPECT_TRUE(kept == view.records);
}

TEST(InterpTrace, BreakEmitsLoopExit) {
  RunCapture r = run_src(
      "int main(void) { for (int i = 0; i < 100; i++) { if (i == 1) "
      "break; } return 0; }");
  ASSERT_TRUE(r.result.ok());
  int exits = 0;
  for (const auto& rec : r.records) {
    if (rec.type() == RecordType::Checkpoint &&
        rec.cp() == CheckpointType::LoopExit) {
      ++exits;
    }
  }
  EXPECT_EQ(exits, 1);
}

TEST(InterpTrace, ReturnInsideNestedLoopsUnwindsAllExits) {
  RunCapture r = run_src(
      "int f(void) { for (int i = 0; i < 10; i++) "
      "for (int j = 0; j < 10; j++) if (j == 1) return 7; return 0; }\n"
      "int main(void) { return f(); }");
  ASSERT_TRUE(r.result.ok());
  EXPECT_EQ(r.result.exit_code, 7);
  int depth = 0;
  for (const auto& rec : r.records) {
    if (rec.type() != RecordType::Checkpoint) continue;
    if (rec.cp() == CheckpointType::LoopEnter) ++depth;
    if (rec.cp() == CheckpointType::LoopExit) --depth;
  }
  EXPECT_EQ(depth, 0);
}

TEST(InterpTrace, InstrAddressesStablePerSite) {
  RunCapture r = run_src("int a[8];\n"
                  "int main(void) { for (int i = 0; i < 8; i++) a[i] = i; "
                  "return 0; }");
  ASSERT_TRUE(r.result.ok());
  // All writes to a[i] come from the same instruction address.
  uint32_t instr = 0;
  int count = 0;
  for (const auto& rec : r.records) {
    if (rec.type() == RecordType::Access && rec.is_write() &&
        rec.kind() == AccessKind::Data) {
      if (count == 0) instr = rec.instr();
      EXPECT_EQ(rec.instr(), instr);
      ++count;
    }
  }
  EXPECT_EQ(count, 8);
}

TEST(InterpTrace, DataDependentOffsetAddressing) {
  // Figure 7 second case: globally-defined array with data-dependent
  // offset parameter.
  RunCapture r = run_src(
      "int A[200]; int lines[4] = {0, 50, 100, 150};\n"
      "int foo(int offset) { int ret = 0; "
      "for (int i = 0; i < 10; i++) ret += A[i + offset]; return ret; }\n"
      "int main(void) { int t = 0; for (int x = 0; x < 4; x++) "
      "t += foo(lines[x]); return t; }");
  ASSERT_TRUE(r.result.ok()) << r.result.error();
}

TEST(Interp, OutputLimitGuards) {
  // 4,097 prints of a 4 KiB literal: one print past Memory::kMaxOutputBytes.
  const std::string literal(4096, 'x');
  static_assert(Memory::kMaxOutputBytes / 4096 == 4096);
  RunCapture r = run_src("int main(void) { for (int i = 0; i < 4097; i++) "
                         "printf(\"" + literal + "\"); return 0; }");
  EXPECT_FALSE(r.result.ok());
  EXPECT_EQ(r.result.status.code(), util::ErrorCode::kResourceExhausted);
  EXPECT_NE(r.result.error().find("output limit"), std::string::npos);
  // One print fewer fits exactly.
  RunCapture fits = run_src("int main(void) { for (int i = 0; i < 4096; i++) "
                            "printf(\"" + literal + "\"); return 0; }");
  ASSERT_TRUE(fits.result.ok()) << fits.result.error();
  EXPECT_EQ(fits.result.output.size(), Memory::kMaxOutputBytes);
}

}  // namespace
}  // namespace foray::sim
