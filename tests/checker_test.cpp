// The soundness lock for the static checker (staticforay/checker.h).
//
// The checker's contract is directional, and this harness pins both
// directions against the *real* engines over the benchsuite plus 200
// seeded generator programs:
//
//   clean()        =>  both engines run the program fault-free;
//   must_fault()   =>  both engines fault;
//   cost.max_*     >=  the observed dynamic steps / trace records,
//                      whether the run completed or faulted;
//   cost.min_*     <=  the observed counts on fault-free completed runs;
//   cost.exact     =>  max_records equals the observed record count.
//
// Any violation is a test failure — loosening a max bound or tightening
// a min bound in the checker is the fix, never weakening this harness.
// Unit tests below pin the interval domain, trip-count extraction, each
// diagnostic kind's fixture, the shared matcher's loop forms, the
// exact-trip lock against the traced loop tree, the text report
// `foraygen lint` prints, and the sweep driver's lint_first wiring.
#include <gtest/gtest.h>

#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "benchsuite/generator.h"
#include "benchsuite/suite.h"
#include "driver/sweep.h"
#include "foray/extractor.h"
#include "foray/looptree.h"
#include "foray/pipeline.h"
#include "instrument/annotator.h"
#include "minic/parser.h"
#include "sim/interpreter.h"
#include "staticforay/checker.h"
#include "staticforay/cost.h"
#include "staticforay/matcher.h"
#include "staticforay/static_analysis.h"
#include "trace/sink.h"
#include "util/json.h"

namespace foray::staticforay {
namespace {

struct Observed {
  sim::RunResult run;
  uint64_t records = 0;
};

/// Runs `source` on one engine under the default (full-tracing) options
/// the checker's cost model assumes.
Observed observe(const std::string& source, sim::Engine engine) {
  util::DiagList diags;
  auto prog = minic::parse_and_check(source, &diags);
  EXPECT_NE(prog, nullptr) << diags.str();
  Observed o;
  if (!prog) return o;
  instrument::annotate_loops(prog.get());
  trace::VectorSink sink;
  sim::RunOptions ropts;
  ropts.engine = engine;
  o.run = sim::run_program(*prog, &sink, ropts);
  o.records = sink.records().size();
  return o;
}

CheckReport lint(const std::string& source) {
  CheckReport rep;
  const util::Status st = lint_source(source, &rep);
  EXPECT_TRUE(st.ok()) << st.message();
  return rep;
}

/// The core soundness assertion, applied to both engines.
void expect_sound(const std::string& source, const std::string& label) {
  CheckReport rep;
  const util::Status st = lint_source(source, &rep);
  ASSERT_TRUE(st.ok()) << label << ": " << st.message();
  for (sim::Engine engine : {sim::Engine::Ast, sim::Engine::Bytecode}) {
    const std::string what =
        label + (engine == sim::Engine::Ast ? " [ast]" : " [bytecode]");
    const Observed o = observe(source, engine);
    if (rep.clean()) {
      EXPECT_TRUE(o.run.ok())
          << what << ": checker-clean program faulted: " << o.run.error()
          << "\n" << rep.str();
    }
    if (rep.must_fault()) {
      EXPECT_FALSE(o.run.ok())
          << what << ": checker proved a fault but the run completed\n"
          << rep.str();
    }
    EXPECT_GE(rep.cost.max_steps, o.run.steps)
        << what << ": static step bound below the dynamic count\n"
        << rep.str();
    EXPECT_GE(rep.cost.max_records, o.records)
        << what << ": static record bound below the dynamic count\n"
        << rep.str();
    if (o.run.ok()) {
      EXPECT_LE(rep.cost.min_steps, o.run.steps)
          << what << ": static step floor above a completed run\n"
          << rep.str();
      EXPECT_LE(rep.cost.min_records, o.records)
          << what << ": static record floor above a completed run\n"
          << rep.str();
      if (rep.cost.exact) {
        EXPECT_EQ(rep.cost.max_records, o.records)
            << what << ": cost claims exact records but they differ\n"
            << rep.str();
      }
    }
  }
}

bool has_diag(const CheckReport& rep, CheckKind kind, Severity sev) {
  for (const CheckDiag& d : rep.diags) {
    if (d.kind == kind && d.severity == sev) return true;
  }
  return false;
}

// -- interval domain ----------------------------------------------------------

TEST(Intervals, ArithmeticAndWrapping) {
  const Interval a = Interval::range(2, 5);
  const Interval b = Interval::range(-3, 4);
  EXPECT_EQ(iv_add(a, b), Interval::range(-1, 9));
  EXPECT_EQ(iv_sub(a, b), Interval::range(-2, 8));
  EXPECT_EQ(iv_mul(a, b), Interval::range(-15, 20));
  EXPECT_EQ(iv_neg(a), Interval::range(-5, -2));
  // int64 overflow must widen to top, never wrap.
  const Interval big = Interval::range(INT64_MAX - 1, INT64_MAX);
  EXPECT_TRUE(iv_add(big, Interval::singleton(2)).is_top());
  EXPECT_TRUE(iv_mul(big, big).is_top());
}

TEST(Intervals, DivisionModuloAndAbs) {
  EXPECT_EQ(iv_div(Interval::range(10, 20), Interval::singleton(3)),
            Interval::range(3, 6));
  const Interval m = iv_mod(Interval::range(0, 100), Interval::singleton(7));
  EXPECT_TRUE(m.contains(0));
  EXPECT_TRUE(m.contains(6));
  EXPECT_FALSE(m.contains(7));
  EXPECT_EQ(iv_abs(Interval::range(-4, 3)), Interval::range(0, 4));
}

TEST(Intervals, JoinWidenMeetTruncate) {
  const Interval a = Interval::range(0, 4);
  const Interval b = Interval::range(2, 9);
  EXPECT_EQ(iv_join(a, b), Interval::range(0, 9));
  // Widening jumps grown ends to the int64 extremes.
  const Interval w = iv_widen(a, iv_join(a, b));
  EXPECT_EQ(w.lo, 0);
  EXPECT_EQ(w.hi, INT64_MAX);
  Interval meet;
  ASSERT_TRUE(iv_meet(a, b, &meet));
  EXPECT_EQ(meet, Interval::range(2, 4));
  EXPECT_FALSE(iv_meet(Interval::range(0, 1), Interval::range(5, 9), &meet));
  // Truncation to a narrower type clamps to the type range only when the
  // value may overflow it.
  EXPECT_EQ(iv_truncate(Interval::range(0, 100), 1), Interval::range(0, 100));
  EXPECT_EQ(iv_truncate(Interval::range(0, 300), 1),
            Interval::range(-128, 127));
}

TEST(Intervals, SaturatingCostArithmetic) {
  EXPECT_EQ(sat_add(kUnbounded, 1), kUnbounded);
  EXPECT_EQ(sat_add(kUnbounded - 1, 5), kUnbounded);
  EXPECT_EQ(sat_mul(kUnbounded, 0), 0u);
  EXPECT_EQ(sat_mul(1u << 20, kUnbounded), kUnbounded);
  EXPECT_EQ(cost_bound_str(kUnbounded), "unbounded");
  EXPECT_EQ(cost_bound_str(42), "42");
}

// -- diagnostics --------------------------------------------------------------

TEST(CheckerDiags, ProvableDivByZeroIsMustFault) {
  const CheckReport rep = lint(
      "int main(void) { int z = 0; return 10 / z; }\n");
  EXPECT_TRUE(rep.must_fault());
  EXPECT_TRUE(has_diag(rep, CheckKind::DivByZero, Severity::MustFault));
}

TEST(CheckerDiags, MaybeZeroDivisorIsOnlyAWarning) {
  const CheckReport rep = lint(
      "int main(void) {\n"
      "  int z = rand() & 3;\n"
      "  return 10 / z;\n"
      "}\n");
  EXPECT_FALSE(rep.must_fault());
  EXPECT_TRUE(has_diag(rep, CheckKind::DivByZero, Severity::Warning));
}

TEST(CheckerDiags, FailingAssertIsMustFault) {
  const CheckReport rep = lint(
      "int main(void) { int x = 3; assert(x > 5); return 0; }\n");
  EXPECT_TRUE(rep.must_fault());
  EXPECT_TRUE(has_diag(rep, CheckKind::AssertFail, Severity::MustFault));
}

TEST(CheckerDiags, ProvableOutOfBoundsSubscript) {
  // A provably-outside subscript can still land in a *neighboring*
  // mapped object at runtime (the simulator faults on unmapped
  // addresses, not on declared extents), so this is a warning, not a
  // must-fault — soundness over severity.
  const CheckReport rep = lint(
      "int a[8];\n"
      "int main(void) { int i = 9; return a[i]; }\n");
  EXPECT_FALSE(rep.must_fault());
  EXPECT_TRUE(has_diag(rep, CheckKind::OutOfBounds, Severity::Warning));
}

TEST(CheckerDiags, InBoundsSubscriptAfterNarrowingIsClean) {
  const CheckReport rep = lint(
      "int a[8];\n"
      "int main(void) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 8; i++) s = s + a[i];\n"
      "  return s;\n"
      "}\n");
  EXPECT_FALSE(has_diag(rep, CheckKind::OutOfBounds, Severity::Warning));
  EXPECT_TRUE(rep.clean()) << rep.str();
}

TEST(CheckerDiags, UseBeforeInitIsAWarning) {
  // `int x; return x;` reads an uninitialized slot; the engines bind the
  // slot (zero-filled frame) and do not fault, so this must stay a
  // warning.
  const CheckReport rep = lint(
      "int main(void) { int x; return x; }\n");
  EXPECT_FALSE(rep.must_fault());
  EXPECT_TRUE(has_diag(rep, CheckKind::UseBeforeInit, Severity::Warning));
}

TEST(CheckerDiags, UnreachableStatementAfterReturn) {
  const CheckReport rep = lint(
      "int main(void) {\n"
      "  return 1;\n"
      "  return 2;\n"
      "}\n");
  EXPECT_TRUE(has_diag(rep, CheckKind::Unreachable, Severity::Warning));
}

TEST(CheckerDiags, UnreachableBranchOfConstantCondition) {
  const CheckReport rep = lint(
      "int main(void) {\n"
      "  int x = 1;\n"
      "  if (x) { return 1; } else { return 2; }\n"
      "}\n");
  EXPECT_TRUE(has_diag(rep, CheckKind::Unreachable, Severity::Warning));
}

TEST(CheckerDiags, CanonicalIteratorWriteInBody) {
  const CheckReport rep = lint(
      "int main(void) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 10; i++) { if (s > 3) i = i + 2; s++; }\n"
      "  return s;\n"
      "}\n");
  EXPECT_TRUE(
      has_diag(rep, CheckKind::CanonicalIterWrite, Severity::Warning));
}

TEST(CheckerDiags, FrontendFailureIsAClassifiedStatus) {
  CheckReport rep;
  const util::Status st = lint_source("int main( {", &rep);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
  EXPECT_EQ(st.phase(), "frontend");
}

// -- cost bounds --------------------------------------------------------------

TEST(CheckerCost, StraightLineProgramIsExact) {
  const CheckReport rep = lint(
      "int main(void) { int x = 4; int y = x + 1; return y; }\n");
  ASSERT_TRUE(rep.cost.bounded()) << rep.cost.str();
  EXPECT_TRUE(rep.cost.exact) << rep.cost.str();
  EXPECT_EQ(rep.cost.min_records, rep.cost.max_records);
}

TEST(CheckerCost, ConstantTripLoopIsBoundedAndExact) {
  const std::string src =
      "int a[64];\n"
      "int main(void) {\n"
      "  for (int i = 0; i < 64; i++) a[i] = i;\n"
      "  return 0;\n"
      "}\n";
  const CheckReport rep = lint(src);
  ASSERT_TRUE(rep.cost.bounded()) << rep.cost.str();
  EXPECT_TRUE(rep.cost.exact) << rep.cost.str();
  // The exact claim is verified against the real engines too.
  expect_sound(src, "constant-trip loop");
}

TEST(CheckerCost, DataDependentLoopKeepsAnUnboundedMax) {
  const CheckReport rep = lint(
      "int main(void) {\n"
      "  int n = rand();\n"
      "  int s = 0;\n"
      "  while (n > 0) { n = n - 1; s++; }\n"
      "  return s;\n"
      "}\n");
  EXPECT_EQ(rep.cost.max_steps, kUnbounded);
  EXPECT_TRUE(has_diag(rep, CheckKind::UnboundedLoop, Severity::Warning));
}

TEST(CheckerCost, MinBoundCollapsesUnderEarlyBreak) {
  const std::string src =
      "int main(void) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 100; i++) { if (i == 2) break; s++; }\n"
      "  return s;\n"
      "}\n";
  const CheckReport rep = lint(src);
  ASSERT_TRUE(rep.cost.bounded()) << rep.cost.str();
  // The checker cannot know which iteration breaks; the floor must stay
  // below the real (3-iteration) run.
  expect_sound(src, "early-break loop");
}

// -- soundness over the corpora ----------------------------------------------

TEST(CheckerSoundness, Benchsuite) {
  for (const auto& b : benchsuite::all_benchmarks()) {
    expect_sound(b.source, b.name);
  }
}

TEST(CheckerSoundness, AffineGeneratorPrograms) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    benchsuite::GeneratorOptions gopts;
    gopts.seed = seed;
    expect_sound(benchsuite::generate_affine_program(gopts).source,
                 "affine seed " + std::to_string(seed));
  }
}

TEST(CheckerSoundness, StressGeneratorPrograms) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    benchsuite::StressOptions sopts;
    sopts.seed = seed;
    expect_sound(benchsuite::generate_stress_program(sopts),
                 "stress seed " + std::to_string(seed));
  }
}

TEST(CheckerSoundness, MustFaultFixturesFaultForReal) {
  const char* fixtures[] = {
      "int main(void) { int z = 0; return 10 / z; }\n",
      "int main(void) { int x = 0; return x % x; }\n",
      "int main(void) { int x = 3; assert(x > 5); return 0; }\n",
      "int main(void) {\n"
      "  int a = 4;\n"
      "  int b = a - 4;\n"
      "  return 7 % b;\n"
      "}\n",
  };
  for (const char* src : fixtures) {
    const CheckReport rep = lint(src);
    EXPECT_TRUE(rep.must_fault()) << src << "\n" << rep.str();
    expect_sound(src, "must-fault fixture");
  }
}

// -- the shared matcher (staticforay/matcher.h) ------------------------------
// One row per loop form: what match_loop reads, whether the Table II
// baseline counts the loop as canonical, the trips the checker proves
// and whether it flags an iterator write. Every row's program also goes
// through the soundness harness on both engines and through the
// exact-trip lock below.

struct LoopCase {
  const char* name;
  const char* loop;  ///< statements placed in main; the first `for` is read
  bool matched;
  StepForm step;
  bool down;
  minic::BinaryOp rel;
  bool mirrored;
  bool baseline;  ///< staticforay::canonical_loop accepts it
  uint64_t lo, hi;
  bool iter_write;  ///< the checker warns CanonicalIterWrite
};

constexpr minic::BinaryOp kLt = minic::BinaryOp::Lt;
constexpr minic::BinaryOp kGt = minic::BinaryOp::Gt;
constexpr minic::BinaryOp kNe = minic::BinaryOp::Ne;

const LoopCase kLoopCases[] = {
    {"inc", "for (int i = 0; i < 10; i++) a[i] = i;", true, StepForm::IncDec,
     false, kLt, false, true, 10, 10, false},
    {"compound up", "for (int i = 1; i <= 20; i += 3) a[i] = i;", true,
     StepForm::Compound, false, minic::BinaryOp::Le, false, true, 7, 7,
     false},
    {"compound down", "for (int i = 20; i >= 0; i -= 4) a[i] = i;", true,
     StepForm::Compound, true, minic::BinaryOp::Ge, false, true, 6, 6,
     false},
    {"assignment init", "int i; for (i = 0; i < 8; ++i) a[i] = i;", true,
     StepForm::IncDec, false, kLt, false, true, 8, 8, false},
    {"i = i + k", "for (int i = 0; i < 10; i = i + 2) a[i] = i;", true,
     StepForm::Assign, false, kLt, false, false, 5, 5, false},
    {"i = k + i", "for (int i = 0; i < 10; i = 3 + i) a[i] = i;", true,
     StepForm::Assign, false, kLt, false, false, 4, 4, false},
    {"i = i - k", "for (int i = 20; i > 0; i = i - 3) a[i] = i;", true,
     StepForm::Assign, true, kGt, false, false, 7, 7, false},
    {"mirrored", "for (int i = 0; 10 > i; i++) a[i] = i;", true,
     StepForm::IncDec, false, kLt, true, false, 10, 10, false},
    {"mirrored <", "for (int i = 10; 0 < i; i--) a[i] = i;", true,
     StepForm::IncDec, true, kGt, true, false, 10, 10, false},
    {"mirrored <=", "for (int i = 10; 1 <= i; i--) a[i] = i;", true,
     StepForm::IncDec, true, minic::BinaryOp::Ge, true, false, 10, 10,
     false},
    {"mirrored >=", "for (int i = 0; 9 >= i; i++) a[i] = i;", true,
     StepForm::IncDec, false, minic::BinaryOp::Le, true, false, 10, 10,
     false},
    {"mirrored !=", "for (int i = 0; 10 != i; i++) a[i] = i;", true,
     StepForm::IncDec, false, kNe, true, false, 10, 10, false},
    {"!= up", "for (int i = 0; i != 10; i++) a[i] = i;", true,
     StepForm::IncDec, false, kNe, false, true, 10, 10, false},
    {"!= down", "for (int i = 10; i != 0; i--) a[i] = i;", true,
     StepForm::IncDec, true, kNe, false, true, 10, 10, false},
    {"invariant bound", "for (int i = 0; i < n; i++) a[i] = i;", true,
     StepForm::IncDec, false, kLt, false, false, 7, 7, false},
    {"char iterator", "char i; for (i = 0; i < 9; i++) a[i] = i;", true,
     StepForm::IncDec, false, kLt, false, false, 9, 9, false},
    {"body writes", "for (int i = 0; i < 10; i++) { a[i] = i; i = i + 1; }",
     true, StepForm::IncDec, false, kLt, false, false, 0, kUnbounded, true},
    {"address taken", "for (int i = 0; i < 10; i++) touch(&i);", true,
     StepForm::IncDec, false, kLt, false, false, 0, kUnbounded, false},
    {"shadowed", "for (int i = 0; i < 10; i++) { int i = 3; a[i] = i; }",
     true, StepForm::IncDec, false, kLt, false, false, 0, kUnbounded, true},
    {"i = i * k", "for (int i = 1; i < 10; i = i * 2) a[i] = i;", false,
     StepForm::IncDec, false, kLt, false, false, 0, kUnbounded, false},
    {"delta mentions i", "for (int i = 1; i < 10; i += i) a[i] = i;", false,
     StepForm::IncDec, false, kLt, false, false, 0, kUnbounded, false},
    {"step on an element",
     "for (int i = 0; i < 10; a[0]++) { a[1] = i; i++; }", false,
     StepForm::IncDec, false, kLt, false, false, 0, kUnbounded, false},
};

std::string loop_program(const LoopCase& c) {
  return std::string(
             "int a[64];\n"
             "void touch(int *p) { *p = *p + 0; }\n"
             "int main(void) {\n"
             "  int n = 7;\n  ") +
         c.loop + "\n  return a[3] + n;\n}\n";
}

const minic::Stmt* first_for(const minic::Stmt* s) {
  if (s == nullptr) return nullptr;
  if (s->kind == minic::StmtKind::For) return s;
  for (const auto& child : s->stmts) {
    if (const minic::Stmt* f = first_for(child.get())) return f;
  }
  return nullptr;
}

TEST(Matcher, LoopFormsTable) {
  for (const LoopCase& c : kLoopCases) {
    SCOPED_TRACE(c.name);
    const std::string src = loop_program(c);
    util::DiagList diags;
    auto prog = minic::parse_and_check(src, &diags);
    ASSERT_NE(prog, nullptr) << diags.str();
    instrument::annotate_loops(prog.get());
    const minic::Stmt* loop =
        first_for(prog->find_function("main")->body.get());
    ASSERT_NE(loop, nullptr);
    const std::optional<LoopMatch> m = match_loop(*loop);
    ASSERT_EQ(m.has_value(), c.matched);
    if (m) {
      EXPECT_EQ(m->iter(), "i");
      EXPECT_EQ(m->step, c.step);
      EXPECT_EQ(m->down, c.down);
      EXPECT_EQ(m->rel, c.rel);
      EXPECT_EQ(m->mirrored, c.mirrored);
      EXPECT_NE(m->bound, nullptr);
      EXPECT_NE(m->init, nullptr);
      EXPECT_EQ(m->delta == nullptr, c.step == StepForm::IncDec);
    }
    EXPECT_EQ(canonical_loop(*loop).has_value(), c.baseline);
    const CheckReport rep = check_program(*prog);
    ASSERT_EQ(rep.loop_trips.size(), 1u) << rep.str();
    EXPECT_EQ(rep.loop_trips[0].lo, c.lo) << rep.str();
    EXPECT_EQ(rep.loop_trips[0].hi, c.hi) << rep.str();
    EXPECT_EQ(has_diag(rep, CheckKind::CanonicalIterWrite, Severity::Warning),
              c.iter_write)
        << rep.str();
  }
}

TEST(Matcher, ConditionsThatDoNotNormalizeLeaveNoBound) {
  for (const char* cond : {"i == 10", "i < i + 1", "i + 1 < 10", "a[i]"}) {
    SCOPED_TRACE(cond);
    const std::string src = std::string(
                                "int a[64];\n"
                                "int main(void) {\n"
                                "  for (int i = 0; ") +
                            cond + "; i++) { if (i > 9) break; }\n"
                                   "  return 0;\n}\n";
    util::DiagList diags;
    auto prog = minic::parse_and_check(src, &diags);
    ASSERT_NE(prog, nullptr) << diags.str();
    const auto m =
        match_loop(*first_for(prog->find_function("main")->body.get()));
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->bound, nullptr);
    expect_sound(src, cond);
  }
}

TEST(Matcher, AffineFormsReadCoefficientsPerIterator) {
  struct Row {
    const char* index;
    bool affine;
    std::map<std::string, int64_t> coef;
    int64_t constant;
  };
  const Row rows[] = {
      {"2 * i + j - 3", true, {{"i", 2}, {"j", 1}}, -3},
      {"(i + j) * 4", true, {{"i", 4}, {"j", 4}}, 0},
      {"-(i << 2) + 64 / 8", true, {{"i", -4}}, 8},
      {"i - i", true, {{"i", 0}}, 0},
      {"i * j", false, {}, 0},
      {"i / 2", false, {}, 0},
      {"k + 1", false, {}, 0},
      {"i << k", false, {}, 0},
  };
  for (const Row& r : rows) {
    SCOPED_TRACE(r.index);
    const std::string src =
        std::string("int a[4096];\nint main(void) {\n  int k = 1;\n") +
        "  for (int i = 0; i < 4; i++)\n"
        "    for (int j = 0; j < 4; j++) a[(" +
        r.index + ") + 64] = k;\n  return 0;\n}\n";
    util::DiagList diags;
    auto prog = minic::parse_and_check(src, &diags);
    ASSERT_NE(prog, nullptr) << diags.str();
    const minic::Stmt* outer =
        first_for(prog->find_function("main")->body.get());
    const minic::Expr& store = *outer->body->body->expr;  // a[...] = k
    const minic::Expr& sum = *store.a->b;                 // index + 64
    const auto f = affine_form(sum.a.get(), {"i", "j"});
    ASSERT_EQ(f.has_value(), r.affine);
    if (f) {
      EXPECT_EQ(f->coef, r.coef);
      EXPECT_EQ(f->constant, r.constant);
    }
  }
}

TEST(Matcher, FoldConstWrapsAndRefusesFaultingDivision) {
  const auto fold = [](const std::string& e) {
    util::DiagList diags;
    auto prog = minic::parse_and_check(
        "int main(void) { return " + e + "; }\n", &diags);
    EXPECT_NE(prog, nullptr) << diags.str();
    return fold_const(prog->funcs[0]->body->stmts[0]->expr.get());
  };
  EXPECT_EQ(fold("3 * 4 - 10 / 3 + (1 << 4)"), 25);
  EXPECT_EQ(fold("-7 / 2"), -3);
  EXPECT_EQ(fold("1 / 0"), std::nullopt);
  EXPECT_EQ(fold("(-9223372036854775807 - 1) / -1"), std::nullopt);
  EXPECT_EQ(fold("9223372036854775807 + 1"),
            std::numeric_limits<int64_t>::min());
  EXPECT_EQ(fold("7 % 2"), std::nullopt);
}

TEST(CheckerSoundness, LoopFormFixtures) {
  for (const LoopCase& c : kLoopCases) {
    expect_sound(loop_program(c), c.name);
  }
}

// -- the exact-trip lock ------------------------------------------------------
// Where the checker proves a loop's trip count exact (lo == hi == T in
// every context it analysed), the traced loop tree agrees: every node of
// that loop ran T iterations per entry. Trace-free Phase I relies on it.

/// Checks `source`'s exact loops against its traced loop tree; returns
/// how many loop nodes were checked.
int expect_exact_trips_traced(const std::string& source,
                              const std::string& label) {
  core::PipelineResult res = core::run_pipeline(source);
  EXPECT_TRUE(res.ok()) << label << ": " << res.error();
  if (!res.ok()) return 0;
  const CheckReport rep = check_program(*res.program);
  int checked = 0;
  core::for_each_node(*res.extractor->tree().root(),
                      [&](const core::LoopNode& node) {
    const size_t id = static_cast<size_t>(node.loop_id());
    if (node.loop_id() < 0 || id >= rep.loop_trips.size()) return;
    const TripRange& t = rep.loop_trips[id];
    if (t.lo != t.hi) return;
    ++checked;
    EXPECT_EQ(static_cast<uint64_t>(node.max_trip), t.hi)
        << label << ": loop " << id;
    EXPECT_EQ(node.total_iterations, t.hi * node.entries)
        << label << ": loop " << id;
  });
  return checked;
}

TEST(ExactTrips, BenchsuiteLoopsRunTheProvedTripCount) {
  int checked = 0;
  for (const auto& b : benchsuite::all_benchmarks()) {
    checked += expect_exact_trips_traced(b.source, b.name);
  }
  EXPECT_GT(checked, 0);
}

TEST(ExactTrips, GeneratedLoopsRunTheProvedTripCount) {
  int affine = 0, stress = 0;
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    benchsuite::GeneratorOptions gopts;
    gopts.seed = seed;
    affine += expect_exact_trips_traced(
        benchsuite::generate_affine_program(gopts).source,
        "affine seed " + std::to_string(seed));
    benchsuite::StressOptions sopts;
    sopts.seed = seed;
    stress += expect_exact_trips_traced(
        benchsuite::generate_stress_program(sopts),
        "stress seed " + std::to_string(seed));
  }
  EXPECT_GT(affine, 0);
  EXPECT_GT(stress, 0);
}

TEST(ExactTrips, LoopFormFixturesRunTheProvedTripCount) {
  for (const LoopCase& c : kLoopCases) {
    const int checked = expect_exact_trips_traced(loop_program(c), c.name);
    EXPECT_EQ(checked, c.lo == c.hi ? 1 : 0) << c.name;
  }
}

TEST(ExactTrips, GivingUpOnRecursionDropsEveryProof) {
  // The checker analyses f(3) and abandons the recursive call, so the
  // loop's deeper executions (2, 1 and 0 trips) are never analysed: its
  // [3, 3] is no proof, and no loop of the program keeps one.
  const std::string src =
      "int a[64];\n"
      "int f(int n) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < n; i++) s = s + a[i];\n"
      "  if (n > 0) s = s + f(n - 1);\n"
      "  return s;\n"
      "}\n"
      "int main(void) { return f(3); }\n";
  const CheckReport rep = lint(src);
  EXPECT_TRUE(has_diag(rep, CheckKind::Recursion, Severity::Warning));
  EXPECT_TRUE(rep.loop_trips.empty());
  EXPECT_EQ(expect_exact_trips_traced(src, "recursive f"), 0);
}

// -- the text report ----------------------------------------------------------
// `foraygen lint` prints "== <program> ==" and CheckReport::str() per
// program. The goldens are that CLI output, regenerated from the repo
// root with `foraygen lint > tests/golden/benchsuite.lint.txt` and
// `foraygen lint tests/golden/must_fault.mc >
// tests/golden/must_fault.lint.txt`; CI cmp's the CLI against them.

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(FORAY_SOURCE_DIR) + "/tests/golden/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << name;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string lint_text(const driver::SweepJob& job) {
  const CheckReport rep = lint(job.source);
  return "== " + job.name + " ==\n" + rep.str();
}

TEST(CheckReportText, MustFaultFixtureMatchesTheGolden) {
  const driver::SweepJob job{"tests/golden/must_fault.mc",
                             read_golden("must_fault.mc")};
  EXPECT_EQ(lint_text(job), read_golden("must_fault.lint.txt"));
}

TEST(CheckReportText, BenchsuiteMatchesTheGolden) {
  std::string got;
  for (const driver::SweepJob& job : driver::SweepDriver::benchsuite_jobs()) {
    got += lint_text(job);
  }
  EXPECT_EQ(got, read_golden("benchsuite.lint.txt"));
}

// -- sweep lint_first ---------------------------------------------------------

const char kMustFaultSource[] =
    "int main(void) { int z = 0; return 10 / z; }\n";
const char kCleanSource[] =
    "int a[64];\n"
    "int main(void) {\n"
    "  for (int r = 0; r < 8; r++)\n"
    "    for (int i = 0; i < 64; i++) a[i] = a[i] + r;\n"
    "  return a[0];\n"
    "}\n";

driver::SweepOptions lint_first_opts() {
  driver::SweepOptions sopts;
  sopts.lint_first = true;
  sopts.pipeline.filter.min_exec = 1;
  sopts.pipeline.filter.min_locations = 1;
  return sopts;
}

TEST(SweepLintFirst, OneLintRowReplacesThePointBlock) {
  const driver::SweepDriver sweep(lint_first_opts());
  const std::vector<driver::SweepJob> jobs = {
      {"bad", kMustFaultSource}, {"good", kCleanSource}};
  std::ostringstream out;
  const util::Status st = sweep.run_ndjson(jobs, out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
  EXPECT_EQ(st.phase(), "lint");

  int lint_rows = 0;
  int bad_point_rows = 0;
  int good_point_rows = 0;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) {
    util::JsonValue v;
    std::string err;
    ASSERT_TRUE(util::parse_json(line, &v, &err)) << line << ": " << err;
    const util::JsonValue* kind = v.find("kind");
    ASSERT_NE(kind, nullptr) << line;
    const util::JsonValue* prog = v.find("program");
    if (kind->str == "lint") {
      ++lint_rows;
      ASSERT_NE(prog, nullptr);
      EXPECT_EQ(prog->str, "bad");
      EXPECT_FALSE(v.find("ok")->b);
      EXPECT_EQ(v.find("error_class")->str, "invalid_input");
      EXPECT_EQ(v.find("phase")->str, "lint");
      EXPECT_NE(v.find("error")->str.find("div-by-zero"),
                std::string::npos);
    } else if (kind->str == "point") {
      ASSERT_NE(prog, nullptr);
      if (prog->str == "bad") ++bad_point_rows;
      if (prog->str == "good") ++good_point_rows;
    }
  }
  // The must-fault program collapses to exactly one structured row; the
  // clean program still sweeps its whole grid.
  EXPECT_EQ(lint_rows, 1);
  EXPECT_EQ(bad_point_rows, 0);
  EXPECT_GE(good_point_rows, 1);
}

TEST(SweepLintFirst, CollectorMarksEveryCellOfARefusedJob) {
  const driver::SweepDriver sweep(lint_first_opts());
  const driver::SweepReport report =
      sweep.run({{"bad", kMustFaultSource}, {"good", kCleanSource}});
  ASSERT_EQ(report.programs.size(), 2u);
  const size_t per_job = report.grid.points_per_job();
  for (size_t i = 0; i < per_job; ++i) {
    const driver::SweepItem& item = report.items[i];
    EXPECT_EQ(item.program, "bad");
    EXPECT_FALSE(item.status.ok());
    EXPECT_EQ(item.status.phase(), "lint");
  }
  for (size_t i = 0; i < per_job; ++i) {
    EXPECT_TRUE(report.items[per_job + i].status.ok())
        << report.items[per_job + i].status.message();
  }
  // A lint-refused job never ran Phase I: its result holds only the
  // lint status.
  EXPECT_EQ(report.results[0].status.phase(), "lint");
  EXPECT_FALSE(report.results[0].model_built);
  EXPECT_TRUE(report.results[1].model_built);
}

TEST(SweepLintFirst, CleanProgramsAreByteIdenticalWithAndWithoutLint) {
  const std::vector<driver::SweepJob> jobs = {{"good", kCleanSource}};
  std::ostringstream with_lint;
  std::ostringstream without_lint;
  ASSERT_TRUE(driver::SweepDriver(lint_first_opts())
                  .run_ndjson(jobs, with_lint)
                  .ok());
  driver::SweepOptions plain = lint_first_opts();
  plain.lint_first = false;
  ASSERT_TRUE(driver::SweepDriver(plain).run_ndjson(jobs, without_lint).ok());
  EXPECT_EQ(with_lint.str(), without_lint.str());
}

}  // namespace
}  // namespace foray::staticforay
