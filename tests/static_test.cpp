#include <gtest/gtest.h>

#include "benchsuite/generator.h"
#include "benchsuite/suite.h"
#include "foray/pipeline.h"
#include "instrument/annotator.h"
#include "minic/parser.h"
#include "oracle.h"
#include "staticforay/checker.h"
#include "staticforay/pointer_conversion.h"
#include "staticforay/static_analysis.h"
#include "util/hash.h"

namespace foray::staticforay {
namespace {

struct Analyzed {
  std::unique_ptr<minic::Program> prog;
  instrument::LoopSiteTable sites;
  Analysis analysis;
};

Analyzed analyze_src(std::string_view src) {
  util::DiagList diags;
  Analyzed out;
  out.prog = minic::parse_and_check(src, &diags);
  EXPECT_NE(out.prog, nullptr) << diags.str();
  if (out.prog) {
    out.sites = instrument::annotate_loops(out.prog.get());
    out.analysis = analyze(*out.prog);
  }
  return out;
}

TEST(Static, CanonicalForRecognized) {
  auto a = analyze_src(
      "int v[64];\n"
      "int main(void) { for (int i = 0; i < 64; i++) v[i] = i; return 0; }");
  EXPECT_TRUE(a.analysis.loop_is_canonical(0));
  EXPECT_EQ(a.analysis.canonical_loops.size(), 1u);
}

TEST(Static, AssignmentStyleInitRecognized) {
  auto a = analyze_src(
      "int v[64];\n"
      "int main(void) { int i; for (i = 0; i < 64; i++) v[i] = i; "
      "return 0; }");
  EXPECT_TRUE(a.analysis.loop_is_canonical(0));
}

TEST(Static, StepByConstantRecognized) {
  auto a = analyze_src(
      "int v[64];\n"
      "int main(void) { for (int i = 0; i < 64; i += 4) v[i] = i; "
      "return 0; }");
  EXPECT_TRUE(a.analysis.loop_is_canonical(0));
}

TEST(Static, DownCountingRecognized) {
  auto a = analyze_src(
      "int v[64];\n"
      "int main(void) { for (int i = 63; i > 0; i--) v[i] = i; return 0; }");
  EXPECT_TRUE(a.analysis.loop_is_canonical(0));
}

TEST(Static, WhileLoopNotCanonical) {
  auto a = analyze_src(
      "int v[64];\n"
      "int main(void) { int i = 0; while (i < 64) { v[i] = i; i++; } "
      "return 0; }");
  EXPECT_FALSE(a.analysis.loop_is_canonical(0));
  EXPECT_EQ(a.analysis.total_loops, 1);
}

TEST(Static, NonConstantBoundNotCanonical) {
  auto a = analyze_src(
      "int v[64]; int n = 64;\n"
      "int main(void) { for (int i = 0; i < n; i++) v[i] = i; return 0; }");
  EXPECT_FALSE(a.analysis.loop_is_canonical(0));
}

TEST(Static, IteratorModifiedInBodyNotCanonical) {
  auto a = analyze_src(
      "int v[64];\n"
      "int main(void) { for (int i = 0; i < 64; i++) { v[i] = i; "
      "if (v[i] > 10) i += 2; } return 0; }");
  EXPECT_FALSE(a.analysis.loop_is_canonical(0));
}

TEST(Static, AddressTakenIteratorNotCanonical) {
  auto a = analyze_src(
      "int v[64];\nvoid touch(int *p) { *p = *p; }\n"
      "int main(void) { for (int i = 0; i < 64; i++) { touch(&i); "
      "v[i] = i; } return 0; }");
  EXPECT_FALSE(a.analysis.loop_is_canonical(0));
}

TEST(Static, AffineSubscriptsRecognized) {
  auto a = analyze_src(
      "int m[4096];\n"
      "int main(void) {\n"
      "  for (int i = 0; i < 8; i++)\n"
      "    for (int j = 0; j < 8; j++)\n"
      "      m[i * 64 + j + 3] = m[64 * i + 2 * j] + m[(i + j) * 4];\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(a.analysis.affine_ref_nodes.size(), 3u);
}

TEST(Static, NonAffineSubscriptRejected) {
  auto a = analyze_src(
      "int m[256]; int t[16];\n"
      "int main(void) {\n"
      "  for (int i = 0; i < 16; i++) m[t[i]] = i;     // table index\n"
      "  for (int i = 0; i < 16; i++) m[i * i] = i;    // quadratic\n"
      "  return 0;\n"
      "}\n");
  // t[i] itself is affine; m[t[i]] and m[i*i] are not.
  EXPECT_EQ(a.analysis.affine_ref_nodes.size(), 1u);
}

TEST(Static, PointerDerefNeverAffine) {
  auto a = analyze_src(
      "int m[256];\n"
      "int main(void) {\n"
      "  int *p = m;\n"
      "  for (int i = 0; i < 256; i++) *p++ = i;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(a.analysis.affine_ref_nodes.empty());
  EXPECT_GT(a.analysis.total_ref_sites, 0);
}

TEST(Static, PointerParameterSubscriptNotAffine) {
  auto a = analyze_src(
      "void fill(int *dst) { for (int i = 0; i < 32; i++) dst[i] = i; }\n"
      "int m[32];\n"
      "int main(void) { fill(m); return 0; }");
  // dst[i] is affine in form but dst's provenance is unknown statically.
  EXPECT_TRUE(a.analysis.affine_ref_nodes.empty());
}

TEST(Static, IteratorOutsideCanonicalScopeNotAffine) {
  auto a = analyze_src(
      "int m[256];\n"
      "int main(void) {\n"
      "  int k = 3;\n"
      "  for (int i = 0; i < 16; i++) m[i + k] = i;  // k is not an iterator\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(a.analysis.affine_ref_nodes.empty());
}

TEST(Static, LocalArrayRecognized) {
  auto a = analyze_src(
      "int main(void) {\n"
      "  int buf[64];\n"
      "  for (int i = 0; i < 64; i++) buf[i] = i;\n"
      "  return buf[5];\n"
      "}\n");
  EXPECT_EQ(a.analysis.affine_ref_nodes.size(), 2u);  // store + final read
}

TEST(Static, OverflowingConstantDivisionIsNotFolded) {
  // INT64_MIN / -1 traps on x86-64; the folder refuses it rather than
  // evaluate it, so the subscript is simply not a constant.
  auto a = analyze_src(
      "int v[8];\n"
      "int main(void) {\n"
      "  int i = 0;\n"
      "  if (i) v[(-9223372036854775807 - 1) / -1] = 1;\n"
      "  return v[1];\n"
      "}\n");
  EXPECT_EQ(a.analysis.affine_ref_nodes.size(), 1u);  // v[1] only
}

// -- conversion stats (Table II join) ----------------------------------------

TEST(Conversion, FullyStaticProgramHasZeroPctNotForay) {
  const char* src =
      "int v[256];\n"
      "int main(void) {\n"
      "  for (int i = 0; i < 256; i++) v[i] = i * 3;\n"
      "  return v[7];\n"
      "}\n";
  core::PipelineOptions po;
  po.filter.min_exec = 1;
  po.filter.min_locations = 1;
  auto res = oracle::run_pipeline(src, po);
  ASSERT_TRUE(res.ok()) << res.error();
  Analysis an = analyze(*res.program);
  ConversionStats cs = compute_conversion(res.model, an);
  ASSERT_GT(cs.model_refs, 0);
  EXPECT_EQ(cs.refs_not_foray, 0);
  EXPECT_EQ(cs.loops_not_foray, 0);
  EXPECT_DOUBLE_EQ(cs.ref_increase_factor(), 1.0);
}

TEST(Conversion, PointerWalkProgramIsFullyDynamic) {
  const char* src =
      "int v[256];\n"
      "int main(void) {\n"
      "  int *p = v;\n"
      "  int n = 256;\n"
      "  while (n-- > 0) *p++ = n;\n"
      "  return v[7];\n"
      "}\n";
  core::PipelineOptions po;
  po.filter.min_exec = 1;
  po.filter.min_locations = 1;
  auto res = oracle::run_pipeline(src, po);
  ASSERT_TRUE(res.ok()) << res.error();
  Analysis an = analyze(*res.program);
  ConversionStats cs = compute_conversion(res.model, an);
  ASSERT_GT(cs.model_refs, 0);
  EXPECT_EQ(cs.refs_not_foray, cs.model_refs);
  EXPECT_DOUBLE_EQ(cs.pct_refs_not_foray(), 100.0);
}

TEST(Conversion, MixedProgramSplitsAndDoublesReach) {
  // One statically-visible nest and one pointer-walk nest of the same
  // size: FORAY-GEN doubles the analyzable references.
  const char* src =
      "int a[256]; int b[256];\n"
      "int main(void) {\n"
      "  for (int i = 0; i < 256; i++) a[i] = i;\n"
      "  int *p = b;\n"
      "  int n = 256;\n"
      "  while (n-- > 0) *p++ = n;\n"
      "  return a[3] + b[4];\n"
      "}\n";
  core::PipelineOptions po;
  auto res = oracle::run_pipeline(src, po);
  ASSERT_TRUE(res.ok()) << res.error();
  Analysis an = analyze(*res.program);
  ConversionStats cs = compute_conversion(res.model, an);
  EXPECT_EQ(cs.model_refs, 2);
  EXPECT_EQ(cs.refs_not_foray, 1);
  EXPECT_DOUBLE_EQ(cs.ref_increase_factor(), 2.0);
  EXPECT_DOUBLE_EQ(cs.pct_refs_not_foray(), 50.0);
}

TEST(Conversion, RefInNonCanonicalLoopNotStatic) {
  // Affine subscript but inside a while loop: the nest disqualifies it.
  const char* src =
      "int v[256];\n"
      "int main(void) {\n"
      "  int i = 0;\n"
      "  while (i < 256) { v[i] = i; i++; }\n"
      "  return v[9];\n"
      "}\n";
  core::PipelineOptions po;
  auto res = oracle::run_pipeline(src, po);
  ASSERT_TRUE(res.ok()) << res.error();
  Analysis an = analyze(*res.program);
  ConversionStats cs = compute_conversion(res.model, an);
  ASSERT_GT(cs.model_refs, 0);
  EXPECT_EQ(cs.refs_not_foray, cs.model_refs);
}

// -- adversarial Table II cases ----------------------------------------------
// Near-miss programs that probe exactly where the FORAY-form classifier
// draws its line. These pin current behavior: the classifier is purely
// syntactic (literal bounds, declared iterators), deliberately NOT
// powered by the interval checker — a sharpening of either must show up
// here as a conscious diff, not an accident.

TEST(Static, ConstantPropagatedLocalBoundNotCanonical) {
  // `n` is provably 64 (the interval checker knows it), but the Table II
  // classifier requires a literal bound, so the loop stays non-FORAY.
  auto a = analyze_src(
      "int v[64];\n"
      "int main(void) {\n"
      "  int n = 64;\n"
      "  for (int i = 0; i < n; i++) v[i] = i;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_FALSE(a.analysis.loop_is_canonical(0));
  EXPECT_EQ(a.analysis.total_loops, 1);
}

TEST(Static, SubscriptAffineOnlyAfterNarrowingNotAffine) {
  // Inside the guarded branch, interval narrowing proves k == i, making
  // v[k] affine in i — but the classifier never narrows, so the ref is
  // not statically affine. The guard subscript v[i] itself is.
  auto a = analyze_src(
      "int v[64];\n"
      "int main(void) {\n"
      "  int k = 0;\n"
      "  for (int i = 0; i < 64; i++) {\n"
      "    k = i;\n"
      "    if (v[i] > 0) v[k] = i;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(a.analysis.affine_ref_nodes.size(), 1u);
  EXPECT_TRUE(a.analysis.loop_is_canonical(0));
}

TEST(Conversion, BenchsuiteNumbersUnchangedByTheChecker) {
  // Table II over the shipped benchsuite, and compare_baselines' plain
  // and pointer-converted counts, pinned exactly: the interval checker
  // (staticforay/checker.h) shares the subsystem but must not perturb
  // the paper-facing conversion statistics.
  struct Row {
    const char* name;
    int model_loops, model_refs, loops_not_foray, refs_not_foray;
    int plain_static, with_conversion;
  };
  const Row want[] = {
      {"jpeg", 25, 38, 12, 26, 12, 13},
      {"lame", 21, 32, 19, 28, 4, 4},
      {"susan", 10, 13, 2, 7, 6, 6},
      {"fft", 18, 66, 0, 0, 66, 66},
      {"gsm", 14, 22, 11, 19, 3, 3},
      {"adpcm", 2, 2, 2, 2, 0, 1},
  };
  for (const Row& row : want) {
    SCOPED_TRACE(row.name);
    const auto& b = benchsuite::get_benchmark(row.name);
    core::PipelineOptions po;
    auto res = oracle::run_pipeline(b.source, po);
    ASSERT_TRUE(res.ok()) << res.error();
    Analysis an = analyze(*res.program);
    ConversionStats cs = compute_conversion(res.model, an);
    EXPECT_EQ(cs.model_loops, row.model_loops);
    EXPECT_EQ(cs.model_refs, row.model_refs);
    EXPECT_EQ(cs.loops_not_foray, row.loops_not_foray);
    EXPECT_EQ(cs.refs_not_foray, row.refs_not_foray);
    const BaselineComparison cmp = compare_baselines(
        res.model, an, analyze_pointer_conversion(*res.program));
    EXPECT_EQ(cmp.plain_static, row.plain_static);
    EXPECT_EQ(cmp.with_conversion, row.with_conversion);
  }
}

std::string joined(const std::set<int>& ids) {
  std::string out;
  for (int id : ids) out += std::to_string(id) + ",";
  return out;
}

TEST(StaticCorpus, VerdictsOnTheGeneratedCorporaArePinned) {
  // What all three static passes say about every generated program,
  // affine and stress, for seeds 1-300, hashed into one fnv1a: the Table
  // II baseline's canonical loops and affine subscripts, the pointer
  // conversion's convertible references and the checker's full report.
  uint64_t h = util::kFnv1aOffset;
  const auto fold = [&h](const std::string& source) {
    util::DiagList diags;
    auto prog = minic::parse_and_check(source, &diags);
    ASSERT_NE(prog, nullptr) << diags.str();
    instrument::annotate_loops(prog.get());
    const Analysis an = analyze(*prog);
    h = util::fnv1a(joined(an.canonical_loops) + "|" +
                        joined(an.affine_ref_nodes) + "|" +
                        joined(analyze_pointer_conversion(*prog)
                                   .convertible_ref_nodes) +
                        "|" + check_program(*prog).str(),
                    h);
  };
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    benchsuite::GeneratorOptions g;
    g.seed = seed;
    fold(benchsuite::generate_affine_program(g).source);
    benchsuite::StressOptions s;
    s.seed = seed;
    fold(benchsuite::generate_stress_program(s));
  }
  EXPECT_EQ(util::hex64(h), "473c34c7806b46cf");
}

}  // namespace
}  // namespace foray::staticforay
