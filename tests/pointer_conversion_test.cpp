#include <gtest/gtest.h>

#include "benchsuite/suite.h"
#include "foray/pipeline.h"
#include "instrument/annotator.h"
#include "minic/parser.h"
#include "oracle.h"
#include "staticforay/pointer_conversion.h"

namespace foray::staticforay {
namespace {

struct Analyzed {
  std::unique_ptr<minic::Program> prog;
  PointerConversion conv;
};

Analyzed analyze_src(std::string_view src) {
  util::DiagList diags;
  Analyzed out;
  out.prog = minic::parse_and_check(src, &diags);
  EXPECT_NE(out.prog, nullptr) << diags.str();
  if (out.prog) {
    instrument::annotate_loops(out.prog.get());
    out.conv = analyze_pointer_conversion(*out.prog);
  }
  return out;
}

TEST(PointerConversion, SimpleWalkInCanonicalForConverts) {
  // The paper's Figure 1 jpeg excerpt: *last_bitpos_ptr++ inside two
  // canonical fors — exactly what Franke-style conversion rescues.
  auto a = analyze_src(
      "int last_bitpos[192];\n"
      "int main(void) {\n"
      "  int *last_bitpos_ptr = last_bitpos;\n"
      "  for (int ci = 0; ci < 3; ci++)\n"
      "    for (int coefi = 0; coefi < 64; coefi++)\n"
      "      *last_bitpos_ptr++ = -1;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(a.conv.convertible_ref_nodes.size(), 1u);
  EXPECT_TRUE(a.conv.convertible_pointers.count("main/last_bitpos_ptr"));
}

TEST(PointerConversion, WalkInWhileLoopDoesNotConvert) {
  // No canonical iterator to convert onto (the FORAY-GEN gap).
  auto a = analyze_src(
      "int v[256];\n"
      "int main(void) {\n"
      "  int *p = v;\n"
      "  int n = 256;\n"
      "  while (n-- > 0) *p++ = n;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(a.conv.convertible_ref_nodes.empty());
}

TEST(PointerConversion, ConstantOffsetBaseAccepted) {
  auto a = analyze_src(
      "int v[256];\n"
      "int main(void) {\n"
      "  int *p = v + 16;\n"
      "  for (int i = 0; i < 64; i++) *p++ = i;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(a.conv.convertible_ref_nodes.size(), 1u);
}

TEST(PointerConversion, AffineSubscriptThroughPointerAccepted) {
  auto a = analyze_src(
      "int v[512];\n"
      "int main(void) {\n"
      "  int *p = v + 64;\n"
      "  int acc = 0;\n"
      "  for (int i = 0; i < 64; i++) acc += p[2 * i + 1] + *(p + i);\n"
      "  return acc;\n"
      "}\n");
  EXPECT_EQ(a.conv.convertible_ref_nodes.size(), 2u);
}

TEST(PointerConversion, ReassignmentFromUnknownDisqualifies) {
  auto a = analyze_src(
      "int v[256];\n"
      "int *get(void) { return v; }\n"
      "int main(void) {\n"
      "  int *p = v;\n"
      "  p = get();\n"
      "  for (int i = 0; i < 64; i++) *p++ = i;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(a.conv.convertible_ref_nodes.empty());
}

TEST(PointerConversion, RebaseByConstantAllowed) {
  auto a = analyze_src(
      "int v[512];\n"
      "int main(void) {\n"
      "  int *p = v;\n"
      "  for (int r = 0; r < 4; r++) {\n"
      "    for (int i = 0; i < 32; i++) *p++ = i;\n"
      "    p = p + 96;\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(a.conv.convertible_ref_nodes.size(), 1u);
}

TEST(PointerConversion, AddressTakenDisqualifies) {
  auto a = analyze_src(
      "int v[64];\nvoid touch(int **pp) { *pp = *pp; }\n"
      "int main(void) {\n"
      "  int *p = v;\n"
      "  touch(&p);\n"
      "  for (int i = 0; i < 64; i++) *p++ = i;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(a.conv.convertible_ref_nodes.empty());
}

TEST(PointerConversion, PassingPointerToFunctionDisqualifies) {
  auto a = analyze_src(
      "int v[64];\n"
      "int peek(int *q) { return q[0]; }\n"
      "int main(void) {\n"
      "  int *p = v;\n"
      "  int x = peek(p);\n"
      "  for (int i = 0; i < 64; i++) *p++ = x;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(a.conv.convertible_ref_nodes.empty());
}

TEST(PointerConversion, AliasingAssignmentDisqualifies) {
  auto a = analyze_src(
      "int v[64];\n"
      "int main(void) {\n"
      "  int *p = v;\n"
      "  int *q;\n"
      "  q = p;\n"
      "  for (int i = 0; i < 64; i++) *p++ = i;\n"
      "  return *q;\n"
      "}\n");
  EXPECT_TRUE(a.conv.convertible_ref_nodes.empty());
}

TEST(PointerConversion, DataDependentStrideDisqualifies) {
  auto a = analyze_src(
      "int v[4096]; int step = 7;\n"
      "int main(void) {\n"
      "  int *p = v;\n"
      "  for (int i = 0; i < 64; i++) { *p = i; p += step; }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(a.conv.convertible_ref_nodes.empty());
}

TEST(PointerConversion, PointerFromMallocNotCandidate) {
  auto a = analyze_src(
      "int main(void) {\n"
      "  int *p = (int*)malloc(256);\n"
      "  for (int i = 0; i < 64; i++) *p++ = i;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(a.conv.convertible_ref_nodes.empty());
}

TEST(PointerConversion, PreIncrementWalkConverts) {
  auto a = analyze_src(
      "int v[256];\n"
      "int main(void) {\n"
      "  int *p = v;\n"
      "  for (int i = 0; i < 64; i++) *++p = i;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(a.conv.convertible_ref_nodes.size(), 1u);
}

TEST(PointerConversion, NonAffineSubscriptThroughPointerDisqualifies) {
  auto a = analyze_src(
      "int v[256]; int t[16];\n"
      "int main(void) {\n"
      "  int *p = v;\n"
      "  for (int i = 0; i < 16; i++) p[t[i]] = i;\n"
      "  for (int i = 0; i < 16; i++) *p++ = i;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_TRUE(a.conv.convertible_ref_nodes.empty());
  EXPECT_TRUE(a.conv.convertible_pointers.empty());
}

TEST(PointerConversion, WalkInALoopTheBaselineRejectsDoesNotConvert) {
  // The loop test is the Table II baseline's: a step written `i = i + 1`
  // or a body that writes the iterator leaves no canonical iterator to
  // convert onto, whatever the init and bound.
  for (const char* loop :
       {"for (int i = 0; i < 64; i = i + 1) *p++ = i;",
        "for (int i = 0; i < 64; i++) { *p++ = i; if (i > 60) i = 64; }",
        "for (int i = 0; 64 > i; i++) *p++ = i;"}) {
    SCOPED_TRACE(loop);
    auto a = analyze_src(std::string("int v[256];\n"
                                     "int main(void) {\n"
                                     "  int *p = v;\n  ") +
                         loop + "\n  return 0;\n}\n");
    EXPECT_TRUE(a.conv.convertible_ref_nodes.empty());
    EXPECT_TRUE(a.conv.convertible_pointers.count("main/p"));
  }
}

// -- baseline comparison ------------------------------------------------------

TEST(BaselineComparison, ThreeTierOrdering) {
  // One nest visible to plain static analysis, one rescued by pointer
  // conversion, one (while-loop walk) only FORAY-GEN recovers.
  const char* src =
      "int a[256]; int b[256]; int c[256];\n"
      "int main(void) {\n"
      "  for (int i = 0; i < 256; i++) a[i] = i;        // plain static\n"
      "  int *p = b;\n"
      "  for (int i = 0; i < 256; i++) *p++ = i;        // Franke\n"
      "  int *q = c;\n"
      "  int n = 256;\n"
      "  while (n-- > 0) *q++ = n;                      // dynamic only\n"
      "  return a[1] + b[2] + c[3];\n"
      "}\n";
  auto res = oracle::run_pipeline(src);
  ASSERT_TRUE(res.ok()) << res.error();
  auto analysis = analyze(*res.program);
  auto conv = analyze_pointer_conversion(*res.program);
  auto cmp = compare_baselines(res.model, analysis, conv);
  EXPECT_EQ(cmp.model_refs, 3);
  EXPECT_EQ(cmp.plain_static, 1);
  EXPECT_EQ(cmp.with_conversion, 2);
  EXPECT_EQ(cmp.foray_gen, 3);
  EXPECT_DOUBLE_EQ(cmp.conversion_gain(), 2.0);
  EXPECT_DOUBLE_EQ(cmp.foray_gain_over_conversion(), 1.5);
}

TEST(BaselineComparison, SuiteOrderingHolds) {
  // On every benchmark: plain <= with_conversion <= foray_gen, and
  // jpeg's Figure 1 pointer walk must be rescued by conversion.
  for (const auto& b : benchsuite::all_benchmarks()) {
    auto res = oracle::run_pipeline(b.source);
    ASSERT_TRUE(res.ok()) << b.name << ": " << res.error();
    auto analysis = analyze(*res.program);
    auto conv = analyze_pointer_conversion(*res.program);
    auto cmp = compare_baselines(res.model, analysis, conv);
    EXPECT_LE(cmp.plain_static, cmp.with_conversion) << b.name;
    EXPECT_LE(cmp.with_conversion, cmp.foray_gen) << b.name;
  }
  auto res = oracle::run_pipeline(benchsuite::get_benchmark("jpeg").source);
  ASSERT_TRUE(res.ok());
  auto analysis = analyze(*res.program);
  auto conv = analyze_pointer_conversion(*res.program);
  auto cmp = compare_baselines(res.model, analysis, conv);
  EXPECT_GT(cmp.with_conversion, cmp.plain_static);
  EXPECT_GT(cmp.foray_gen, cmp.with_conversion);
}

}  // namespace
}  // namespace foray::staticforay
