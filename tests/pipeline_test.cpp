#include <gtest/gtest.h>

#include <algorithm>

#include "foray/inline_advisor.h"
#include "foray/pipeline.h"
#include "minic/parser.h"
#include "oracle.h"

namespace foray::core {
namespace {

PipelineOptions lenient() {
  PipelineOptions o;
  o.filter.min_exec = 1;
  o.filter.min_locations = 1;
  return o;
}

const char* kFigure4 =
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
    "}\n";

TEST(Pipeline, RejectsBadSource) {
  auto res = oracle::run_pipeline("int main(void) { return x; }");
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.error().find("undeclared"), std::string::npos);
}

TEST(Pipeline, ReportsSimulatorFaults) {
  auto res =
      oracle::run_pipeline("int main(void) { int z = 0; return 1 / z; }");
  EXPECT_FALSE(res.ok());
  EXPECT_NE(res.error().find("division by zero"), std::string::npos);
}

TEST(Pipeline, Figure4ModelRecovered) {
  auto res = oracle::run_pipeline(kFigure4, lenient());
  ASSERT_TRUE(res.ok()) << res.error();

  // The model must contain exactly one Data reference: the *ptr++ store,
  // with the paper's affine function base + 1*i_inner + 103*i_outer.
  std::vector<const ModelReference*> data_refs;
  for (const auto& r : res.model.refs) {
    if (r.has_write && r.n() == 2) data_refs.push_back(&r);
  }
  ASSERT_EQ(data_refs.size(), 1u);
  const ModelReference& ref = *data_refs[0];
  EXPECT_EQ(ref.exec_count, 6u);
  EXPECT_EQ(ref.footprint, 6u);
  ASSERT_EQ(ref.fn.n(), 2);
  EXPECT_EQ(ref.fn.coefs[0], 103);  // outer while
  EXPECT_EQ(ref.fn.coefs[1], 1);    // inner for
  EXPECT_FALSE(ref.partial());
  EXPECT_EQ(ref.trips[0], 2);
  EXPECT_EQ(ref.trips[1], 3);
}

TEST(Pipeline, Figure4PaperStyleEmission) {
  auto res = oracle::run_pipeline(kFigure4, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  // Figure 4(d) shape: for (int i..<2) for (int i..<3) A...[base+1*i..+103*i..]
  EXPECT_NE(res.foray_paper_style.find("<2;"), std::string::npos)
      << res.foray_paper_style;
  EXPECT_NE(res.foray_paper_style.find("<3;"), std::string::npos);
  EXPECT_NE(res.foray_paper_style.find("+103*"), std::string::npos);
  EXPECT_NE(res.foray_paper_style.find("+1*"), std::string::npos);
}

TEST(Pipeline, DefaultFilterDropsSmallReferences) {
  // With the paper's Nexec=20 / Nloc=10, Figure 4's 6-execution store is
  // filtered out.
  auto res = oracle::run_pipeline(kFigure4);
  ASSERT_TRUE(res.ok()) << res.error();
  EXPECT_TRUE(res.model.refs.empty());
  EXPECT_GT(res.build_stats.total_refs, 0);
}

TEST(Pipeline, EmittedModelIsValidMinic) {
  auto res = oracle::run_pipeline(kFigure4, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  util::DiagList diags;
  auto reparsed = minic::parse_and_check(res.foray_source, &diags);
  EXPECT_NE(reparsed, nullptr)
      << diags.str() << "\nsource was:\n" << res.foray_source;
}

TEST(Pipeline, RoundTripPreservesAffineStructure) {
  // Extract a model, run the emitted model program itself through the
  // pipeline, and verify the same coefficient multiset comes back.
  auto res = oracle::run_pipeline(kFigure4, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  auto res2 = oracle::run_pipeline(res.foray_source, lenient());
  ASSERT_TRUE(res2.ok()) << res2.error() << "\nmodel source:\n"
                       << res.foray_source;

  auto collect_shapes = [](const ForayModel& m) {
    std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>> out;
    for (const auto& r : m.refs) {
      if (r.has_write) out.push_back({r.emitted_coefs(), r.emitted_trips()});
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  auto a = collect_shapes(res.model);
  auto b = collect_shapes(res2.model);
  EXPECT_EQ(a, b);
}

TEST(Pipeline, PartialAffineFromDataDependentOffset) {
  // Figure 7 second case: offsets come from a data table the analyzer
  // cannot see through; inner accesses remain predictable.
  const char* src =
      "int A[4000]; int lines[4] = {0, 531, 1207, 2611};\n"
      "int foo(int offset) {\n"
      "  int ret = 0;\n"
      "  for (int i = 0; i < 10; i++)\n"
      "    for (int j = 0; j < 10; j++)\n"
      "      ret += A[j + 10 * i + offset];\n"
      "  return ret;\n"
      "}\n"
      "int main(void) {\n"
      "  int t = 0;\n"
      "  for (int x = 0; x < 4; x++) t += foo(lines[x]);\n"
      "  return t & 255;\n"
      "}\n";
  auto res = oracle::run_pipeline(src, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  const ModelReference* target = nullptr;
  for (const auto& r : res.model.refs) {
    if (r.n() == 3 && !r.has_write) target = &r;
  }
  ASSERT_NE(target, nullptr);
  EXPECT_TRUE(target->partial());
  EXPECT_EQ(target->fn.m, 2);  // j and i predictable, x is not
  // Outermost-first coefficients: [x]=garbage-or-0, [i]=40, [j]=4 (bytes).
  EXPECT_EQ(target->fn.coefs[1], 40);
  EXPECT_EQ(target->fn.coefs[2], 4);
  EXPECT_EQ(target->exec_count, 400u);
}

TEST(Pipeline, FullAffineThroughPointerWalk) {
  // A 2-D traversal written entirely with a pointer walk in a while loop
  // — statically opaque, dynamically a clean affine nest.
  const char* src =
      "int img[1024];\n"
      "int main(void) {\n"
      "  int *p = img;\n"
      "  int row = 0;\n"
      "  while (row < 16) {\n"
      "    int col = 64;\n"
      "    while (col > 0) { *p++ = row + col; col--; }\n"
      "    row++;\n"
      "  }\n"
      "  return img[100];\n"
      "}\n";
  auto res = oracle::run_pipeline(src);  // default (paper) filter
  ASSERT_TRUE(res.ok()) << res.error();
  std::vector<const ModelReference*> kept;
  for (const auto& r : res.model.refs) {
    if (r.has_write) kept.push_back(&r);
  }
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_FALSE(kept[0]->partial());
  EXPECT_EQ(kept[0]->fn.coefs[0], 256);  // 64 ints per row
  EXPECT_EQ(kept[0]->fn.coefs[1], 4);
  EXPECT_EQ(kept[0]->exec_count, 1024u);
  EXPECT_EQ(kept[0]->footprint, 1024u);
}

TEST(Pipeline, InlineHintsForMultiContextFunction) {
  // Figure 9: foo() called from two loops with different strides.
  const char* src =
      "int A[1000];\n"
      "int foo(int offset) {\n"
      "  int ret = 0;\n"
      "  for (int i = 0; i < 10; i++) ret += A[i + offset];\n"
      "  return ret;\n"
      "}\n"
      "int main(void) {\n"
      "  int tmp = 0;\n"
      "  for (int x = 0; x < 10; x++) tmp += foo(10 * x);\n"
      "  for (int y = 0; y < 20; y++) tmp += foo(2 * y);\n"
      "  return tmp & 255;\n"
      "}\n";
  auto res = oracle::run_pipeline(src, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  auto hints = compute_inline_hints(res.model, res.loop_sites);
  ASSERT_EQ(hints.size(), 1u);
  EXPECT_EQ(hints[0].func_name, "foo");
  EXPECT_EQ(hints[0].contexts, 2);
  EXPECT_TRUE(hints[0].patterns_differ);
}

TEST(Pipeline, SingleContextFunctionYieldsNoHint) {
  const char* src =
      "int A[100];\n"
      "int foo(void) { int r = 0; for (int i = 0; i < 10; i++) "
      "r += A[i]; return r; }\n"
      "int main(void) { int t = 0; for (int x = 0; x < 5; x++) "
      "t += foo(); return t; }\n";
  auto res = oracle::run_pipeline(src, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  auto hints = compute_inline_hints(res.model, res.loop_sites);
  EXPECT_TRUE(hints.empty());
}

TEST(Pipeline, LoopSitesAndMixReported) {
  auto res = oracle::run_pipeline(kFigure4, lenient());
  ASSERT_TRUE(res.ok());
  LoopMix mix = compute_loop_mix(res.extractor->tree(), res.loop_sites,
                                 res.program->source_lines);
  EXPECT_EQ(mix.total, 2);
  EXPECT_EQ(mix.for_loops, 1);
  EXPECT_EQ(mix.while_loops, 1);
  EXPECT_EQ(mix.do_loops, 0);
  EXPECT_GT(mix.lines, 5);
}

TEST(Pipeline, BehaviorStatsPartitionAccesses) {
  const char* src =
      "int big[512]; char tmp[64];\n"
      "int main(void) {\n"
      "  for (int i = 0; i < 512; i++) big[i] = i;\n"
      "  memset(tmp, 0, 64);\n"
      "  return big[3];\n"
      "}\n";
  PipelineOptions census;
  census.census = true;  // the buckets count every reference
  auto res = oracle::run_pipeline(src, census);
  ASSERT_TRUE(res.ok()) << res.error();
  BehaviorStats b = compute_behavior(res.extractor->tree(),
                                     PipelineOptions{}.filter);
  EXPECT_EQ(b.total.accesses,
            b.model.accesses + b.system.accesses + b.other.accesses);
  EXPECT_EQ(b.total.refs, b.model.refs + b.system.refs + b.other.refs);
  EXPECT_GE(b.model.accesses, 512u);
  EXPECT_EQ(b.system.accesses, 16u);  // 64B memset in 4B granules
  EXPECT_GT(b.other.accesses, 0u);    // scalar loop-counter traffic
  // The model's footprint dominates: 512 distinct int addresses.
  EXPECT_EQ(b.model.footprint, 512u);
  EXPECT_GT(b.model.footprint, b.system.footprint);
}

TEST(Pipeline, UnexecutedLoopsAbsentFromTree) {
  const char* src =
      "int a[64];\n"
      "int main(void) {\n"
      "  if (0) { for (int i = 0; i < 64; i++) a[i] = i; }\n"
      "  for (int j = 0; j < 8; j++) a[j] = j;\n"
      "  return 0;\n"
      "}\n";
  auto res = oracle::run_pipeline(src, lenient());
  ASSERT_TRUE(res.ok());
  auto executed = executed_loop_sites(res.extractor->tree());
  EXPECT_EQ(executed.size(), 1u);
  EXPECT_EQ(res.loop_sites.count(), 2);  // both exist statically
}

}  // namespace
}  // namespace foray::core
