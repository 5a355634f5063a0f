// The paper's own code listings, as regression tests: Figure 1's two
// MiBench excerpts must extract to the Figure 2 FORAY-model shapes.
#include <gtest/gtest.h>

#include "foray/pipeline.h"
#include "oracle.h"
#include "staticforay/pointer_conversion.h"
#include "staticforay/static_analysis.h"

namespace foray {
namespace {

core::PipelineOptions lenient() {
  core::PipelineOptions o;
  o.filter.min_exec = 1;
  o.filter.min_locations = 1;
  return o;
}

TEST(PaperFigures, Figure1FirstExcerptMatchesFigure2Shape) {
  // for (ci...) for (coefi < DCTSIZE2) *last_bitpos_ptr++ = -1;
  // Figure 2: for(i528<3) for(i531<64) A[... + 4*i531 + 256*i528]
  const char* src =
      "int num_components = 3;\n"
      "int last_bitpos[256];\n"
      "int main(void) {\n"
      "  int ci; int coefi;\n"
      "  int *last_bitpos_ptr = last_bitpos;\n"
      "  for (ci = 0; ci < num_components; ci++)\n"
      "    for (coefi = 0; coefi < 64; coefi++)\n"
      "      *last_bitpos_ptr++ = -1;\n"
      "  return 0;\n"
      "}\n";
  auto res = oracle::run_pipeline(src, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  const core::ModelReference* store = nullptr;
  for (const auto& r : res.model.refs) {
    if (r.has_write && r.n() == 2) store = &r;
  }
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->trips, (std::vector<int64_t>{3, 64}));
  // The paper's coefficients: 4 bytes per coefi step, 256 per ci step.
  EXPECT_EQ(store->fn.coefs, (std::vector<int64_t>{256, 4}));
  EXPECT_FALSE(store->partial());
  EXPECT_EQ(store->exec_count, 192u);
}

TEST(PaperFigures, Figure1SecondExcerptMatchesFigure2Shape) {
  // while (currow < numrows) for (i = rowsperchunk; i > 0; i--)
  //   result[currow++] = workspace;
  // Figure 2 shows the single-entry flattening: A[... + 4*i1635].
  const char* src =
      "int result[64];\n"
      "int main(void) {\n"
      "  int currow = 0;\n"
      "  int numrows = 16;\n"
      "  int rowsperchunk = 16;\n"
      "  int workspace = 7;\n"
      "  while (currow < numrows) {\n"
      "    for (int i = rowsperchunk; i > 0; i--) {\n"
      "      result[currow++] = workspace;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  auto res = oracle::run_pipeline(src, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  const core::ModelReference* store = nullptr;
  for (const auto& r : res.model.refs) {
    if (r.has_write && r.n() == 2) store = &r;
  }
  ASSERT_NE(store, nullptr);
  // One outer entry (trip 1), 16 inner iterations at stride 4 — the
  // paper's "for (i1632<1) for (i1635<16) A[...+4*i1635]" shape.
  EXPECT_EQ(store->trips, (std::vector<int64_t>{1, 16}));
  ASSERT_EQ(store->fn.n(), 2);
  EXPECT_EQ(store->fn.coefs[1], 4);
  EXPECT_EQ(store->exec_count, 16u);
}

TEST(PaperFigures, Figure1NeitherExcerptIsStaticallyAnalyzable) {
  // Constant component count here so the ci loop is canonical — that is
  // what lets the Franke-style pass convert the first excerpt while the
  // while-loop excerpt stays out of reach.
  const char* src =
      "int last_bitpos[256];\n"
      "int result[64];\n"
      "int main(void) {\n"
      "  int *last_bitpos_ptr = last_bitpos;\n"
      "  int ci; int coefi;\n"
      "  for (ci = 0; ci < 3; ci++)\n"
      "    for (coefi = 0; coefi < 64; coefi++)\n"
      "      *last_bitpos_ptr++ = -1;\n"
      "  int currow = 0;\n"
      "  while (currow < 16) {\n"
      "    for (int i = 16; i > 0; i--) result[currow++] = 3;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  auto res = oracle::run_pipeline(src, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  auto analysis = staticforay::analyze(*res.program);
  auto cs = staticforay::compute_conversion(res.model, analysis);
  // All data references are pointer walks / non-canonical contexts or
  // non-iterator subscripts: nothing is in FORAY form statically.
  int data_refs = 0;
  for (const auto& r : res.model.refs) {
    if (r.has_write) ++data_refs;
  }
  EXPECT_GE(data_refs, 2);
  EXPECT_DOUBLE_EQ(cs.pct_refs_not_foray(), 100.0);
  // But note: the ci/coefi walk sits under canonical fors, so the
  // Franke-style conversion rescues it — while the currow walk stays
  // out of reach even for that (the 2005 state of the art).
  auto conv = staticforay::analyze_pointer_conversion(*res.program);
  auto cmp = staticforay::compare_baselines(res.model, analysis, conv);
  EXPECT_GT(cmp.with_conversion, cmp.plain_static);
  EXPECT_GT(cmp.foray_gen, cmp.with_conversion);
}

TEST(PaperFigures, Figure4ConstantsMatchPaperArithmetic) {
  // The paper's trace shows consecutive inner addresses and a 103-byte
  // outer stride: 100 (ptr += 100) + 3 (inner ptr++ x3).
  const char* src =
      "char q[10000];\n"
      "int main(void) {\n"
      "  char *ptr = q;\n"
      "  int i; int t1 = 98;\n"
      "  while (t1 < 100) {\n"
      "    t1++;\n"
      "    ptr += 100;\n"
      "    for (i = 40; i > 37; i--) *ptr++ = i * i % 256;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  auto res = oracle::run_pipeline(src, lenient());
  ASSERT_TRUE(res.ok());
  for (const auto& r : res.model.refs) {
    if (!r.has_write || r.n() != 2) continue;
    EXPECT_EQ(r.fn.coefs[0], 100 + 3);
    EXPECT_EQ(r.fn.coefs[1], 1);
    // Normalized iteration counts: the down-counting i=40..38 loop
    // still yields iterators 0,1,2 — the paper's key normalization.
    EXPECT_EQ(r.trips[1], 3);
  }
}

TEST(PaperFigures, DownCountingLoopNormalizedIterators) {
  // A down-counting subscripted loop: iterator normalization means the
  // recovered coefficient is negative while the loop counts 0..N-1.
  const char* src =
      "int a[64];\n"
      "int main(void) {\n"
      "  for (int i = 63; i >= 0; i--) a[i] = i;\n"
      "  return 0;\n"
      "}\n";
  auto res = oracle::run_pipeline(src, lenient());
  ASSERT_TRUE(res.ok());
  const core::ModelReference* store = nullptr;
  for (const auto& r : res.model.refs) {
    if (r.has_write && r.n() == 1) store = &r;
  }
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->fn.coefs[0], -4);
  EXPECT_EQ(store->trips[0], 64);
}

}  // namespace
}  // namespace foray
