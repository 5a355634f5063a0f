#include <gtest/gtest.h>

#include <cmath>

#include "benchsuite/suite.h"
#include "foray/inline_advisor.h"
#include "foray/pipeline.h"
#include "oracle.h"
#include "staticforay/static_analysis.h"

namespace foray::benchsuite {
namespace {

TEST(Suite, HasSixBenchmarksInPaperOrder) {
  const auto& all = all_benchmarks();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].name, "jpeg");
  EXPECT_EQ(all[1].name, "lame");
  EXPECT_EQ(all[2].name, "susan");
  EXPECT_EQ(all[3].name, "fft");
  EXPECT_EQ(all[4].name, "gsm");
  EXPECT_EQ(all[5].name, "adpcm");
}

TEST(Suite, LookupByNameAndUnknownThrows) {
  EXPECT_EQ(get_benchmark("gsm").name, "gsm");
  EXPECT_THROW(get_benchmark("nope"), util::InternalError);
}

// Every benchmark must parse, check, execute cleanly and produce its
// checksum line plus a non-trivial FORAY model.
class BenchmarkRun : public ::testing::TestWithParam<const char*> {};

TEST_P(BenchmarkRun, ExecutesAndExtracts) {
  const Benchmark& b = get_benchmark(GetParam());
  auto res = oracle::run_pipeline(b.source);
  ASSERT_TRUE(res.ok()) << b.name << ": " << res.error();
  EXPECT_EQ(res.run.exit_code, 0);
  EXPECT_NE(res.run.output.find("check"), std::string::npos)
      << "output was: " << res.run.output;
  EXPECT_GT(res.model.refs.size(), 0u) << b.name;
  EXPECT_GT(res.model.total_accesses(), 0u);
}

TEST_P(BenchmarkRun, DeterministicAcrossRuns) {
  const Benchmark& b = get_benchmark(GetParam());
  auto r1 = oracle::run_pipeline(b.source);
  auto r2 = oracle::run_pipeline(b.source);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1.run.output, r2.run.output);
  EXPECT_EQ(r1.model.refs.size(), r2.model.refs.size());
  EXPECT_EQ(r1.trace_records, r2.trace_records);
}

INSTANTIATE_TEST_SUITE_P(All, BenchmarkRun,
                         ::testing::Values("jpeg", "lame", "susan", "fft",
                                           "gsm", "adpcm"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

TEST(SuiteShape, AdpcmHasExactlyTwoLoopsOneForOneWhile) {
  auto res = oracle::run_pipeline(get_benchmark("adpcm").source);
  ASSERT_TRUE(res.ok()) << res.error();
  auto mix = core::compute_loop_mix(res.extractor->tree(), res.loop_sites,
                                    res.program->source_lines);
  EXPECT_EQ(mix.total, 2);
  EXPECT_EQ(mix.for_loops, 1);
  EXPECT_EQ(mix.while_loops, 1);
}

TEST(SuiteShape, AdpcmFullyDynamic) {
  // Paper Table II: 100% of adpcm's FORAY-form references are NOT in
  // FORAY form in the source.
  auto res = oracle::run_pipeline(get_benchmark("adpcm").source);
  ASSERT_TRUE(res.ok()) << res.error();
  auto analysis = staticforay::analyze(*res.program);
  auto cs = staticforay::compute_conversion(res.model, analysis);
  ASSERT_GT(cs.model_refs, 0);
  EXPECT_DOUBLE_EQ(cs.pct_refs_not_foray(), 100.0);
  EXPECT_DOUBLE_EQ(cs.pct_loops_not_foray(), 100.0);
}

TEST(SuiteShape, FftFullyStatic) {
  // Paper Table II: fft is the one benchmark already in FORAY form.
  auto res = oracle::run_pipeline(get_benchmark("fft").source);
  ASSERT_TRUE(res.ok()) << res.error();
  auto analysis = staticforay::analyze(*res.program);
  auto cs = staticforay::compute_conversion(res.model, analysis);
  ASSERT_GT(cs.model_refs, 0);
  EXPECT_DOUBLE_EQ(cs.pct_refs_not_foray(), 0.0);
  EXPECT_DOUBLE_EQ(cs.pct_loops_not_foray(), 0.0);
}

TEST(SuiteShape, FftAllForLoops) {
  auto res = oracle::run_pipeline(get_benchmark("fft").source);
  ASSERT_TRUE(res.ok());
  auto mix = core::compute_loop_mix(res.extractor->tree(), res.loop_sites,
                                    res.program->source_lines);
  EXPECT_EQ(mix.while_loops, 0);
  EXPECT_EQ(mix.do_loops, 0);
  EXPECT_GT(mix.for_loops, 8);
}

TEST(SuiteShape, LameHasDoLoops) {
  auto res = oracle::run_pipeline(get_benchmark("lame").source);
  ASSERT_TRUE(res.ok()) << res.error();
  auto mix = core::compute_loop_mix(res.extractor->tree(), res.loop_sites,
                                    res.program->source_lines);
  EXPECT_GT(mix.do_loops, 0);
  EXPECT_GT(mix.for_loops, mix.while_loops + mix.do_loops);
}

TEST(SuiteShape, JpegLoopMixResemblesPaper) {
  auto res = oracle::run_pipeline(get_benchmark("jpeg").source);
  ASSERT_TRUE(res.ok());
  auto mix = core::compute_loop_mix(res.extractor->tree(), res.loop_sites,
                                    res.program->source_lines);
  // for-dominant with a substantial while share (paper: 65%/34%/1%).
  EXPECT_GT(mix.pct_for(), 50.0);
  EXPECT_GT(mix.pct_while(), 10.0);
}

TEST(SuiteShape, JpegConversionGainIsSubstantial) {
  auto res = oracle::run_pipeline(get_benchmark("jpeg").source);
  ASSERT_TRUE(res.ok()) << res.error();
  auto analysis = staticforay::analyze(*res.program);
  auto cs = staticforay::compute_conversion(res.model, analysis);
  ASSERT_GT(cs.model_refs, 0);
  // Paper: 38% of jpeg's model references are not statically FORAY.
  EXPECT_GT(cs.pct_refs_not_foray(), 15.0);
  EXPECT_LT(cs.pct_refs_not_foray(), 80.0);
  EXPECT_GT(cs.ref_increase_factor(), 1.2);
}

TEST(SuiteShape, JpegProducesInlineHint) {
  // fdct_block runs from the luma and chroma loops.
  auto res = oracle::run_pipeline(get_benchmark("jpeg").source);
  ASSERT_TRUE(res.ok());
  auto hints = core::compute_inline_hints(res.model, res.loop_sites);
  bool found = false;
  for (const auto& h : hints) {
    if (h.func_name == "fdct_block") {
      found = true;
      EXPECT_GE(h.contexts, 2);
      EXPECT_TRUE(h.patterns_differ);
    }
  }
  EXPECT_TRUE(found);
}

TEST(SuiteShape, LamePartialAffineAppears) {
  // The scalefactor-band loop has data-dependent bases.
  auto res = oracle::run_pipeline(get_benchmark("lame").source);
  ASSERT_TRUE(res.ok());
  int partials = 0;
  for (const auto& r : res.model.refs) {
    if (r.partial()) ++partials;
  }
  EXPECT_GT(partials, 0);
}

TEST(SuiteShape, SystemTrafficPresentInJpeg) {
  core::PipelineOptions census;
  census.census = true;  // the buckets count every reference
  auto res = oracle::run_pipeline(get_benchmark("jpeg").source, census);
  ASSERT_TRUE(res.ok());
  auto b = core::compute_behavior(res.extractor->tree(),
                                  core::FilterOptions{});
  EXPECT_GT(b.system.accesses, 0u);
  EXPECT_GT(b.model.accesses, 0u);
  // Few model refs cover a disproportionate share of accesses (the
  // Table III shape): the model's access share far exceeds its ref share.
  const double ref_share =
      static_cast<double>(b.model.refs) / static_cast<double>(b.total.refs);
  const double access_share = static_cast<double>(b.model.accesses) /
                              static_cast<double>(b.total.accesses);
  // Note: our ISS keeps every scalar in simulated memory, so loop-counter
  // traffic lands in "other"; a compiling toolchain (as in the paper)
  // would register-allocate it and widen this gap further.
  EXPECT_LT(ref_share, 0.2);
  EXPECT_GT(access_share, 1.3 * ref_share);
  EXPECT_GT(access_share, 0.1);
}

TEST(SuiteShape, AverageConversionFactorNearTwo) {
  // The headline claim: on average ~2x more analyzable references.
  double product_log = 0.0;
  int counted = 0;
  for (const auto& b : all_benchmarks()) {
    auto res = oracle::run_pipeline(b.source);
    ASSERT_TRUE(res.ok()) << b.name << ": " << res.error();
    auto analysis = staticforay::analyze(*res.program);
    auto cs = staticforay::compute_conversion(res.model, analysis);
    if (cs.model_refs == 0) continue;
    product_log += std::log(cs.ref_increase_factor());
    ++counted;
  }
  ASSERT_GT(counted, 0);
  const double geomean = std::exp(product_log / counted);
  EXPECT_GT(geomean, 1.3);  // substantially more reach than static-only
  EXPECT_LT(geomean, 6.0);
}

}  // namespace
}  // namespace foray::benchsuite
