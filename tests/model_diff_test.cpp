#include <gtest/gtest.h>

#include "benchsuite/suite.h"
#include "foray/model_diff.h"
#include "foray/pipeline.h"
#include "oracle.h"

namespace foray::core {
namespace {

ModelReference make_ref(uint32_t instr, std::vector<int> path,
                        std::vector<int64_t> coefs,
                        std::vector<int64_t> trips) {
  ModelReference r;
  r.instr = instr;
  r.loop_path = std::move(path);
  r.fn.coefs = std::move(coefs);
  r.fn.known.assign(r.fn.coefs.size(), true);
  r.fn.m = static_cast<int>(r.fn.coefs.size());
  r.trips = std::move(trips);
  return r;
}

TEST(ModelDiff, IdenticalModelsFullyStable) {
  ForayModel a;
  a.refs.push_back(make_ref(0x100, {0, 1}, {64, 4}, {8, 16}));
  a.refs.push_back(make_ref(0x104, {0}, {4}, {100}));
  ModelDiff d = diff_models(a, a);
  EXPECT_EQ(d.stable, 2);
  EXPECT_EQ(d.total(), 2);
  EXPECT_DOUBLE_EQ(d.structural_stability(), 1.0);
  EXPECT_DOUBLE_EQ(d.exact_stability(), 1.0);
}

TEST(ModelDiff, TripDriftDetected) {
  ForayModel a, b;
  a.refs.push_back(make_ref(0x100, {0}, {4}, {100}));
  b.refs.push_back(make_ref(0x100, {0}, {4}, {120}));
  ModelDiff d = diff_models(a, b);
  EXPECT_EQ(d.trip_drift, 1);
  EXPECT_EQ(d.stable, 0);
  EXPECT_DOUBLE_EQ(d.structural_stability(), 1.0);
  EXPECT_DOUBLE_EQ(d.exact_stability(), 0.0);
}

TEST(ModelDiff, CoefMismatchDetected) {
  ForayModel a, b;
  a.refs.push_back(make_ref(0x100, {0}, {4}, {100}));
  b.refs.push_back(make_ref(0x100, {0}, {8}, {100}));
  ModelDiff d = diff_models(a, b);
  EXPECT_EQ(d.coef_mismatch, 1);
  EXPECT_DOUBLE_EQ(d.structural_stability(), 0.0);
}

TEST(ModelDiff, PartialDepthChangeIsCoefMismatch) {
  ForayModel a, b;
  auto ra = make_ref(0x100, {0, 1}, {64, 4}, {8, 16});
  auto rb = ra;
  rb.fn.m = 1;  // degraded to partial in run B
  a.refs.push_back(ra);
  b.refs.push_back(rb);
  ModelDiff d = diff_models(a, b);
  EXPECT_EQ(d.coef_mismatch, 1);
}

TEST(ModelDiff, OneSidedReferencesCounted) {
  ForayModel a, b;
  a.refs.push_back(make_ref(0x100, {0}, {4}, {100}));
  a.refs.push_back(make_ref(0x104, {0}, {4}, {100}));
  b.refs.push_back(make_ref(0x100, {0}, {4}, {100}));
  b.refs.push_back(make_ref(0x108, {0}, {4}, {100}));
  ModelDiff d = diff_models(a, b);
  EXPECT_EQ(d.stable, 1);
  EXPECT_EQ(d.only_a, 1);
  EXPECT_EQ(d.only_b, 1);
  EXPECT_EQ(d.total(), 3);
}

TEST(ModelDiff, SameInstrDifferentContextNotMatched) {
  ForayModel a, b;
  a.refs.push_back(make_ref(0x100, {0, 2}, {64, 4}, {8, 16}));
  b.refs.push_back(make_ref(0x100, {1, 2}, {64, 4}, {8, 16}));
  ModelDiff d = diff_models(a, b);
  EXPECT_EQ(d.only_a, 1);
  EXPECT_EQ(d.only_b, 1);
}

TEST(ModelDiff, SummaryMentionsCounts) {
  ForayModel a, b;
  a.refs.push_back(make_ref(0x100, {0}, {4}, {100}));
  b.refs.push_back(make_ref(0x100, {0}, {4}, {120}));
  std::string s = diff_models(a, b).summary();
  EXPECT_NE(s.find("trip-drift"), std::string::npos);
  EXPECT_NE(s.find("100%"), std::string::npos);
}

// -- the future-work experiment, as a regression test -----------------------

TEST(ModelDiff, BenchmarkAffineStructureIsInputIndependent) {
  // Profile with two different input seeds; affine structure of matched
  // references must agree (coefficient mismatches would undermine the
  // whole methodology).
  for (const char* name : {"fft", "susan", "adpcm"}) {
    const auto& b = benchsuite::get_benchmark(name);
    core::PipelineOptions o1, o2;
    o1.run.rng_seed = 11;
    o2.run.rng_seed = 222;
    auto r1 = oracle::run_pipeline(b.source, o1);
    auto r2 = oracle::run_pipeline(b.source, o2);
    ASSERT_TRUE(r1.ok() && r2.ok()) << name;
    ModelDiff d = diff_models(r1.model, r2.model);
    EXPECT_EQ(d.coef_mismatch, 0) << name << ": " << d.summary();
    EXPECT_GT(d.structural_stability(), 0.9) << name << ": " << d.summary();
  }
}

}  // namespace
}  // namespace foray::core
