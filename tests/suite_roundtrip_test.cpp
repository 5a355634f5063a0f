// Suite-wide integration: the emitted FORAY model of every benchmark is
// itself a valid MiniC program whose re-extraction reproduces the same
// affine structures — the strongest end-to-end check of the extract ->
// emit chain on realistic inputs.
#include <gtest/gtest.h>

#include <algorithm>

#include "benchsuite/suite.h"
#include "foray/pipeline.h"
#include "minic/parser.h"
#include "oracle.h"
#include "sim/interpreter.h"
#include "trace/sink.h"

namespace foray::benchsuite {
namespace {

using Shape = std::pair<std::vector<int64_t>, std::vector<int64_t>>;

std::vector<Shape> shapes_of(const core::ForayModel& model) {
  std::vector<Shape> out;
  for (const auto& r : model.refs) {
    out.push_back({r.emitted_coefs(), r.emitted_trips()});
  }
  std::sort(out.begin(), out.end());
  return out;
}

class SuiteRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(SuiteRoundTrip, EmittedModelParsesChecksAndRuns) {
  const Benchmark& b = get_benchmark(GetParam());
  auto res = oracle::run_pipeline(b.source);
  ASSERT_TRUE(res.ok()) << res.error();
  ASSERT_FALSE(res.model.refs.empty());

  util::DiagList diags;
  auto model_prog = minic::parse_and_check(res.foray_source, &diags);
  ASSERT_NE(model_prog, nullptr)
      << b.name << ":\n" << diags.str() << "\n" << res.foray_source;
}

TEST_P(SuiteRoundTrip, ReextractionPreservesAffineShapes) {
  const Benchmark& b = get_benchmark(GetParam());
  auto res = oracle::run_pipeline(b.source);
  ASSERT_TRUE(res.ok()) << res.error();

  core::PipelineOptions lenient;
  lenient.filter.min_exec = 1;
  lenient.filter.min_locations = 1;
  auto res2 = oracle::run_pipeline(res.foray_source, lenient);
  ASSERT_TRUE(res2.ok()) << b.name << ": " << res2.error();

  // Every shape of the first model must appear in the re-extraction.
  auto first = shapes_of(res.model);
  auto second = shapes_of(res2.model);
  for (const auto& s : first) {
    EXPECT_TRUE(std::binary_search(second.begin(), second.end(), s))
        << b.name << ": lost a (coefs, trips) shape in round trip";
  }
}

TEST_P(SuiteRoundTrip, ModelAccessVolumeMatchesEmittedProgram) {
  const Benchmark& b = get_benchmark(GetParam());
  auto res = oracle::run_pipeline(b.source);
  ASSERT_TRUE(res.ok()) << res.error();

  // The emitted program performs exactly one Data access per reference
  // per (emitted) iteration: its total must equal the product sum.
  uint64_t expected = 0;
  for (const auto& r : res.model.refs) {
    uint64_t n = 1;
    for (int64_t t : r.emitted_trips()) n *= static_cast<uint64_t>(t);
    expected += n;
  }
  util::DiagList diags;
  auto prog = minic::parse_and_check(res.foray_source, &diags);
  ASSERT_NE(prog, nullptr) << diags.str();
  instrument::annotate_loops(prog.get());
  const oracle::Run both = oracle::run_both(*prog);
  const sim::RunResult& run = both.result;
  ASSERT_TRUE(run.ok()) << run.error();
  uint64_t data = 0;
  for (const auto& r : both.records) {
    if (r.type() == trace::RecordType::Access &&
        r.kind() == trace::AccessKind::Data) {
      ++data;
    }
  }
  EXPECT_EQ(data, expected) << b.name;
}

INSTANTIATE_TEST_SUITE_P(All, SuiteRoundTrip,
                         ::testing::Values("jpeg", "lame", "susan", "fft",
                                           "gsm", "adpcm"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

}  // namespace
}  // namespace foray::benchsuite
