// Delivery equivalence: feeding the extractor one record at a time
// through the virtual trace::Sink, and building its loop tree with
// linear (non-hash) child/reference indices, must reproduce the fused
// online pass bit for bit. The harness and program set are shared with
// pipeline_equivalence_test.cpp (tests/transport_harness.h).
#include "transport_harness.h"

namespace foray::core::transport {
namespace {

void check_delivery(const std::string& src, const std::string& name) {
  check_against_fused(src, name,
                      [&](const PipelineOptions& base, const Outcome& want,
                          const std::string& what) {
                        expect_same(record_at_a_time(src, base), want,
                                    what + "record-at-a-time");
                        PipelineOptions linear = base;
                        linear.extractor.hash_index = false;
                        expect_same(profile(src, linear), want,
                                    what + "linear index");
                      });
}

class KernelDelivery : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelDelivery, MatchesFusedOnline) {
  const auto& b = benchsuite::get_benchmark(GetParam());
  check_delivery(b.source, b.name);
}

INSTANTIATE_TEST_SUITE_P(All, KernelDelivery, ::testing::ValuesIn(kKernels),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

TEST(GeneratedDelivery, AffineProgramsMatchFusedOnline) {
  for_each_affine_program(check_delivery);
}

TEST(GeneratedDelivery, StressProgramsMatchFusedOnline) {
  for_each_stress_program(check_delivery);
}

}  // namespace
}  // namespace foray::core::transport
