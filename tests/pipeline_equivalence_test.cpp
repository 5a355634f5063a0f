// Profiling-mode equivalence: the offline mode (materialize the trace,
// then replay it into the extractor, --offline) and emitter chunks of 1
// record and of 513 (an odd size) must reproduce the fused online pass
// bit for bit, simulator results included. The offline replay is the
// oracle the fused pass is held to. The harness and program set are
// shared with shard_equivalence_test.cpp (tests/transport_harness.h).
#include "transport_harness.h"

namespace foray::core::transport {
namespace {

void check_modes(const std::string& src, const std::string& name) {
  check_against_fused(src, name,
                      [&](const PipelineOptions& base, const Outcome& want,
                          const std::string& what) {
                        PipelineOptions offline = base;
                        offline.offline = true;
                        expect_same(profile(src, offline), want,
                                    what + "offline replay");
                        for (size_t chunk : {size_t{1}, size_t{513}}) {
                          PipelineOptions chunked = base;
                          chunked.run.chunk_records = chunk;
                          expect_same(
                              profile(src, chunked), want,
                              what + "chunk_records=" + std::to_string(chunk));
                        }
                      });
}

class KernelModes : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelModes, MatchFusedOnline) {
  const auto& b = benchsuite::get_benchmark(GetParam());
  check_modes(b.source, b.name);
}

INSTANTIATE_TEST_SUITE_P(All, KernelModes, ::testing::ValuesIn(kKernels),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

TEST(GeneratedModes, AffineProgramsMatchFusedOnline) {
  for_each_affine_program(check_modes);
}

TEST(GeneratedModes, StressProgramsMatchFusedOnline) {
  for_each_stress_program(check_modes);
}

}  // namespace
}  // namespace foray::core::transport
