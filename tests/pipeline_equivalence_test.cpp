// Pipeline-overlap equivalence: profiling with the simulator as a
// producer thread and the extractor as a consumer thread behind a chunk
// ring (foray/online_pipeline.h) must reproduce the fused online
// extraction bit for bit — loop tree, affine states, emitted model AND
// simulator results — for every benchsuite program, seeded stress
// program, chunk size and engine. This is the contract that makes
// --pipeline purely a performance knob. The synchronous transports are
// checked in shard_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "benchsuite/generator.h"
#include "benchsuite/suite.h"
#include "foray/extractor.h"
#include "foray/online_pipeline.h"
#include "foray/pipeline.h"
#include "sim/interpreter.h"
#include "trace/sink.h"

namespace foray::core {
namespace {

/// Deterministic deep fingerprint of an extraction: tree shape,
/// counters, per-reference traffic and finalized affine functions.
std::string fingerprint(const Extractor& ex) {
  std::ostringstream os;
  os << "records " << ex.records_processed() << " accesses "
     << ex.accesses_processed() << " checkpoints "
     << ex.checkpoints_processed() << "\n";
  for_each_node(*ex.tree().root(), [&](const LoopNode& node) {
    os << "loop " << node.loop_id() << " depth " << node.depth()
       << " entries " << node.entries << " iters " << node.total_iterations
       << " max_trip " << node.max_trip << "\n";
    for (const auto& ref : node.refs()) {
      uint64_t fp_xor = 0, fp_sum = 0;
      ref->footprint().for_each([&](uint32_t a) {
        fp_xor ^= a;
        fp_sum += a;
      });
      os << "  ref " << ref->instr << " exec " << ref->exec_count << " fp "
         << ref->footprint_size() << ":" << fp_xor << ":" << fp_sum
         << (ref->footprint_saturated() ? "*" : "")
         << (ref->has_read ? " r" : "") << (ref->has_write ? " w" : "")
         << " size " << static_cast<int>(ref->access_size) << " kind "
         << static_cast<int>(ref->kind);
      AffineFunction fn = finalize(ref->affine);
      os << " affine[" << (fn.analyzable ? "a" : "x") << " m=" << fn.m
         << " c=" << fn.const_term;
      for (size_t i = 0; i < fn.coefs.size(); ++i) {
        os << " " << fn.coefs[i] << (fn.known[i] ? "" : "?");
      }
      os << " obs=" << ref->affine.observations << "]\n";
    }
  });
  return os.str();
}

void expect_same_run(const sim::RunResult& got, const sim::RunResult& want,
                     const std::string& what) {
  EXPECT_EQ(got.status.ok(), want.status.ok()) << what;
  EXPECT_EQ(got.exit_code, want.exit_code) << what;
  EXPECT_EQ(got.output, want.output) << what;
  EXPECT_EQ(got.steps, want.steps) << what;
  EXPECT_EQ(got.accesses, want.accesses) << what;
}

class PipelineEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(PipelineEquivalence, OverlappedProfilingMatchesFusedOnline) {
  const auto& b = benchsuite::get_benchmark(GetParam());
  PipelineResult res;
  ASSERT_TRUE(frontend_phase(b.source, &res).ok()) << res.error();
  ASSERT_TRUE(instrument_phase(&res).ok());

  for (sim::Engine engine : {sim::Engine::Bytecode, sim::Engine::Ast}) {
    sim::RunOptions ropts;
    ropts.engine = engine;

    Extractor online;
    auto want_run = sim::run_program(*res.program, &online, ropts);
    ASSERT_TRUE(want_run.ok()) << want_run.error();
    const std::string want = fingerprint(online);

    const std::string what =
        std::string(b.name) + ": engine=" +
        (engine == sim::Engine::Ast ? "ast" : "bytecode");
    Extractor ex;
    auto run = run_profile_pipelined(*res.program, ropts, &ex);
    expect_same_run(run, want_run, what);
    EXPECT_EQ(fingerprint(ex), want) << what;
  }
}

TEST_P(PipelineEquivalence, OddChunkSizesSurviveTheRing) {
  // Emitter chunks that do not divide the ring's slot size split chunks
  // across slot boundaries on every roll.
  const auto& b = benchsuite::get_benchmark(GetParam());
  PipelineResult res;
  ASSERT_TRUE(frontend_phase(b.source, &res).ok()) << res.error();
  ASSERT_TRUE(instrument_phase(&res).ok());

  sim::RunOptions ropts;
  ropts.chunk_records = 513;
  Extractor online;
  ASSERT_TRUE(sim::run_program(*res.program, &online, ropts).ok());
  const std::string want = fingerprint(online);

  Extractor ex;
  auto run = run_profile_pipelined(*res.program, ropts, &ex);
  ASSERT_TRUE(run.ok()) << run.error();
  EXPECT_EQ(fingerprint(ex), want) << b.name << ": chunk=513";
}

TEST_P(PipelineEquivalence, PipelinedPipelineModelMatchesSequential) {
  const auto& b = benchsuite::get_benchmark(GetParam());
  auto seq = run_pipeline(b.source);
  ASSERT_TRUE(seq.ok()) << seq.error();

  PipelineOptions opts;
  opts.profile_pipeline = true;
  auto pl = run_pipeline(b.source, opts);
  ASSERT_TRUE(pl.ok()) << b.name << ": " << pl.error();
  EXPECT_EQ(pl.foray_source, seq.foray_source)
      << b.name << ": emitted model differs under the pipeline";
  EXPECT_EQ(pl.foray_paper_style, seq.foray_paper_style)
      << b.name << ": paper-style differs under the pipeline";
  EXPECT_EQ(pl.trace_records, seq.trace_records);
}

TEST(PipelineStress, SeededProgramsMatchFusedOnline) {
  for (uint64_t seed : {5, 17, 59, 83}) {
    benchsuite::StressOptions sopts;
    sopts.seed = seed;
    const std::string src = benchsuite::generate_stress_program(sopts);
    PipelineResult res;
    ASSERT_TRUE(frontend_phase(src, &res).ok()) << "seed " << seed;
    ASSERT_TRUE(instrument_phase(&res).ok());

    sim::RunOptions ropts;
    Extractor online;
    auto want_run = sim::run_program(*res.program, &online, ropts);
    ASSERT_TRUE(want_run.ok()) << "seed " << seed << ": " << want_run.error();
    const std::string want = fingerprint(online);

    Extractor ex;
    auto run = run_profile_pipelined(*res.program, ropts, &ex);
    expect_same_run(run, want_run, "seed " + std::to_string(seed));
    EXPECT_EQ(fingerprint(ex), want) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(All, PipelineEquivalence,
                         ::testing::Values("jpeg", "lame", "susan", "fft",
                                           "gsm", "adpcm"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

}  // namespace
}  // namespace foray::core
