// Shared harness of the transport-equivalence tests
// (delivery_equivalence_test.cpp, pipeline_equivalence_test.cpp). The
// production fused online pass (the extractor is the simulator's sink,
// core::profile_phase) is the reference; every other way of delivering
// the trace to the extractor must reproduce it bit for bit — loop tree,
// affine states, emitted model and simulator results — for the six
// benchsuite kernels and seeded affine and stress programs, on both
// engines. Any divergence (a lost record, a torn affine state) fails.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "benchsuite/generator.h"
#include "benchsuite/suite.h"
#include "foray/extractor.h"
#include "foray/pipeline.h"
#include "sim/interpreter.h"
#include "trace/sink.h"

namespace foray::core::transport {

/// Deterministic deep fingerprint of an extraction: tree shape,
/// counters, per-reference traffic and finalized affine functions.
inline std::string fingerprint(const Extractor& ex) {
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

/// Everything one profiling of a program produces.
struct Outcome {
  sim::RunResult run;
  std::string tree;   ///< fingerprint() of the extractor
  std::string model;  ///< emitted MiniC model + paper-style rendering
};

inline Outcome outcome(const sim::RunResult& run, const Extractor& ex,
                       const PipelineOptions& opts) {
  const ForayModel model = build_model(ex, opts.filter);
  return {run, fingerprint(ex),
          emit_minic(model) + emit_paper_style(model)};
}

/// Profile + Extract through the production phases.
inline Outcome profile(const std::string& src, const PipelineOptions& opts) {
  PipelineResult res;
  EXPECT_TRUE(frontend_phase(src, &res).ok()) << res.error();
  if (!res.ok()) return {};
  instrument_phase(&res);
  profile_phase(opts, &res);
  EXPECT_EQ(res.trace_records, res.extractor->records_processed());
  return outcome(res.run, *res.extractor, opts);
}

/// Runs the frontend and instrument phases into `res`, then the program
/// with every record materialized in `sink` (no elision).
inline sim::RunResult materialize(const std::string& src,
                                  const PipelineOptions& opts,
                                  PipelineResult* res,
                                  trace::VectorSink* sink) {
  EXPECT_TRUE(frontend_phase(src, res).ok()) << res->error();
  if (!res->ok()) return {};
  instrument_phase(res);
  return sim::run_program(*res->program, sink, opts.run);
}

/// Materializes the trace, then replays it one record at a time through
/// the virtual Sink interface.
inline Outcome record_at_a_time(const std::string& src,
                                const PipelineOptions& opts) {
  PipelineResult res;
  trace::VectorSink sink;
  const sim::RunResult run = materialize(src, opts, &res, &sink);
  if (!res.ok()) return {};
  Extractor ex(opts.extractor);
  trace::Sink* s = &ex;
  for (const trace::Record& r : sink.records()) s->on_chunk(&r, 1);
  return outcome(run, ex, opts);
}

/// The offline replay: the chunked twin of record_at_a_time, and the
/// oracle of the fused pass — the two-pass design the paper's online
/// analysis replaces. Materializes the whole trace, replays it into a
/// fresh extractor in one on_chunk() call (a failed run's partial trace
/// is not analyzed), and leaves `PipelineResult` as profile_phase and
/// extract_phase would.
inline PipelineResult replayed(const std::string& src,
                               const PipelineOptions& opts) {
  PipelineResult res;
  trace::VectorSink sink;
  res.run = materialize(src, opts, &res, &sink);
  if (!res.ok()) return res;
  res.trace_records = sink.size();
  res.extractor = std::make_unique<Extractor>(opts.extractor);
  if (!res.run.ok()) {
    res.status = res.run.status;
    return res;
  }
  res.extractor->on_chunk(sink.records().data(), sink.size());
  extract_phase(opts, &res);
  return res;
}

inline void expect_same(const Outcome& got, const Outcome& want,
                        const std::string& what) {
  EXPECT_EQ(got.run.status.ok(), want.run.status.ok()) << what;
  EXPECT_EQ(got.run.exit_code, want.run.exit_code) << what;
  EXPECT_EQ(got.run.output, want.run.output) << what;
  EXPECT_EQ(got.run.steps, want.run.steps) << what;
  EXPECT_EQ(got.run.accesses, want.run.accesses) << what;
  EXPECT_EQ(got.tree, want.tree) << what;
  EXPECT_EQ(got.model, want.model) << what;
}

/// Checks one set of transports, given the base options of an engine,
/// the fused online reference and a label for failure messages.
using TransportChecks =
    std::function<void(const PipelineOptions& base, const Outcome& want,
                       const std::string& what)>;

/// Runs `checks` against the fused online pass, on both engines.
inline void check_against_fused(const std::string& src,
                                const std::string& name,
                                const TransportChecks& checks) {
  for (sim::Engine engine : {sim::Engine::Bytecode, sim::Engine::Ast}) {
    const std::string what =
        name + (engine == sim::Engine::Ast ? " (ast): " : " (bytecode): ");
    PipelineOptions base;
    base.run.engine = engine;
    base.census = true;  // the fingerprint covers every reference
    const Outcome want = profile(src, base);
    ASSERT_TRUE(want.run.ok()) << what << want.run.error();
    checks(base, want, what);
  }
}

/// The programs every transport is checked on: the six benchsuite
/// kernels, affine seeds 1..40 and odd stress seeds 1..83 (42 programs,
/// including 5, 17, 59 and 83).
inline const char* const kKernels[] = {"jpeg", "lame", "susan",
                                       "fft",  "gsm",  "adpcm"};

inline void for_each_affine_program(
    const std::function<void(const std::string&, const std::string&)>& fn) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    benchsuite::GeneratorOptions gopts;
    gopts.seed = seed;
    fn(benchsuite::generate_affine_program(gopts).source,
       "affine seed " + std::to_string(seed));
  }
}

inline void for_each_stress_program(
    const std::function<void(const std::string&, const std::string&)>& fn) {
  for (uint64_t seed = 1; seed <= 83; seed += 2) {
    benchsuite::StressOptions sopts;
    sopts.seed = seed;
    fn(benchsuite::generate_stress_program(sopts),
       "stress seed " + std::to_string(seed));
  }
}

}  // namespace foray::core::transport
