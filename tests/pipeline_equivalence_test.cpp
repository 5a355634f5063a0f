// Profiling-mode equivalence: the offline replay (materialize the trace,
// then replay it into the extractor in one chunk: replayed() in
// tests/transport_harness.h) and emitter chunks of 1 record and of 513
// (an odd size) must reproduce the fused online pass bit for bit,
// simulator results included. The offline replay is the oracle the
// fused pass is held to. The harness and program set are shared with
// delivery_equivalence_test.cpp.
//
// Those legs run the fused pass with the census. Without it — the
// production default — the engines elide scalar traffic under the
// elision guard, and the model must still match the offline replay:
// FMDL bytes, both renderings and the simulator results, at Nloc 10 and
// 2, over the same programs plus the kept-scalar programs in
// tests/programs/, where the guard has to fall back to full tracing.
// The eliding pass drops BodyEnd checkpoints too, so the extractor
// reaches the next BodyBegin without the epoch bump: the loop-edge
// programs below put the same Data access on both sides of that gap and
// leave loops by break, continue and return, and a replay of a trace
// that omits LoopExit records drives the extractor's pop loops with and
// without BodyEnd.
#include <fstream>

#include "foray/model_io.h"
#include "transport_harness.h"

namespace foray::core::transport {
namespace {

void check_modes(const std::string& src, const std::string& name) {
  check_against_fused(src, name,
                      [&](const PipelineOptions& base, const Outcome& want,
                          const std::string& what) {
                        const PipelineResult r = replayed(src, base);
                        expect_same(outcome(r.run, *r.extractor, base), want,
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

/// The production phases up to Extract.
PipelineResult extract(const std::string& src, const PipelineOptions& opts) {
  PipelineResult res;
  EXPECT_TRUE(frontend_phase(src, &res).ok()) << res.error();
  if (!res.ok()) return res;
  instrument_phase(&res);
  if (profile_phase(opts, &res).ok()) extract_phase(opts, &res);
  return res;
}

enum class Elision { kEngages, kFallsBack, kEither };

/// Runs the eliding pass against the offline replay on both engines at
/// Nloc 10 and 2, and checks whether the elision held (fewer records
/// reached the extractor) or fell back (the full trace did).
void check_elision(const std::string& src, const std::string& name,
                   Elision expect) {
  for (sim::Engine engine : {sim::Engine::Bytecode, sim::Engine::Ast}) {
    for (uint64_t nloc : {10u, 2u}) {
      const std::string what =
          name + (engine == sim::Engine::Ast ? " (ast" : " (bytecode") +
          ", Nloc " + std::to_string(nloc) + "): ";
      PipelineOptions eliding;
      eliding.run.engine = engine;
      eliding.filter.min_locations = nloc;
      const PipelineResult want = replayed(src, eliding);
      ASSERT_TRUE(want.ok()) << what << want.error();
      const PipelineResult got = extract(src, eliding);
      ASSERT_TRUE(got.ok()) << what << got.error();
      EXPECT_EQ(model_to_bytes(got.model), model_to_bytes(want.model))
          << what;
      EXPECT_EQ(got.foray_source, want.foray_source) << what;
      EXPECT_EQ(got.foray_paper_style, want.foray_paper_style) << what;
      EXPECT_EQ(got.run.exit_code, want.run.exit_code) << what;
      EXPECT_EQ(got.run.output, want.run.output) << what;
      EXPECT_EQ(got.run.steps, want.run.steps) << what;
      EXPECT_EQ(got.run.accesses, want.run.accesses) << what;
      // At Nloc 2 a function may meet only one frame base, so lame and
      // gsm, which call a helper from two depths, fall back there.
      if (expect == Elision::kEngages && nloc == 10) {
        EXPECT_LT(got.trace_records, want.trace_records) << what;
      }
      if (expect == Elision::kFallsBack) {
        EXPECT_EQ(got.trace_records, want.trace_records) << what;
        // The reason it had to: Step 4 keeps some of their scalars.
        int kept_scalars = 0;
        for_each_node(*want.extractor->tree().root(),
                      [&](const LoopNode& node) {
                        for (const auto& ref : node.refs()) {
                          if (ref->kind == trace::AccessKind::Scalar &&
                              passes_filter(*ref, eliding.filter)) {
                            ++kept_scalars;
                          }
                        }
                      });
        EXPECT_GT(kept_scalars, 0) << what;
      }
    }
  }
}

/// A Data access in a function called from a loop's body, condition and
/// for-step (so the step's first probe(i) repeats the body's address
/// between BodyEnd and BodyBegin), and loops left by break, continue and
/// return.
const char* const kLoopEdges = R"(
int a[64];
int b[64];
int probe(int k) { return a[k & 63]; }
int walk(int n) {
  int j;
  for (j = 0; j < n; j++) {
    if (a[j] > 5) return j;
    a[j] = j;
  }
  return n;
}
int main() {
  int s = 0;
  int i;
  for (i = 0; probe(i) < 1000 && i < 40; i = i + probe(i) - probe(i) + 1) {
    s = s + probe(i);
    b[i] = s;
  }
  for (i = 0; i < 40; i++) {
    if (i % 7 == 3) continue;
    if (i > 33) break;
    b[i] = a[i] + walk(i % 11);
  }
  i = 0;
  while (1) {
    i++;
    if (i > 30) break;
    b[i & 63] = b[(i + 1) & 63] + probe(i);
  }
  do {
    i--;
    if (i % 2 == 0) continue;
    b[i] = i;
  } while (i > 0);
  printf("%d %d\n", s, b[7]);
  return 0;
}
)";

TEST(LoopEdges, ElidedBodyEndMatchesOfflineReplay) {
  check_elision(kLoopEdges, "loop edges", Elision::kEngages);
}

TEST(LoopEdges, ReplayWithoutLoopExitsOrBodyEnds) {
  for (sim::Engine engine : {sim::Engine::Bytecode, sim::Engine::Ast}) {
    PipelineResult res;
    ASSERT_TRUE(frontend_phase(kLoopEdges, &res).ok()) << res.error();
    instrument_phase(&res);
    sim::RunOptions run;
    run.engine = engine;
    trace::VectorSink sink;
    ASSERT_TRUE(sim::run_program(*res.program, &sink, run).ok());
    // Every other LoopExit goes missing, so later BodyBegin and LoopExit
    // records pop past loops that never exited, and some loops enter
    // under the wrong parent; the second replay also loses BodyEnd.
    std::vector<trace::Record> exits_omitted, body_ends_too;
    bool drop = false;
    for (const trace::Record& r : sink.records()) {
      const bool checkpoint = r.type() == trace::RecordType::Checkpoint;
      if (checkpoint && r.cp() == trace::CheckpointType::LoopExit) {
        drop = !drop;
        if (drop) continue;
      }
      exits_omitted.push_back(r);
      if (!checkpoint || r.cp() != trace::CheckpointType::BodyEnd) {
        body_ends_too.push_back(r);
      }
    }
    ASSERT_LT(body_ends_too.size(), exits_omitted.size());
    Extractor with_body_ends, without;
    with_body_ends.on_chunk(exits_omitted.data(), exits_omitted.size());
    without.on_chunk(body_ends_too.data(), body_ends_too.size());
    for (uint64_t nloc : {10u, 2u}) {
      const std::string what =
          std::string(engine == sim::Engine::Ast ? "ast" : "bytecode") +
          ", Nloc " + std::to_string(nloc);
      FilterOptions filter;
      filter.min_locations = nloc;
      const ForayModel want = build_model(with_body_ends, filter);
      const ForayModel got = build_model(without, filter);
      EXPECT_FALSE(want.refs.empty()) << what;
      EXPECT_EQ(model_to_bytes(got), model_to_bytes(want)) << what;
      EXPECT_EQ(emit_minic(got), emit_minic(want)) << what;
      EXPECT_EQ(emit_paper_style(got), emit_paper_style(want)) << what;
    }
  }
}

std::string read_program(const std::string& file) {
  std::ifstream in(std::string(FORAY_SOURCE_DIR) + "/tests/programs/" + file);
  EXPECT_TRUE(in.good()) << file;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
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


class KernelElision : public ::testing::TestWithParam<const char*> {};

TEST_P(KernelElision, MatchesOfflineReplay) {
  const auto& b = benchsuite::get_benchmark(GetParam());
  check_elision(b.source, b.name, Elision::kEngages);
}

TEST_P(KernelElision, DeliversTheTraceLessElidedRecords) {
  // The eliding pass hands the extractor the full trace less exactly
  // the Scalar accesses, Call/Ret records and BodyEnd checkpoints.
  const auto& b = benchsuite::get_benchmark(GetParam());
  const PipelineResult got = extract(b.source, PipelineOptions{});
  ASSERT_TRUE(got.ok()) << got.error();
  trace::VectorSink full;
  ASSERT_TRUE(sim::run_program(*got.program, &full, sim::RunOptions{}).ok());
  uint64_t elided = 0;
  for (const trace::Record& r : full.records()) {
    switch (r.type()) {
      case trace::RecordType::Access:
        elided += r.kind() == trace::AccessKind::Scalar;
        break;
      case trace::RecordType::Checkpoint:
        elided += r.cp() == trace::CheckpointType::BodyEnd;
        break;
      case trace::RecordType::Call:
      case trace::RecordType::Ret:
        ++elided;
        break;
    }
  }
  EXPECT_EQ(got.trace_records, full.size() - elided);
}

INSTANTIATE_TEST_SUITE_P(All, KernelElision, ::testing::ValuesIn(kKernels),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           return std::string(i.param);
                         });

TEST(GeneratedElision, AffineProgramsMatchOfflineReplay) {
  for_each_affine_program([](const std::string& src, const std::string& name) {
    check_elision(src, name, Elision::kEither);
  });
}

TEST(GeneratedElision, StressProgramsMatchOfflineReplay) {
  for_each_stress_program([](const std::string& src, const std::string& name) {
    check_elision(src, name, Elision::kEither);
  });
}

TEST(KeptScalars, GuardFallsBackToFullTracing) {
  for (const char* file : {"scalar_recursion.mc", "scalar_call_depth.mc",
                           "scalar_leaking_decl.mc"}) {
    check_elision(read_program(file), file, Elision::kFallsBack);
  }
}

}  // namespace
}  // namespace foray::core::transport
