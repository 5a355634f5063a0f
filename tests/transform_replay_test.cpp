// Transform-replay validation: the Phase II exit check (spm/replay.h).
//
// The heart of this suite executes the transformed program Phase II
// emits for every benchsuite kernel — through the full front end and
// both execution engines — and locks the SPM / main-memory / transfer
// traffic it actually generates to the analytic counters the DSE was
// solved with. Any fill, write-back, sliding-window or rebasing slip in
// either the emitter or the analytic model is a concrete counter
// mismatch here.
//
// Also here:
//  - golden fixtures for the transformed source of adpcm/gsm/jpeg
//    (tests/golden/<kernel>.transformed.mc; regenerate intentional
//    changes with FORAY_UPDATE_GOLDEN=1),
//  - the global address map locked against real trace addresses from
//    both engines (sim::global_regions is the third copy of the
//    allocation rule),
//  - regression pins for the sliding-window write-back emission, the
//    partial-nest (re-run) scaling of sliding fill runs, and the
//    degenerate-geometry guards in the reuse analysis and the DP.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>

#include "benchsuite/generator.h"
#include "benchsuite/suite.h"
#include "foray/pipeline.h"
#include "instrument/annotator.h"
#include "minic/parser.h"
#include "sim/classify_sink.h"
#include "sim/interpreter.h"
#include "spm/replay.h"
#include "spm/reuse.h"
#include "trace/sink.h"

namespace foray::spm {
namespace {

constexpr uint32_t kCapacities[] = {1024, 4096, 16384};
constexpr sim::Engine kEngines[] = {sim::Engine::Bytecode,
                                    sim::Engine::Ast};

const char* engine_name(sim::Engine e) {
  return e == sim::Engine::Bytecode ? "bytecode" : "ast";
}

core::ModelReference make_ref(std::vector<int64_t> coefs,
                              std::vector<int64_t> trips, bool write,
                              uint64_t nest_reruns = 1) {
  core::ModelReference r;
  r.instr = 0x400200;
  r.fn.const_term = 0x10000000;
  r.fn.coefs = std::move(coefs);
  r.fn.known.assign(r.fn.coefs.size(), true);
  r.fn.m = static_cast<int>(r.fn.coefs.size());
  r.trips = std::move(trips);
  for (size_t i = 0; i < r.trips.size(); ++i) {
    r.loop_path.push_back(static_cast<int>(i));
  }
  r.access_size = 4;
  r.has_write = write;
  r.has_read = !write;
  r.exec_count = nest_reruns;
  for (int64_t t : r.trips) {
    r.exec_count *= static_cast<uint64_t>(std::max<int64_t>(t, 0));
  }
  r.footprint = r.exec_count;
  return r;
}

/// Replays the level-`level` buffer of a one-reference model.
ReplayReport replay_one(core::ForayModel model, int level,
                        sim::Engine engine = sim::Engine::Bytecode) {
  Selection sel;
  sel.chosen.push_back(candidate_at(model.refs[0], 0, level));
  sel.bytes_used = sel.chosen[0].size_bytes;
  ReplayOptions opts;
  opts.run.engine = engine;
  return replay_selection(model, sel, opts);
}

/// Phase II at `capacity` over a Phase I result, then the replay check
/// of its exact selection on the profiling engine — what a sweep's solve
/// group does for a replay-on point.
struct Solved {
  core::SpmReport spm;
  ReplayReport replay;
};
Solved solve_and_replay(const core::PipelineResult& res,
                        const core::PipelineOptions& opts,
                        uint32_t capacity) {
  core::SpmPhaseOptions sopts = opts.spm;
  sopts.dse.spm_capacity = capacity;
  Solved out;
  out.spm = core::solve_spm(res.model, sopts);
  ReplayOptions ropts;
  ropts.run = opts.run;
  ropts.dse = sopts.dse;
  out.replay = replay_selection(res.model, out.spm.exact, ropts);
  return out;
}

// ---------------------------------------------------------------------------
// The lock: benchsuite x capacities x engines.

TEST(TransformReplay, BenchsuiteLocksAnalyticToSimulatedCounters) {
  for (sim::Engine engine : kEngines) {
    for (const auto& bench : benchsuite::all_benchmarks()) {
      core::PipelineOptions opts;
      opts.run.engine = engine;
      auto res = core::run_pipeline(bench.source, opts);
      ASSERT_TRUE(res.ok()) << bench.name << ": " << res.error();

      for (uint32_t cap : kCapacities) {
        const ReplayReport rep = solve_and_replay(res, opts, cap).replay;
        ASSERT_TRUE(rep.status.ok())
            << bench.name << " @" << cap << " (" << engine_name(engine)
            << "): " << rep.status.message();
        ASSERT_TRUE(rep.ran);
        EXPECT_EQ(rep.unclassified_accesses, 0u)
            << bench.name << " @" << cap;
        EXPECT_TRUE(rep.matches())
            << bench.name << " @" << cap << " (" << engine_name(engine)
            << "):\n"
            << describe_replay_report(rep, res.model);

        // The simulated counters equal the analytic ones on the
        // geometry the emitted program materializes...
        EXPECT_EQ(rep.sim_spm_accesses, rep.ana_spm_accesses);
        EXPECT_EQ(rep.sim_main_accesses, rep.ana_main_accesses);
        EXPECT_EQ(rep.sim_transfer_words, rep.ana_transfer_words);
        // ...and verbatim the evaluate_selection counters whenever the
        // profiled model is rectangular (every exec count equals its
        // trip product). jpeg, susan and adpcm are; pin that so the
        // verbatim form of the lock cannot silently erode.
        if (rep.rectangular) {
          EXPECT_EQ(rep.sim_spm_accesses, rep.model_spm_accesses);
          EXPECT_EQ(rep.sim_main_accesses, rep.model_main_accesses);
          EXPECT_EQ(rep.sim_transfer_words, rep.model_transfer_words);
        }
        if (bench.name == "jpeg" || bench.name == "susan" ||
            bench.name == "adpcm") {
          EXPECT_TRUE(rep.rectangular) << bench.name;
        }
      }
    }
  }
}

TEST(TransformReplay, SusanSlidingWindowReplaysEndToEnd) {
  const core::PipelineOptions opts;
  auto res = core::run_pipeline(benchsuite::get_benchmark("susan").source,
                                opts);
  ASSERT_TRUE(res.ok()) << res.error();
  const Solved s = solve_and_replay(res, opts, opts.spm.dse.spm_capacity);
  ASSERT_TRUE(s.replay.status.ok()) << s.replay.status.message();
  EXPECT_TRUE(s.replay.matches())
      << describe_replay_report(s.replay, res.model);
  // susan's selection is the paper-flavored interesting case: one
  // sliding-window buffer. Make sure the lock is not vacuous.
  ASSERT_FALSE(s.spm.exact.chosen.empty());
  EXPECT_TRUE(s.spm.exact.chosen[0].sliding_window);
  EXPECT_GT(s.replay.sim_spm_accesses, 0u);
  EXPECT_GT(s.replay.sim_transfer_words, 0u);
}

TEST(TransformReplay, DuplicatedBufferBreaksTheLock) {
  // A seeded mutation shows the lock can fail: a selection that names
  // susan's buffer twice. The emitted program serves the reference from
  // one copy, so the analytic counters of the other find no traffic, and
  // the report names each counter that differs.
  const core::PipelineOptions opts;
  auto res = core::run_pipeline(benchsuite::get_benchmark("susan").source,
                                opts);
  ASSERT_TRUE(res.ok()) << res.error();
  core::SpmPhaseOptions sopts = opts.spm;
  sopts.dse.spm_capacity = 4096;
  Selection sel = core::solve_spm(res.model, sopts).exact;
  ASSERT_FALSE(sel.chosen.empty());
  sel.chosen.push_back(sel.chosen.front());
  ReplayOptions ropts;
  ropts.run = opts.run;
  ropts.dse = sopts.dse;
  const ReplayReport rep = replay_selection(res.model, sel, ropts);
  ASSERT_TRUE(rep.status.ok()) << rep.status.message();
  EXPECT_FALSE(rep.matches());
  const auto named = [&](const std::string& line) {
    return std::find(rep.mismatches.begin(), rep.mismatches.end(), line) !=
           rep.mismatches.end();
  };
  EXPECT_TRUE(named("buffer 0 (ref 3 level 3) spm accesses: simulated 0 "
                    "!= analytic 35964"));
  EXPECT_TRUE(named("total spm accesses: simulated 35964 != analytic "
                    "71928"));

  const std::string text = describe_replay_report(rep, res.model);
  EXPECT_NE(text.find("\n  MISMATCH buffer 0 (ref 3 level 3) spm accesses: "
                      "simulated 0 != analytic 35964\n"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("CONFIRMED"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Seeded affine-generator programs: the same lock over a randomized
// family (pointer walks, varying depths and strides), where write
// references dominate — the write-back paths the benchsuite selections
// exercise only lightly.

TEST(TransformReplay, GeneratorProgramsLockAcrossSeeds) {
  int with_buffers = 0, with_sliding = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    benchsuite::GeneratorOptions gopts;
    gopts.seed = seed;
    auto gen = benchsuite::generate_affine_program(gopts);
    for (uint32_t cap : {512u, 2048u}) {
      core::PipelineOptions opts;
      opts.filter.min_exec = 1;
      opts.filter.min_locations = 1;
      auto res = core::run_pipeline(gen.source, opts);
      ASSERT_TRUE(res.ok()) << "seed " << seed << ": " << res.error();
      const Solved s = solve_and_replay(res, opts, cap);
      ASSERT_TRUE(s.replay.status.ok()) << s.replay.status.message();
      EXPECT_TRUE(s.replay.matches())
          << "seed " << seed << " @" << cap << ":\n"
          << describe_replay_report(s.replay, res.model);
      if (!s.spm.exact.chosen.empty()) ++with_buffers;
      for (const auto& c : s.spm.exact.chosen) {
        if (c.sliding_window) {
          ++with_sliding;
          break;
        }
      }
    }
  }
  // The family must actually exercise the machinery.
  EXPECT_GE(with_buffers, 4);
  EXPECT_GE(with_sliding, 2);
}

// ---------------------------------------------------------------------------
// Golden fixtures: the emitted transformed source of three kernels at
// 4096B, byte-for-byte. Emitter drift becomes a reviewable diff;
// regenerate intentional changes with FORAY_UPDATE_GOLDEN=1.

std::string transformed_fixture_path(const std::string& kernel) {
  return std::string(FORAY_SOURCE_DIR) + "/tests/golden/" + kernel +
         ".transformed.mc";
}

TEST(TransformReplay, TransformedSourceMatchesGoldenFixtures) {
  for (const char* kernel : {"adpcm", "gsm", "jpeg"}) {
    core::SpmPhaseOptions opts;
    opts.dse.spm_capacity = 4096;
    auto res = core::run_pipeline(benchsuite::get_benchmark(kernel).source);
    ASSERT_TRUE(res.ok()) << kernel << ": " << res.error();
    const std::string emitted =
        emit_transformed(res.model, core::solve_spm(res.model, opts).exact);

    if (std::getenv("FORAY_UPDATE_GOLDEN") != nullptr) {
      std::ofstream out(transformed_fixture_path(kernel),
                        std::ios::binary);
      ASSERT_TRUE(out.good()) << transformed_fixture_path(kernel);
      out << emitted;
    }
    std::ifstream in(transformed_fixture_path(kernel), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing fixture " << transformed_fixture_path(kernel)
        << " — regenerate with FORAY_UPDATE_GOLDEN=1";
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), emitted)
        << kernel << ": transformed-source drift; review the diff and "
        << "regenerate with FORAY_UPDATE_GOLDEN=1 if intentional";
  }
}

// ---------------------------------------------------------------------------
// The global address map is the hinge the classification hangs on;
// lock it against real trace addresses from both engines.

TEST(TransformReplay, GlobalRegionsMatchEngineAllocation) {
  const char* source =
      "char a[3];\n"
      "int b;\n"
      "char c[5];\n"
      "short d[2];\n"
      "int e[4];\n"
      "int main(void) {\n"
      "  a[2] = 1; b = 2; c[4] = 3; d[1] = 4; e[3] = 5;\n"
      "  return 0;\n"
      "}\n";
  // Note `b = 2` is Scalar-kind traffic (direct scalar variable), so
  // only the four array stores appear as Data accesses below — which is
  // exactly why the replay classification can ignore foray_acc.
  util::DiagList diags;
  auto prog = minic::parse_and_check(source, &diags);
  ASSERT_NE(prog, nullptr) << diags.str();
  instrument::annotate_loops(prog.get());
  auto regions = sim::global_regions(*prog);
  ASSERT_EQ(regions.size(), 5u);
  // a @+0 (3B), b aligned to +4 (4B), c @+8 (5B), d aligned to +14
  // (2x2B), e aligned to +20 (16B).
  EXPECT_EQ(regions[0].base, sim::Memory::kGlobalBase + 0);
  EXPECT_EQ(regions[1].base, sim::Memory::kGlobalBase + 4);
  EXPECT_EQ(regions[2].base, sim::Memory::kGlobalBase + 8);
  EXPECT_EQ(regions[3].base, sim::Memory::kGlobalBase + 14);
  EXPECT_EQ(regions[4].base, sim::Memory::kGlobalBase + 20);

  for (sim::Engine engine : kEngines) {
    sim::RunOptions ropts;
    ropts.engine = engine;
    trace::VectorSink sink;
    auto run = sim::run_program(*prog, &sink, ropts);
    ASSERT_TRUE(run.ok()) << run.error();
    // The four array Data writes land, in order, at the expected
    // element addresses of the computed regions.
    const uint32_t expect[] = {regions[0].base + 2, regions[2].base + 4,
                               regions[3].base + 2, regions[4].base + 12};
    size_t next = 0;
    for (const auto& r : sink.records()) {
      if (r.type() != trace::RecordType::Access ||
          r.kind() != trace::AccessKind::Data || !r.is_write()) {
        continue;
      }
      ASSERT_LT(next, 4u) << engine_name(engine);
      EXPECT_EQ(r.addr(), expect[next]) << engine_name(engine);
      ++next;
    }
    EXPECT_EQ(next, 4u) << engine_name(engine);
  }
}

// The lock's detection branches a correct transformed program never
// reaches, fed hand-built records: an address below the first region or
// past a region's end is unclassified (the lock requires none), a paired
// access outside any loop is program traffic at once, and finalize()
// classifies the loop frames a faulted run leaves open, once.
TEST(TransformReplay, ClassifyingSinkFlagsStrayAndOpenTraffic) {
  using trace::CheckpointType;
  using trace::Record;
  // Pair 0: main [0x1000, 0x1040) and its SPM buffer [0x2000, 0x2010);
  // unpaired main memory [0x3000, 0x3004).
  sim::ClassifyingSink sink({{0x1000, 0x40, 0, false},
                             {0x2000, 0x10, 0, true},
                             {0x3000, 0x4, -1, false}},
                            1);
  const Record records[] = {
      Record::access(1, 0x0ff0, 4, false),  // below the first region
      Record::access(1, 0x1040, 4, false),  // one past the main array
      Record::access(1, 0x3004, 4, true),   // one past the last region
      Record::access(1, 0x1000, 4, false),  // main, outside any loop
      Record::access(1, 0x2004, 4, true),   // SPM, outside any loop
      Record::access(1, 0x3000, 4, false),  // unpaired main
      Record::checkpoint(CheckpointType::LoopEnter, 7),
      Record::access(1, 0x2008, 4, false),  // outer loop: program read
      Record::checkpoint(CheckpointType::LoopEnter, 8),
      // Inner loop: a 2-byte fill, main -> SPM; neither loop exits.
      Record::access(2, 0x1004, 1, false),
      Record::access(3, 0x2000, 1, true),
      Record::access(2, 0x1005, 1, false),
      Record::access(3, 0x2001, 1, true),
  };
  sink.on_chunk(records, std::size(records));
  EXPECT_EQ(sink.unclassified_accesses(), 3u);
  for (int pass = 0; pass < 2; ++pass) {
    const sim::ClassifyingSink::BufferCounters& b = sink.buffers()[0];
    EXPECT_EQ(b.spm_accesses, 2u) << pass;
    EXPECT_EQ(b.main_accesses, 1u) << pass;
    EXPECT_EQ(b.fill_events, 1u) << pass;
    EXPECT_EQ(b.fill_bytes, 2u) << pass;
    EXPECT_EQ(b.writeback_events, 0u) << pass;
    EXPECT_EQ(b.transfer_words, 1u) << pass;
    EXPECT_EQ(sink.total_main_accesses(), 2u) << pass;
  }
}

// ---------------------------------------------------------------------------
// Regression pins for the sliding-window emission. The benchsuite
// selections only exercise read-side sliding; these pin the write-back
// side and the exact word counts of the analytic model.

TEST(TransformReplay, SlidingReadPinsDeltaFillTraffic) {
  // Window 64B, step 4B, 10 iterations: one full fill (16 words) plus
  // nine 1-word delta fills.
  core::ForayModel model;
  model.refs.push_back(make_ref({4, 4}, {10, 16}, false));
  ReplayReport rep = replay_one(std::move(model), 1);
  ASSERT_TRUE(rep.matches()) << describe_replay_report(rep, {});
  EXPECT_EQ(rep.sim_transfer_words, 16u + 9u);
  ASSERT_EQ(rep.buffers.size(), 1u);
  EXPECT_TRUE(rep.buffers[0].sliding);
  EXPECT_EQ(rep.buffers[0].sim_fill_events, 10u);
  EXPECT_EQ(rep.buffers[0].sim_fill_bytes, 64u + 9u * 4u);
}

TEST(TransformReplay, SlidingWriteBackRetracesTheFillStream) {
  // Dirty sliding window: nine outgoing 4B deltas plus the final 64B
  // resident window exactly mirror the fill traffic.
  core::ForayModel model;
  model.refs.push_back(make_ref({4, 4}, {10, 16}, true));
  ReplayReport rep = replay_one(std::move(model), 1);
  ASSERT_TRUE(rep.matches()) << describe_replay_report(rep, {});
  EXPECT_EQ(rep.sim_transfer_words, 2u * (16u + 9u));
  ASSERT_EQ(rep.buffers.size(), 1u);
  EXPECT_EQ(rep.buffers[0].sim_writeback_events, 10u);
  EXPECT_EQ(rep.buffers[0].sim_writeback_bytes, 64u + 9u * 4u);
}

TEST(TransformReplay, NegativeCoefficientSlidingWindow) {
  // The window slides downward; fresh data enters at the low end and
  // evicted data leaves at the high end. Both directions, both kinds.
  for (bool write : {false, true}) {
    core::ForayModel model;
    model.refs.push_back(make_ref({-4, 4}, {10, 16}, write));
    ReplayReport rep = replay_one(std::move(model), 1);
    ASSERT_TRUE(rep.matches())
        << (write ? "write" : "read") << ":\n"
        << describe_replay_report(rep, {});
    EXPECT_EQ(rep.sim_transfer_words, (write ? 2u : 1u) * (16u + 9u));
  }
}

TEST(TransformReplay, MidLevelSlidingInDeeperNest) {
  // Level-2 buffer inside a 3-deep nest: the window covers the two
  // inner loops and slides with the outermost one.
  core::ForayModel model;
  model.refs.push_back(make_ref({4, 8, 4}, {3, 5, 16}, true));
  ReplayReport rep = replay_one(std::move(model), 2);
  ASSERT_TRUE(rep.matches()) << describe_replay_report(rep, {});
  ASSERT_EQ(rep.buffers.size(), 1u);
  EXPECT_TRUE(rep.buffers[0].sliding);
  // Window = 8*4+4*15+4 = 96B (24 words), step 4 (1 word): one full
  // fill plus two delta fills across the 3 outer iterations, written
  // back in kind.
  EXPECT_EQ(rep.sim_transfer_words, 2u * (24u + 2u));
}

TEST(TransformReplay, StepEqualToSpanIsNotSliding) {
  // Adjacent windows touch but do not overlap: plain full refills.
  core::ForayModel model;
  model.refs.push_back(make_ref({16, 4}, {10, 4}, true));
  Selection sel;
  sel.chosen.push_back(candidate_at(model.refs[0], 0, 1));
  EXPECT_FALSE(sel.chosen[0].sliding_window);
  ReplayReport rep = replay_one(std::move(model), 1);
  ASSERT_TRUE(rep.matches()) << describe_replay_report(rep, {});
  EXPECT_EQ(rep.sim_transfer_words, 2u * 10u * 4u);
}

TEST(TransformReplay, PartialNestRerunsScaleSlidingRuns) {
  // A partial reference whose outer context re-runs the nest R times
  // performs R full sliding passes: R times the one-pass traffic, not
  // one pass with R times the delta fills (the pre-fix accounting).
  const auto once = candidate_at(make_ref({4, 4}, {10, 16}, false, 1),
                                 0, 1);
  const auto twice = candidate_at(make_ref({4, 4}, {10, 16}, false, 2),
                                  0, 1);
  ASSERT_TRUE(once.sliding_window);
  ASSERT_TRUE(twice.sliding_window);
  EXPECT_EQ(once.transfer_words, 16u + 9u);
  EXPECT_EQ(twice.transfer_words, 2u * (16u + 9u));
}

// ---------------------------------------------------------------------------
// Degenerate geometry must not produce broken buffers or crash the DP.

TEST(TransformReplay, ZeroTripNestYieldsNoCandidates) {
  // A loop that never ran: no accesses, nothing worth buffering.
  auto ref = make_ref({4, 4}, {0, 16}, false);
  EXPECT_EQ(ref.exec_count, 0u);
  EXPECT_TRUE(candidates_for(ref, 0).empty());
}

TEST(TransformReplay, CandidateLevelIsClampedToTheNest) {
  auto ref = make_ref({0, 4}, {10, 16}, false);
  auto c = candidate_at(ref, 0, 99);
  EXPECT_EQ(c.level, 2);
  EXPECT_GT(c.size_bytes, 0u);
  c = candidate_at(ref, 0, -3);
  EXPECT_EQ(c.level, 1);
  EXPECT_GT(c.size_bytes, 0u);
}

TEST(TransformReplay, ZeroCoefficientDimensionsKeepBuffersNonEmpty) {
  // All-zero coefficients: every iteration touches the same element;
  // the buffer is one access wide, never zero-sized.
  auto ref = make_ref({0, 0}, {10, 16}, false);
  auto c = candidate_at(ref, 0, 2);
  EXPECT_EQ(c.size_bytes, 4u);
  core::ForayModel model;
  model.refs.push_back(ref);
  ReplayReport rep = replay_one(std::move(model), 2);
  EXPECT_TRUE(rep.matches()) << describe_replay_report(rep, {});
}

TEST(TransformReplay, ZeroGranuleQuantizesAsOneByte) {
  auto ref = make_ref({0, 4}, {10, 64}, false);
  auto cands = candidates_for(ref, 0);
  ASSERT_FALSE(cands.empty());
  DseOptions opts;
  opts.spm_capacity = 4096;
  opts.granule = 0;  // must not divide by zero
  Selection sel = select_buffers(cands, opts);
  EXPECT_FALSE(sel.chosen.empty());
  EXPECT_LE(sel.bytes_used, opts.spm_capacity);
}

TEST(TransformReplay, ZeroCapacitySelectsNothing) {
  auto ref = make_ref({0, 4}, {10, 64}, false);
  auto cands = candidates_for(ref, 0);
  DseOptions opts;
  opts.spm_capacity = 0;
  EXPECT_TRUE(select_buffers(cands, opts).chosen.empty());
  EXPECT_TRUE(select_buffers_greedy(cands, opts).chosen.empty());
}

}  // namespace
}  // namespace foray::spm
