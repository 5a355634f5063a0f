// Execution budgets (sim/budget.h): the step guard, the record budget,
// the wall-clock deadline and cooperative cancellation, on both engines
// and through both production profiling modes (the fused pass with and
// without the census).
//
// The load-bearing contract is "budget plus one chunk": record/deadline/
// cancel checks run at trace-chunk boundaries (check-after-delivery), so
// a faulted run overshoots those budgets by at most RunOptions::
// chunk_records records — and the epilogue flush runs no budget check.
// When the fused pass elides scalar traffic, the elided records still
// count, and the checks fall at the same points as in the full trace.
// The step guard is per-instruction and exact, which is what bounds a
// record-free spin loop.
#include <gtest/gtest.h>

#include <chrono>

#include "foray/pipeline.h"
#include "instrument/annotator.h"
#include "minic/parser.h"
#include "sim/interpreter.h"
#include "trace/sink.h"
#include "util/status.h"

namespace foray::sim {
namespace {

// Non-terminating, with data traffic on every iteration — the record
// budget and the deadline both get chunk boundaries to trip at.
const char* kSpinWithTraffic =
    "int buf[256];\n"
    "int main(void) {\n"
    "  int i = 0;\n"
    "  while (1) { buf[i & 255] = i; i = i + 1; }\n"
    "  return 0;\n"
    "}\n";

// Non-terminating and record-free: only the step guard can stop it.
const char* kPureSpin =
    "int main(void) {\n"
    "  int i = 0;\n"
    "  while (1) { i = i + 1; }\n"
    "  return 0;\n"
    "}\n";

struct Capture {
  RunResult result;
  size_t records = 0;
};

Capture run_src(std::string_view src, RunOptions opts) {
  util::DiagList diags;
  auto prog = minic::parse_and_check(src, &diags);
  EXPECT_NE(prog, nullptr) << diags.str();
  Capture out;
  if (!prog) return out;
  instrument::annotate_loops(prog.get());
  trace::VectorSink sink;
  out.result = run_program(*prog, &sink, opts);
  out.records = sink.records().size();
  return out;
}

const Engine kEngines[] = {Engine::Ast, Engine::Bytecode};

TEST(Budget, DefaultsBoundStepsButNothingElse) {
  Budget b;
  EXPECT_EQ(b.effective_max_steps(), 500'000'000u);
  EXPECT_FALSE(b.has_deadline());
  EXPECT_FALSE(b.chunk_checked());
  b.max_steps = 0;
  EXPECT_EQ(b.effective_max_steps(), UINT64_MAX);
}

TEST(Budget, StepGuardStopsPureSpinOnBothEngines) {
  for (Engine engine : kEngines) {
    RunOptions opts;
    opts.engine = engine;
    opts.budget.max_steps = 50'000;
    Capture c = run_src(kPureSpin, opts);
    EXPECT_EQ(c.result.status.code(), util::ErrorCode::kResourceExhausted)
        << c.result.status.message();
    // The step guard is exact: the engine stops on the first step past
    // the limit.
    EXPECT_LE(c.result.steps, opts.budget.max_steps + 1);
  }
}

TEST(Budget, RecordBudgetAtExactChunkBoundary) {
  for (Engine engine : kEngines) {
    RunOptions opts;
    opts.engine = engine;
    opts.chunk_records = 64;
    opts.budget.max_records = 64;  // trips on the very first flush
    Capture c = run_src(kSpinWithTraffic, opts);
    EXPECT_EQ(c.result.status.code(), util::ErrorCode::kResourceExhausted)
        << c.result.status.message();
    // Check-after-delivery: the chunk that crossed the budget is already
    // in the sink, and nothing after it.
    EXPECT_EQ(c.records, 64u);
  }
}

TEST(Budget, RecordBudgetMidChunkOvershootsByAtMostOneChunk) {
  for (Engine engine : kEngines) {
    RunOptions opts;
    opts.engine = engine;
    opts.chunk_records = 64;
    opts.budget.max_records = 100;  // not a chunk multiple
    Capture c = run_src(kSpinWithTraffic, opts);
    EXPECT_EQ(c.result.status.code(), util::ErrorCode::kResourceExhausted)
        << c.result.status.message();
    EXPECT_GE(c.records, opts.budget.max_records);
    EXPECT_LE(c.records, opts.budget.max_records + opts.chunk_records);
  }
}

TEST(Budget, RecordBudgetCountsOnlyTheReplayView) {
  // Mostly scalar traffic, which the replay view drops before the
  // budget sees it: a budget above the view's records never trips there,
  // while the full trace runs far past it.
  const char* src =
      "int a[8];\n"
      "int main(void) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 300; i++) { s = s + i; s = s * 3; }\n"
      "  for (int i = 0; i < 8; i++) a[i] = s;\n"
      "  return 0;\n"
      "}\n";
  for (Engine engine : kEngines) {
    RunOptions view;
    view.engine = engine;
    view.replay_view = true;
    view.chunk_records = 64;
    const Capture free_run = run_src(src, view);
    ASSERT_TRUE(free_run.result.ok()) << free_run.result.error();

    view.budget.max_records = free_run.records + 1;
    const Capture budgeted = run_src(src, view);
    EXPECT_TRUE(budgeted.result.ok()) << budgeted.result.error();
    EXPECT_EQ(budgeted.records, free_run.records);

    RunOptions full = view;
    full.replay_view = false;
    const Capture tripped = run_src(src, full);
    EXPECT_EQ(tripped.result.status.code(),
              util::ErrorCode::kResourceExhausted)
        << tripped.result.status.message();
  }

  // Loop-heavy with few Data accesses: the view keeps each loop
  // instance's LoopEnter and LoopExit but no body checkpoint, so its
  // records, and all the budget counts, are 2 x loop instances + Data
  // accesses, while 916 body checkpoints run the full trace past it.
  const char* loops =
      "int a[8];\n"
      "int main(void) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 50; i++)\n"
      "    for (int j = 0; j < 8; j++) s = s + j;\n"
      "  for (int i = 0; i < 8; i++) a[i] = s;\n"
      "  return 0;\n"
      "}\n";
  constexpr size_t kLoopInstances = 1 + 50 + 1;
  constexpr size_t kDataAccesses = 8;
  constexpr size_t kViewRecords = 2 * kLoopInstances + kDataAccesses;
  for (Engine engine : kEngines) {
    RunOptions view;
    view.engine = engine;
    view.replay_view = true;
    view.chunk_records = 64;
    const Capture free_run = run_src(loops, view);
    ASSERT_TRUE(free_run.result.ok()) << free_run.result.error();
    EXPECT_EQ(free_run.records, kViewRecords);

    view.budget.max_records = kViewRecords + 1;
    const Capture budgeted = run_src(loops, view);
    EXPECT_TRUE(budgeted.result.ok()) << budgeted.result.error();
    EXPECT_EQ(budgeted.records, kViewRecords);

    // The view's own records still trip a budget below them.
    view.budget.max_records = kViewRecords / 2;
    const Capture short_view = run_src(loops, view);
    EXPECT_EQ(short_view.result.status.code(),
              util::ErrorCode::kResourceExhausted)
        << short_view.result.status.message();

    RunOptions full = view;
    full.replay_view = false;
    full.budget.max_records = kViewRecords + 1;
    const Capture tripped = run_src(loops, full);
    EXPECT_EQ(tripped.result.status.code(),
              util::ErrorCode::kResourceExhausted)
        << tripped.result.status.message();
  }
}

TEST(Budget, DeadlineTripsOnBothEngines) {
  for (Engine engine : kEngines) {
    RunOptions opts;
    opts.engine = engine;
    opts.chunk_records = 64;
    // Already expired at the first chunk check; the run still delivers
    // the chunk it was filling (budget plus one chunk).
    opts.budget.timeout_seconds = 1e-9;
    Capture c = run_src(kSpinWithTraffic, opts);
    EXPECT_EQ(c.result.status.code(), util::ErrorCode::kDeadlineExceeded)
        << c.result.status.message();
    EXPECT_LE(c.records, opts.chunk_records);
  }
}

TEST(Budget, CancellationTripsAsCancelled) {
  for (Engine engine : kEngines) {
    RunOptions opts;
    opts.engine = engine;
    opts.chunk_records = 64;
    opts.budget.cancel = std::make_shared<CancelToken>();
    opts.budget.cancel->cancel();  // pre-cancelled: first check trips
    Capture c = run_src(kSpinWithTraffic, opts);
    EXPECT_EQ(c.result.status.code(), util::ErrorCode::kCancelled)
        << c.result.status.message();
    EXPECT_LE(c.records, opts.chunk_records);
  }
}

TEST(Budget, UnbudgetedRunIsUnaffected) {
  const char* kOk =
      "int a[16];\n"
      "int main(void) {\n"
      "  for (int i = 0; i < 16; i++) a[i] = i;\n"
      "  return a[3];\n"
      "}\n";
  for (Engine engine : kEngines) {
    RunOptions opts;
    opts.engine = engine;
    Capture c = run_src(kOk, opts);
    EXPECT_TRUE(c.result.ok()) << c.result.status.message();
    EXPECT_EQ(c.result.exit_code, 3);
  }
}

// -- budgets through the pipeline's profiling modes --------------------------
//
// The acceptance bar: a non-terminating program under --max-steps /
// --timeout fails with the right class in both modes: the eliding pass
// (the default filter's Nloc 10 lets it elide) and the census.

core::PipelineOptions mode_opts(bool census, Engine engine) {
  core::PipelineOptions opts;
  opts.run.engine = engine;
  opts.census = census;
  return opts;
}

TEST(Budget, StepBudgetFaultsEveryExtractionMode) {
  for (Engine engine : kEngines) {
    for (bool census : {false, true}) {
      core::PipelineOptions opts = mode_opts(census, engine);
      opts.run.budget.max_steps = 50'000;
      auto res = core::run_pipeline(kSpinWithTraffic, opts);
      EXPECT_FALSE(res.ok()) << "census " << census;
      EXPECT_EQ(res.status.code(), util::ErrorCode::kResourceExhausted)
          << "census " << census << ": " << res.status.message();
    }
  }
}

TEST(Budget, DeadlineFaultsEveryExtractionMode) {
  for (Engine engine : kEngines) {
    for (bool census : {false, true}) {
      core::PipelineOptions opts = mode_opts(census, engine);
      opts.run.chunk_records = 64;
      opts.run.budget.timeout_seconds = 1e-9;
      auto res = core::run_pipeline(kSpinWithTraffic, opts);
      EXPECT_FALSE(res.ok()) << "census " << census;
      EXPECT_EQ(res.status.code(), util::ErrorCode::kDeadlineExceeded)
          << "census " << census << ": " << res.status.message();
    }
  }
}

TEST(Budget, DeadlineCountsFromClockStart) {
  for (Engine engine : kEngines) {
    RunOptions opts;
    opts.engine = engine;
    opts.chunk_records = 64;
    // A generous timeout whose clock started long ago: the first check
    // trips, as a fallback attempt's does when its phase ran out of time.
    opts.budget.timeout_seconds = 3600.0;
    opts.budget.clock_start =
        std::chrono::steady_clock::now() - std::chrono::hours(2);
    Capture c = run_src(kSpinWithTraffic, opts);
    EXPECT_EQ(c.result.status.code(), util::ErrorCode::kDeadlineExceeded)
        << c.result.status.message();
    EXPECT_LE(c.records, opts.chunk_records);
  }
}

// -- budgets under scalar elision ---------------------------------------------
//
// Most of kSpinWithTraffic's records are Scalar accesses, which the
// eliding pass (the fused default, without PipelineOptions::census)
// never delivers. The record budget still counts them, so the run trips
// at the same point of execution as the census pass: same status, same
// message, same line, same step count.

TEST(Budget, RecordBudgetTripsAlikeWithAndWithoutElision) {
  for (Engine engine : kEngines) {
    for (uint64_t max_records : {64u, 100u, 5000u}) {
      core::PipelineOptions census;
      census.run.engine = engine;
      census.run.chunk_records = 64;
      census.run.budget.max_records = max_records;
      census.census = true;
      core::PipelineOptions eliding = census;
      eliding.census = false;
      const auto want = core::run_pipeline(kSpinWithTraffic, census);
      const auto got = core::run_pipeline(kSpinWithTraffic, eliding);
      const std::string what = "max_records " + std::to_string(max_records);
      ASSERT_EQ(want.status.code(), util::ErrorCode::kResourceExhausted)
          << what << ": " << want.status.message();
      EXPECT_EQ(got.status.code(), want.status.code()) << what;
      EXPECT_EQ(got.status.message(), want.status.message()) << what;
      EXPECT_EQ(got.status.first_line(), want.status.first_line()) << what;
      EXPECT_EQ(got.run.steps, want.run.steps) << what;
      EXPECT_EQ(got.run.accesses, want.run.accesses) << what;
      // The elision was on: fewer records reached the extractor.
      EXPECT_LT(got.trace_records, want.trace_records) << what;
    }
  }
}

}  // namespace
}  // namespace foray::sim
