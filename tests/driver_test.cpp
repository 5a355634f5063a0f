// The driver layer: the guarded() failure classifier, ThreadPool, and
// the SweepDriver's two batch contracts — determinism (an N-thread run
// produces byte-identical reports to a 1-thread run) and per-job failure
// isolation. (Grid-axis behavior lives in sweep_test; this file covers
// the capacity-only shape the old batch driver pinned down.)
#include <gtest/gtest.h>

#include <atomic>
#include <new>
#include <sstream>
#include <stdexcept>

#include "driver/sweep.h"
#include "util/thread_pool.h"

namespace foray::driver {
namespace {

const char* kGood =
    "int a[256];\n"
    "int main(void) {\n"
    "  for (int r = 0; r < 40; r++)\n"
    "    for (int i = 0; i < 256; i++) a[i] = a[i] + r;\n"
    "  return a[0] & 255;\n"
    "}\n";

const char* kGood2 =
    "char buf[4096];\n"
    "int main(void) {\n"
    "  char *p = buf;\n"
    "  int t = 0;\n"
    "  while (t < 30) {\n"
    "    t++;\n"
    "    p += 64;\n"
    "    for (int i = 0; i < 32; i++) *p++ = (i + t) % 256;\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

const char* kParseError = "int main(void) { return 0;";       // no brace
const char* kSimFault = "int main(void) { int z = 0; return 1 / z; }";

// -- thread pool --------------------------------------------------------------

TEST(ThreadPool, RunsEverySubmittedJob) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIdleIsReusable) {
  util::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

// -- guarded ------------------------------------------------------------------

TEST(Guarded, ClassifiesWhatTheCallThrows) {
  EXPECT_TRUE(guarded("pipeline", [] {}).ok());

  // A thrown Status arrives verbatim, code and phase included.
  const util::Status carried = util::Status::failure(
      util::ErrorCode::kIoError, "trace", 0, "sink failed");
  util::Status st =
      guarded("pipeline", [&] { throw util::StatusError(carried); });
  EXPECT_EQ(st.code(), util::ErrorCode::kIoError);
  EXPECT_EQ(st.message(), carried.message());

  // Running out of memory is a resource failure of the named phase.
  st = guarded("spm-solve", [] { throw std::bad_alloc(); });
  EXPECT_EQ(st.code(), util::ErrorCode::kResourceExhausted);
  EXPECT_EQ(st.message(), "spm-solve error: out of memory");

  // Anything else is a bug in this library.
  st = guarded("pipeline", [] { throw std::logic_error("broken"); });
  EXPECT_EQ(st.code(), util::ErrorCode::kInternal);
  EXPECT_EQ(st.message(), "internal error: broken");
}

TEST(Guarded, FrontendFailureStaysAClassifiedStatus) {
  core::PipelineResult res;
  EXPECT_TRUE(
      guarded("pipeline", [&] { res = core::run_pipeline(kParseError); })
          .ok());
  EXPECT_EQ(res.status.code(), util::ErrorCode::kInvalidInput);
  EXPECT_EQ(res.status.phase(), "parse");

  // In a sweep the same failure lands on the job's result and its rows.
  const SweepReport report = SweepDriver().run({{"bad", kParseError}});
  ASSERT_EQ(report.results.size(), 1u);
  EXPECT_EQ(report.results[0].status.phase(), "parse");
  EXPECT_EQ(report.items[0].status.code(), util::ErrorCode::kInvalidInput);
  EXPECT_EQ(report.items[0].status.phase(), "parse");
}

// -- sweep driver (capacity-only batch shape) ---------------------------------

std::vector<SweepJob> good_jobs() {
  return {{"alpha", kGood}, {"beta", kGood2}, {"gamma", kGood}};
}

SweepOptions batch_opts(int threads,
                        std::vector<uint32_t> capacities = {256, 1024,
                                                            4096}) {
  SweepOptions o;
  o.threads = threads;
  o.spec.capacities = std::move(capacities);
  o.pipeline.filter.min_exec = 1;
  o.pipeline.filter.min_locations = 1;
  return o;
}

TEST(SweepDriver, ParallelRunByteIdenticalToSequential) {
  auto jobs = good_jobs();
  SweepReport seq;
  SweepReport par;
  std::ostringstream seq_out, par_out;
  ASSERT_TRUE(
      SweepDriver(batch_opts(1)).run_ndjson(jobs, seq_out, nullptr, &seq)
          .ok());
  ASSERT_TRUE(
      SweepDriver(batch_opts(4)).run_ndjson(jobs, par_out, nullptr, &par)
          .ok());

  EXPECT_EQ(seq_out.str(), par_out.str());  // byte-identical
  // Profiled on the tree-walking oracle, the stream is the same bytes.
  SweepOptions on_ast = batch_opts(4);
  on_ast.pipeline.run.engine = sim::Engine::Ast;
  std::ostringstream ast_out;
  ASSERT_TRUE(SweepDriver(on_ast).run_ndjson(jobs, ast_out).ok());
  EXPECT_EQ(ast_out.str(), seq_out.str());
  EXPECT_EQ(seq.table(), par.table());
  ASSERT_EQ(seq.items.size(), par.items.size());
  ASSERT_EQ(seq.items.size(), jobs.size() * 3);
  for (size_t i = 0; i < seq.items.size(); ++i) {
    EXPECT_EQ(seq.items[i].program, par.items[i].program);
    EXPECT_EQ(seq.items[i].point.capacity_bytes,
              par.items[i].point.capacity_bytes);
    EXPECT_EQ(seq.items[i].spm.exact.bytes_used,
              par.items[i].spm.exact.bytes_used);
    EXPECT_DOUBLE_EQ(seq.items[i].spm.exact.saved_nj,
                     par.items[i].spm.exact.saved_nj);
  }
}

TEST(SweepDriver, ItemsOrderedJobMajorCapacityMinor) {
  auto report = SweepDriver(batch_opts(2)).run(good_jobs());
  ASSERT_EQ(report.items.size(), 9u);
  EXPECT_EQ(report.items[0].program, "alpha");
  EXPECT_EQ(report.items[0].point.capacity_bytes, 256u);
  EXPECT_EQ(report.items[2].point.capacity_bytes, 4096u);
  EXPECT_EQ(report.items[3].program, "beta");
  EXPECT_EQ(report.items[8].program, "gamma");
  PointKey key;
  key.job = 1;
  key.capacity = 2;
  EXPECT_EQ(&report.at(key), &report.items[5]);
}

TEST(SweepDriver, FailingJobIsIsolated) {
  std::vector<SweepJob> jobs = {{"ok1", kGood},
                                {"parse", kParseError},
                                {"fault", kSimFault},
                                {"ok2", kGood2}};
  auto report = SweepDriver(batch_opts(4, {4096})).run(jobs);

  ASSERT_EQ(report.items.size(), 4u);
  EXPECT_TRUE(report.items[0].status.ok());
  EXPECT_FALSE(report.items[1].status.ok());
  EXPECT_EQ(report.items[1].status.phase(), "parse");
  EXPECT_FALSE(report.items[2].status.ok());
  EXPECT_EQ(report.items[2].status.phase(), "simulation");
  EXPECT_TRUE(report.items[3].status.ok());

  // Healthy neighbours produced full reports.
  EXPECT_GT(report.items[0].spm.exact.saved_nj, 0.0);
  EXPECT_GT(report.items[3].spm.exact.saved_nj, 0.0);
  // The table renders every row, marking the failed ones.
  std::string table = report.table();
  EXPECT_NE(table.find("FAILED"), std::string::npos);
  EXPECT_NE(table.find("ok2"), std::string::npos);
}

TEST(SweepDriver, BenchsuiteJobsMatchSuite) {
  auto jobs = SweepDriver::benchsuite_jobs();
  ASSERT_EQ(jobs.size(), 6u);
  EXPECT_EQ(jobs.front().name, "jpeg");
  EXPECT_EQ(jobs.back().name, "adpcm");
  for (const auto& j : jobs) EXPECT_FALSE(j.source.empty());
}

}  // namespace
}  // namespace foray::driver
