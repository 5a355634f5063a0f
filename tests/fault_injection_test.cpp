// The fault-injection harness (util/fault.h) and what it proves: every
// registered site can be armed, fires with the documented trigger
// semantics, surfaces as the *right* error class with no crash, leaves a
// valid partial artifact, and — for the sweep sink — a journal that
// `--resume` completes to output byte-identical to an unfaulted run.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "driver/sweep.h"
#include "instrument/annotator.h"
#include "minic/parser.h"
#include "sim/interpreter.h"
#include "trace/sink.h"
#include "util/fault.h"
#include "util/status.h"

namespace foray {
namespace {

const char* kAlpha =
    "int a[256];\n"
    "int main(void) {\n"
    "  for (int r = 0; r < 40; r++)\n"
    "    for (int i = 0; i < 256; i++) a[i] = a[i] + r;\n"
    "  return a[0] & 255;\n"
    "}\n";

const char* kBeta =
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

std::vector<driver::SweepJob> jobs() {
  return {{"alpha", kAlpha}, {"beta", kBeta}};
}

driver::SweepOptions sweep_opts() {
  driver::SweepOptions o;
  o.threads = 1;  // deterministic solve order for count-limited faults
  o.pipeline.filter.min_exec = 1;
  o.pipeline.filter.min_locations = 1;
  // Two capacities, so two solve groups per job: "spm.solve" fires once
  // per group.
  EXPECT_TRUE(o.spec.parse_axis("capacity", "1024,4096").ok());
  return o;
}

// Every test disarms on the way out — the registry is process-global.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { util::fault::reset(); }
};

/// Runs `src` into a VectorSink; `records` (optional) receives the
/// number of records the sink stored.
sim::RunResult run_sim(const char* src, sim::RunOptions opts = {},
                       size_t* records = nullptr) {
  util::DiagList diags;
  auto prog = minic::parse_and_check(src, &diags);
  EXPECT_NE(prog, nullptr) << diags.str();
  if (!prog) return {};
  instrument::annotate_loops(prog.get());
  trace::VectorSink sink;
  sim::RunResult r = sim::run_program(*prog, &sink, opts);
  if (records != nullptr) *records = sink.size();
  return r;
}

// -- the registry itself ------------------------------------------------------

TEST_F(FaultInjectionTest, EverySiteArmsFiresAndDisarms) {
  const std::vector<std::string> sites = util::fault::all_sites();
  ASSERT_FALSE(sites.empty());
  for (const std::string& site : sites) {
    ASSERT_TRUE(util::fault::configure(site + ":count=1:param=3").ok())
        << site;
    EXPECT_TRUE(util::fault::enabled()) << site;
    util::fault::Hit h = util::fault::hit(site);
    EXPECT_TRUE(h.fired) << site;
    EXPECT_EQ(h.param, 3u) << site;
    // count=1: consumed.
    EXPECT_FALSE(util::fault::hit(site).fired) << site;
    util::fault::reset();
    EXPECT_FALSE(util::fault::enabled()) << site;
  }
}

TEST_F(FaultInjectionTest, SkipAndCountTriggerSemantics) {
  ASSERT_TRUE(util::fault::configure("sim.slow:skip=1:count=2:param=7").ok());
  EXPECT_FALSE(util::fault::hit("sim.slow").fired);  // skipped
  util::fault::Hit h = util::fault::hit("sim.slow");
  EXPECT_TRUE(h.fired);
  EXPECT_EQ(h.param, 7u);
  EXPECT_TRUE(util::fault::hit("sim.slow").fired);
  EXPECT_FALSE(util::fault::hit("sim.slow").fired);  // count exhausted
}

TEST_F(FaultInjectionTest, BadSpecsAreInvalidInputByName) {
  util::Status st = util::fault::configure("no.such.site");
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
  EXPECT_NE(st.message().find("no.such.site"), std::string::npos);
  EXPECT_FALSE(util::fault::enabled());  // a typo must inject nothing
  st = util::fault::configure("sim.slow:bogus=1");
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
  st = util::fault::configure("sim.slow:skip=abc");
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
}

// -- per-site behavior through the real call paths ----------------------------

const sim::Engine kEngines[] = {sim::Engine::Ast, sim::Engine::Bytecode};

TEST_F(FaultInjectionTest, TraceBufferAllocIsResourceExhausted) {
  for (sim::Engine engine : kEngines) {
    ASSERT_TRUE(util::fault::configure("trace.buffer.alloc:count=1").ok());
    sim::RunOptions opts;
    opts.engine = engine;
    sim::RunResult r = run_sim(kAlpha, opts);
    EXPECT_EQ(r.status.code(), util::ErrorCode::kResourceExhausted)
        << r.status.message();
  }
}

// The sink can also fail in the run's epilogue: on the last, partial
// chunk, or again on a chunk it refused mid-run (no count limit). That
// failure is classified like a mid-run one, never escapes the run, and
// never replaces an earlier failure.

/// Flushes that reach the sink in an unfaulted kAlpha run: full chunks,
/// then one partial epilogue flush.
size_t alpha_flushes() {
  size_t n = 0;
  EXPECT_TRUE(run_sim(kAlpha, {}, &n).ok());
  const size_t chunk = sim::RunOptions{}.chunk_records;
  EXPECT_NE(n % chunk, 0u) << "the epilogue flush must carry records";
  return (n + chunk - 1) / chunk;
}

TEST_F(FaultInjectionTest, EpilogueSinkFaultsAreClassified) {
  const std::string specs[] = {
      "trace.buffer.alloc:skip=" + std::to_string(alpha_flushes() - 1) +
          ":count=1",
      "trace.buffer.alloc"};
  for (const std::string& spec : specs) {
    for (sim::Engine engine : kEngines) {
      ASSERT_TRUE(util::fault::configure(spec).ok());
      sim::RunOptions opts;
      opts.engine = engine;
      const util::Status st = run_sim(kAlpha, opts).status;
      EXPECT_EQ(st.code(), util::ErrorCode::kResourceExhausted)
          << spec << ": " << st.message();
      EXPECT_EQ(st.phase(), "trace") << spec << ": " << st.message();
    }
  }
}

TEST_F(FaultInjectionTest, EpilogueSinkFaultKeepsTheRunsFirstFailure) {
  // The step guard trips before the first chunk fills, so the epilogue
  // is the only flush, and the armed sink fails it.
  for (sim::Engine engine : kEngines) {
    ASSERT_TRUE(util::fault::configure("trace.buffer.alloc").ok());
    sim::RunOptions opts;
    opts.engine = engine;
    opts.budget.max_steps = 100;
    const util::Status st = run_sim(kAlpha, opts).status;
    EXPECT_EQ(st.code(), util::ErrorCode::kResourceExhausted)
        << st.message();
    EXPECT_EQ(st.phase(), "simulation") << st.message();
  }
}

TEST_F(FaultInjectionTest, SimSlowTripsAWallClockDeadline) {
  // "sim.slow" stalls each chunk flush by param ms, so a generous-looking
  // deadline trips deterministically without a flaky real sleep race.
  for (sim::Engine engine : kEngines) {
    ASSERT_TRUE(util::fault::configure("sim.slow:param=50").ok());
    sim::RunOptions opts;
    opts.engine = engine;
    opts.chunk_records = 64;
    opts.budget.timeout_seconds = 0.01;
    sim::RunResult r = run_sim(kAlpha, opts);
    EXPECT_EQ(r.status.code(), util::ErrorCode::kDeadlineExceeded)
        << r.status.message();
  }
}

TEST_F(FaultInjectionTest, SpmSolveInternalFaultIsIsolatedToOnePoint) {
  driver::SweepDriver sweep(sweep_opts());
  // The site injects kInternal whatever its param, and a solve group
  // gets one attempt: the failure is final, not retried.
  for (const char* spec : {"spm.solve:count=1", "spm.solve:count=1:param=1"}) {
    ASSERT_TRUE(util::fault::configure(spec).ok());
    driver::SweepReport report = sweep.run(jobs());
    // Keyed by solve group: count=1 names group 0 and no other, and
    // asking does not consume it.
    EXPECT_TRUE(util::fault::hit_at("spm.solve", 0).fired) << spec;
    EXPECT_FALSE(util::fault::hit_at("spm.solve", 1).fired) << spec;
    util::fault::reset();

    // 2 jobs × 2 capacities. The fault hit exactly one solve, the first
    // group's — that point carries the internal class, every other point
    // is clean.
    ASSERT_EQ(report.items.size(), 4u) << spec;
    int failed = 0;
    for (const auto& item : report.items) {
      if (item.status.ok()) continue;
      ++failed;
      EXPECT_EQ(item.status.code(), util::ErrorCode::kInternal)
          << spec << ": " << item.status.message();
      EXPECT_EQ(item.program, "alpha") << spec;
      EXPECT_EQ(item.point.capacity_bytes, 1024u) << spec;
    }
    EXPECT_EQ(failed, 1) << spec;
  }
}

TEST_F(FaultInjectionTest, KeyedTriggersNameOrdinalsNotArrivals) {
  ASSERT_TRUE(util::fault::configure("spm.solve:skip=2:count=3:param=4").ok());
  for (uint64_t ordinal : {9u, 4u, 0u, 2u, 5u, 3u, 1u, 4u}) {
    const util::fault::Hit h = util::fault::hit_at("spm.solve", ordinal);
    EXPECT_EQ(h.fired, ordinal >= 2 && ordinal < 5) << ordinal;
    if (h.fired) {
      EXPECT_EQ(h.param, 4u);
    }
  }
  ASSERT_TRUE(util::fault::configure("spm.solve:skip=1").ok());
  EXPECT_FALSE(util::fault::hit_at("spm.solve", 0).fired);
  EXPECT_TRUE(util::fault::hit_at("spm.solve", 1000000).fired);
  ASSERT_TRUE(util::fault::configure("spm.solve:count=0").ok());
  EXPECT_FALSE(util::fault::hit_at("spm.solve", 0).fired);
}

TEST_F(FaultInjectionTest, SpmSolveFaultIsTheSameGroupAtAnyThreadCount) {
  // `foraygen sweep --capacity-sweep 1024,4096 --fault spm.solve:count=1`
  // over the benchsuite: 12 solve groups finishing in whatever order the
  // workers reach them, one of them faulted. The NDJSON is one byte
  // string at 1 and 4 threads, run after run.
  ASSERT_TRUE(util::fault::configure("spm.solve:count=1").ok());
  const auto faulted = [](int threads, sim::Engine engine) {
    driver::SweepOptions o;
    o.threads = threads;
    o.pipeline.run.engine = engine;
    EXPECT_TRUE(o.spec.parse_axis("capacity", "1024,4096").ok());
    std::ostringstream out;
    const util::Status st = driver::SweepDriver(o).run_ndjson(
        driver::SweepDriver::benchsuite_jobs(), out);
    EXPECT_EQ(st.code(), util::ErrorCode::kInternal) << threads;
    return out.str();
  };
  const std::string first = faulted(1, sim::Engine::Bytecode);
  for (int threads : {4, 1, 4, 4, 4}) {
    EXPECT_EQ(faulted(threads, sim::Engine::Bytecode), first)
        << threads << " threads";
  }
  // Profiled on the tree-walking oracle, the same group faults.
  for (int threads : {1, 4}) {
    EXPECT_EQ(faulted(threads, sim::Engine::Ast), first)
        << threads << " threads, ast";
  }
  // Header, 6 x (2 points + a frontier), the aggregate frontier; one
  // point failed: the first group's, jpeg's at 1024 B.
  EXPECT_EQ(std::count(first.begin(), first.end(), '\n'), 20);
  const size_t bad = first.find("\"ok\":false");
  ASSERT_NE(bad, std::string::npos);
  EXPECT_EQ(first.find("\"ok\":false", bad + 1), std::string::npos);
  const size_t row = first.rfind('\n', bad) + 1;
  const std::string head =
      "{\"kind\":\"point\",\"program\":\"jpeg\",\"key\":{\"job\":0,"
      "\"capacity\":0,\"energy\":0,";
  EXPECT_EQ(first.compare(row, head.size(), head), 0)
      << first.substr(row, head.size());
  EXPECT_NE(first.find("injected Phase II solver failure"), std::string::npos);
}

TEST_F(FaultInjectionTest, SinkIoFaultLeavesAResumableJournal) {
  for (sim::Engine engine : kEngines) {
    driver::SweepOptions o = sweep_opts();
    o.pipeline.run.engine = engine;
    driver::SweepDriver sweep(o);
    std::ostringstream baseline;
    ASSERT_TRUE(sweep.run_ndjson(jobs(), baseline).ok());

    // Fail the sink after the first job's block: the partial journal holds
    // the header plus whole job blocks only — a valid checkpoint.
    ASSERT_TRUE(util::fault::configure("sweep.sink.io:skip=1:count=1").ok());
    std::ostringstream partial;
    util::Status st = sweep.run_ndjson(jobs(), partial);
    util::fault::reset();
    EXPECT_EQ(st.code(), util::ErrorCode::kIoError) << st.message();
    EXPECT_LT(partial.str().size(), baseline.str().size());
    // The partial journal is a byte-prefix of the uninterrupted run.
    EXPECT_EQ(baseline.str().compare(0, partial.str().size(), partial.str()),
              0);

    driver::SweepCheckpoint checkpoint;
    ASSERT_TRUE(sweep.parse_resume(partial.str(), &checkpoint).ok());
    EXPECT_FALSE(checkpoint.points.empty());

    std::ostringstream resumed;
    st = sweep.run_ndjson(jobs(), resumed, &checkpoint);
    EXPECT_TRUE(st.ok()) << st.message();
    EXPECT_EQ(resumed.str(), baseline.str());
  }
}

TEST_F(FaultInjectionTest, SinkIoBeforeAnyBlockStillResumes) {
  driver::SweepDriver sweep(sweep_opts());
  std::ostringstream baseline;
  ASSERT_TRUE(sweep.run_ndjson(jobs(), baseline).ok());

  ASSERT_TRUE(util::fault::configure("sweep.sink.io:count=1").ok());
  std::ostringstream partial;
  util::Status st = sweep.run_ndjson(jobs(), partial);
  util::fault::reset();
  EXPECT_EQ(st.code(), util::ErrorCode::kIoError);

  // Header-only journal: everything re-runs, output still identical.
  driver::SweepCheckpoint checkpoint;
  ASSERT_TRUE(sweep.parse_resume(partial.str(), &checkpoint).ok());
  std::ostringstream resumed;
  st = sweep.run_ndjson(jobs(), resumed, &checkpoint);
  EXPECT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(resumed.str(), baseline.str());
}

// -- resume validation --------------------------------------------------------

TEST_F(FaultInjectionTest, ResumeRejectsAForeignJournal) {
  driver::SweepDriver sweep(sweep_opts());
  std::ostringstream journal;
  ASSERT_TRUE(sweep.run_ndjson(jobs(), journal).ok());
  driver::SweepCheckpoint checkpoint;
  ASSERT_TRUE(sweep.parse_resume(journal.str(), &checkpoint).ok());

  // A driver with a different grid must refuse to stitch that journal in.
  driver::SweepOptions other = sweep_opts();
  ASSERT_TRUE(other.spec.parse_axis("capacity", "512,1024").ok());
  driver::SweepDriver sweep2(other);
  std::ostringstream out;
  util::Status st = sweep2.run_ndjson(jobs(), out, &checkpoint);
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput) << st.message();
}

/// `journal` with the value of the first `"field":` in its first point
/// row (up to the next ',' or '}') replaced by `value`.
std::string with_point_field(const std::string& journal,
                             const std::string& field,
                             const std::string& value) {
  const size_t row = journal.find("{\"kind\":\"point\"");
  const std::string needle = "\"" + field + "\":";
  const size_t at = journal.find(needle, row);
  EXPECT_NE(row, std::string::npos);
  EXPECT_LT(at, journal.find('\n', row)) << field;
  const size_t begin = at + needle.size();
  const size_t end = journal.find_first_of(",}", begin);
  std::string out = journal;
  out.replace(begin, end - begin, value);
  return out;
}

TEST_F(FaultInjectionTest, ParseResumeRejectsGarbage) {
  driver::SweepDriver sweep(sweep_opts());
  driver::SweepCheckpoint checkpoint;
  util::Status st = sweep.parse_resume("not json at all\n", &checkpoint);
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput) << st.message();

  // A well-formed journal with one point row edited: a key index that is
  // not a whole number or far out of range, a negative byte count, and a
  // row naming another job's program. Each is refused with its line.
  std::ostringstream journal;
  ASSERT_TRUE(sweep.run_ndjson(jobs(), journal).ok());
  ASSERT_TRUE(sweep.parse_resume(journal.str(), &checkpoint).ok());
  for (const auto& [field, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"capacity", "0.5"},
           {"job", "1e300"},
           {"bytes_used", "-7"},
           {"program", "\"beta\""}}) {
    const std::string bad = with_point_field(journal.str(), field, value);
    ASSERT_NE(bad, journal.str()) << field;
    st = sweep.parse_resume(bad, &checkpoint);
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput) << field;
    EXPECT_EQ(st.phase(), "sweep-resume") << field;
    EXPECT_FALSE(st.diags().all().empty()) << field;
    if (!st.diags().all().empty()) {
      EXPECT_EQ(st.diags().all().front().line, 2) << field;
    }
  }

  // Journals whose shape is wrong: each is refused with its line and
  // reason.
  const std::string text = journal.str();
  const std::string header = text.substr(0, text.find('\n'));
  const size_t point_at = text.find("{\"kind\":\"point\"");
  const std::string point =
      text.substr(point_at, text.find('\n', point_at) - point_at);
  std::string no_ok = point;
  no_ok.replace(no_ok.find("\"ok\":"), 5, "\"okay\":");
  struct Case {
    std::string journal;
    int line;
    std::string reason;
  };
  for (const Case& c : std::vector<Case>{
           {header + "\n{\"kind\":\n" + point + "\n", 2,
            "corrupt journal line"},
           {header + "\n{\"row\":1}\n", 2, "journal line has no kind"},
           {header + "\n" + header + "\n", 2,
            "journal has more than one header line"},
           {"{\"kind\":\"sweep\"}\n", 1,
            "journal header has no programs array"},
           {"{\"kind\":\"sweep\",\"programs\":[\"alpha\",7]}\n", 1,
            "journal header programs must be strings"},
           {point + "\n" + header + "\n", 1,
            "journal point line before the header"},
           {header + "\n{\"kind\":\"point\",\"key\":3}\n", 2,
            "point line has no key object"},
           {header + "\n" + no_ok + "\n", 2, "point line has no ok flag"}}) {
    st = sweep.parse_resume(c.journal, &checkpoint);
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput) << c.reason;
    EXPECT_NE(st.message().find(c.reason), std::string::npos)
        << st.message();
    ASSERT_EQ(st.diags().all().size(), 1u) << c.reason;
    EXPECT_EQ(st.diags().all().front().line, c.line) << c.reason;
  }
}

TEST_F(FaultInjectionTest, ParseResumeToleratesATornTailLine) {
  driver::SweepDriver sweep(sweep_opts());
  std::ostringstream journal;
  ASSERT_TRUE(sweep.run_ndjson(jobs(), journal).ok());
  // Chop the journal mid-line — the crash shape — and it still parses;
  // the torn line is simply not cached.
  std::string torn = journal.str().substr(0, journal.str().size() - 7);
  ASSERT_FALSE(torn.empty());
  ASSERT_NE(torn.back(), '\n');
  driver::SweepCheckpoint checkpoint;
  util::Status st = sweep.parse_resume(torn, &checkpoint);
  EXPECT_TRUE(st.ok()) << st.message();
}

}  // namespace
}  // namespace foray
