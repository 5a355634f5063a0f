// Golden-trace regression tests.
//
// Checked-in binary fixtures (tests/golden/<kernel>.trace) hold the
// first 4096 trace records of three benchsuite kernels, serialized with
// trace::io's binary encoding. Both execution engines must reproduce
// the fixtures byte for byte — this pins the concrete record stream
// (instruction addresses, data addresses, sizes, kinds, checkpoint
// placement) against *any* regression, not just cross-engine drift:
// a change to memory layout, node-id assignment, or emission order
// fails here even if both engines change in lockstep.
//
// Regenerate after an intentional trace-format change with:
//   FORAY_UPDATE_GOLDEN=1 ./golden_trace_test
// (the fixtures are written from the AST reference engine; the same run
// then re-asserts that the bytecode engine matches them).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "benchsuite/suite.h"
#include "instrument/annotator.h"
#include "minic/parser.h"
#include "sim/interpreter.h"
#include "trace/io.h"
#include "trace/sink.h"

namespace foray {
namespace {

constexpr size_t kGoldenRecords = 4096;
const char* const kKernels[] = {"adpcm", "gsm", "jpeg"};

std::string fixture_path(const std::string& kernel) {
  return std::string(FORAY_SOURCE_DIR) + "/tests/golden/" + kernel +
         ".trace";
}

/// Runs `kernel` on the given engine and returns its first 4096 records
/// serialized in the trace::io binary encoding.
std::string golden_bytes(const std::string& kernel, sim::Engine engine) {
  util::DiagList diags;
  auto prog =
      minic::parse_and_check(benchsuite::get_benchmark(kernel).source,
                             &diags);
  EXPECT_NE(prog, nullptr) << diags.str();
  if (!prog) return "";
  instrument::annotate_loops(prog.get());
  sim::RunOptions opts;
  opts.engine = engine;
  trace::VectorSink sink;
  auto run = sim::run_program(*prog, &sink, opts);
  EXPECT_TRUE(run.ok()) << run.error();
  auto records = sink.take();
  EXPECT_GE(records.size(), kGoldenRecords) << kernel;
  std::ostringstream os;
  trace::write_binary(os, records.data(),
                      std::min(records.size(), kGoldenRecords));
  return os.str();
}

std::string read_fixture(const std::string& kernel) {
  std::ifstream in(fixture_path(kernel), std::ios::binary);
  if (!in) return "";
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool update_requested() {
  return std::getenv("FORAY_UPDATE_GOLDEN") != nullptr;
}

TEST(GoldenTrace, BothEnginesReproduceTheFixturesByteForByte) {
  for (const char* kernel : kKernels) {
    const std::string ast = golden_bytes(kernel, sim::Engine::Ast);
    ASSERT_FALSE(ast.empty()) << kernel;

    if (update_requested()) {
      std::ofstream out(fixture_path(kernel), std::ios::binary);
      ASSERT_TRUE(out.good()) << "cannot write " << fixture_path(kernel);
      out << ast;
    }

    const std::string fixture = read_fixture(kernel);
    ASSERT_FALSE(fixture.empty())
        << "missing fixture " << fixture_path(kernel)
        << " — regenerate with FORAY_UPDATE_GOLDEN=1";
    EXPECT_EQ(fixture.size(), ast.size()) << kernel;
    EXPECT_TRUE(fixture == ast)
        << kernel << ": AST engine trace deviates from the checked-in "
        << "golden fixture";

    const std::string bc = golden_bytes(kernel, sim::Engine::Bytecode);
    EXPECT_TRUE(fixture == bc)
        << kernel << ": bytecode engine trace deviates from the "
        << "checked-in golden fixture";
  }
}

TEST(GoldenTrace, FixturesRoundTripThroughTraceIo) {
  for (const char* kernel : kKernels) {
    const std::string fixture = read_fixture(kernel);
    ASSERT_FALSE(fixture.empty()) << fixture_path(kernel);
    std::istringstream is(fixture);
    std::vector<trace::Record> records;
    util::Status st = trace::read_binary(is, &records);
    ASSERT_TRUE(st.ok()) << st.message();
    ASSERT_EQ(records.size(), kGoldenRecords) << kernel;
    std::ostringstream os;
    trace::write_binary(os, records.data(), records.size());
    EXPECT_TRUE(os.str() == fixture) << kernel;
  }
}

}  // namespace
}  // namespace foray
