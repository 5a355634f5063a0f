// The differential harness that locks the bytecode VM to the
// tree-walking reference interpreter. Every engine change is gated
// here: the VM runs the full benchsuite plus 200 seeded generated
// programs (100 affine-by-construction, 100 free-form stress) against
// the AST oracle and must agree *bit for bit* on the trace record
// stream, the program output, the exit code, the access count, and an
// FNV digest of the final simulated memory image. Option variations
// (trace filters, chunk sizes), faulting programs, and budget trips at
// chunk boundaries are covered as well, so the engines cannot drift
// even in the corners.
#include <gtest/gtest.h>

#include <cstring>

#include "benchsuite/generator.h"
#include "benchsuite/suite.h"
#include "instrument/annotator.h"
#include "minic/parser.h"
#include "sim/interpreter.h"
#include "trace/io.h"
#include "trace/sink.h"

namespace foray::sim {
namespace {

struct Captured {
  RunResult run;
  std::vector<trace::Record> records;
};

Captured run_engine(const minic::Program& prog, Engine engine,
                    RunOptions opts = {}) {
  opts.engine = engine;
  opts.digest_memory = true;
  trace::VectorSink sink;
  Captured c;
  c.run = run_program(prog, &sink, opts);
  c.records = sink.take();
  return c;
}

/// Parses + checks + annotates, failing the test on front-end errors.
std::unique_ptr<minic::Program> prepare(const std::string& source) {
  util::DiagList diags;
  auto prog = minic::parse_and_check(source, &diags);
  EXPECT_NE(prog, nullptr) << diags.str() << "\nprogram:\n" << source;
  if (prog) instrument::annotate_loops(prog.get());
  return prog;
}

/// The core assertion: everything observable must match exactly.
void expect_identical(const Captured& ref, const Captured& got,
                      const std::string& label) {
  EXPECT_EQ(ref.run.ok(), got.run.ok())
      << label << "\nast: " << ref.run.error()
      << "\nbytecode: " << got.run.error();
  EXPECT_EQ(ref.run.exit_code, got.run.exit_code) << label;
  EXPECT_EQ(ref.run.output, got.run.output) << label;
  EXPECT_EQ(ref.run.accesses, got.run.accesses) << label;
  EXPECT_EQ(ref.run.memory_digest, got.run.memory_digest) << label;

  ASSERT_EQ(ref.records.size(), got.records.size()) << label;
  if (ref.records.empty()) return;
  if (std::memcmp(ref.records.data(), got.records.data(),
                  ref.records.size() * sizeof(trace::Record)) == 0) {
    return;
  }
  // Byte comparison failed: locate the first divergence for diagnosis.
  for (size_t i = 0; i < ref.records.size(); ++i) {
    ASSERT_TRUE(ref.records[i] == got.records[i])
        << label << ": first divergence at record " << i
        << "\nast:      " << trace::record_to_text(ref.records[i])
        << "\nbytecode: " << trace::record_to_text(got.records[i]);
  }
  FAIL() << label << ": records memcmp differs but no record compares "
            "unequal (padding bytes leaked into the stream?)";
}

void expect_engines_agree(const std::string& source,
                          const std::string& label,
                          const RunOptions& opts = {}) {
  auto prog = prepare(source);
  ASSERT_NE(prog, nullptr);
  Captured ast = run_engine(*prog, Engine::Ast, opts);
  // Generated programs terminate by construction; a step-limit or
  // memory fault here is a generator bug, which would otherwise hide a
  // divergence (the engines count steps differently, so a limit fault
  // truncates their traces at different points).
  ASSERT_TRUE(ast.run.ok()) << label << "\n" << ast.run.error();
  expect_identical(ast, run_engine(*prog, Engine::Bytecode, opts), label);
}

// -- the full benchsuite -----------------------------------------------------

TEST(EngineEquivalence, FullBenchsuiteBitIdentical) {
  for (const auto& bench : benchsuite::all_benchmarks()) {
    auto prog = prepare(bench.source);
    ASSERT_NE(prog, nullptr) << bench.name;
    Captured ast = run_engine(*prog, Engine::Ast);
    ASSERT_TRUE(ast.run.ok()) << bench.name << ": " << ast.run.error();
    EXPECT_GT(ast.records.size(), 1000u) << bench.name;
    expect_identical(ast, run_engine(*prog, Engine::Bytecode), bench.name);
  }
}

// -- 200 seeded generated programs -------------------------------------------

class AffineSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AffineSeeds, BitIdentical) {
  // 10 affine programs per parameterized chunk -> 100 programs total.
  for (uint64_t k = 0; k < 10; ++k) {
    benchsuite::GeneratorOptions gopts;
    gopts.seed = GetParam() * 10 + k + 1;
    gopts.num_nests = 4;
    auto gen = benchsuite::generate_affine_program(gopts);
    expect_engines_agree(gen.source,
                         "affine seed " + std::to_string(gopts.seed) +
                             "\n" + gen.source);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffineSeeds, ::testing::Range<uint64_t>(0, 10),
                         [](const ::testing::TestParamInfo<uint64_t>& i) {
                           return "chunk" + std::to_string(i.param);
                         });

class StressSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StressSeeds, BitIdentical) {
  // 10 stress programs per chunk -> 100 programs total, each covering
  // short-circuit side effects, ternaries, compound assignment,
  // inc/dec, negative strides, do-while, recursion, intrinsics.
  for (uint64_t k = 0; k < 10; ++k) {
    benchsuite::StressOptions sopts;
    sopts.seed = GetParam() * 10 + k + 1;
    std::string source = benchsuite::generate_stress_program(sopts);
    expect_engines_agree(source, "stress seed " +
                                     std::to_string(sopts.seed) + "\n" +
                                     source);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSeeds, ::testing::Range<uint64_t>(0, 10),
                         [](const ::testing::TestParamInfo<uint64_t>& i) {
                           return "chunk" + std::to_string(i.param);
                         });

TEST(EngineEquivalence, StressProgramsActuallyRun) {
  // Guard against the stress generator degenerating into trivial
  // programs: they must execute work and usually produce output.
  uint64_t total_records = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    benchsuite::StressOptions sopts;
    sopts.seed = seed;
    auto prog = prepare(benchsuite::generate_stress_program(sopts));
    ASSERT_NE(prog, nullptr);
    Captured bc = run_engine(*prog, Engine::Bytecode);
    ASSERT_TRUE(bc.run.ok()) << bc.run.error();
    EXPECT_FALSE(bc.run.output.empty());
    total_records += bc.records.size();
  }
  EXPECT_GT(total_records / 20, 200u) << "stress programs are too small";
}

// -- option variations -------------------------------------------------------

TEST(EngineEquivalence, OptionVariationsStayIdentical) {
  benchsuite::StressOptions sopts;
  sopts.seed = 77;
  const std::string source = benchsuite::generate_stress_program(sopts);

  RunOptions base;
  std::vector<std::pair<std::string, RunOptions>> variants;
  variants.emplace_back("defaults", base);
  RunOptions v = base;
  v.replay_view = true;
  variants.emplace_back("replay view", v);
  v = base;
  v.chunk_records = 1;
  variants.emplace_back("chunk=1", v);
  v = base;
  v.chunk_records = 7;
  variants.emplace_back("chunk=7", v);
  v = base;
  v.rng_seed = 99;
  variants.emplace_back("rng seed 99", v);

  for (const auto& [label, opts] : variants) {
    expect_engines_agree(source, "variant: " + label, opts);
  }
}

// -- faults ------------------------------------------------------------------

TEST(EngineEquivalence, FaultingProgramsAgreeOnTracePrefixAndMessage) {
  const char* faulting[] = {
      // Division / modulo by zero after some traced work.
      "int a[8];\n"
      "int main(void) { for (int i = 0; i < 8; i++) a[i] = i; "
      "int z = a[0]; return a[5] / z; }",
      "int a[8];\n"
      "int main(void) { for (int i = 0; i < 8; i++) a[i] = i + 1; "
      "return a[5] % (a[3] - 4); }",
      // Out-of-bounds access faults mid-trace.
      "int a[4];\n"
      "int main(void) { int *p = a; return *(p + 100000000); }",
      // Assert failure.
      "int main(void) { int n = 3; assert(n > 5); return n; }",
  };
  for (const char* src : faulting) {
    auto prog = prepare(src);
    ASSERT_NE(prog, nullptr);
    Captured ast = run_engine(*prog, Engine::Ast);
    ASSERT_FALSE(ast.run.ok()) << src;
    Captured bc = run_engine(*prog, Engine::Bytecode);
    ASSERT_FALSE(bc.run.ok()) << src;
    // The diagnostic text must match (line attribution may differ:
    // the walker reports the innermost node, ops report their site).
    EXPECT_EQ(ast.run.status.diags().all().front().message,
              bc.run.status.diags().all().front().message)
        << src;
    // Everything up to the fault is still delivered, identically.
    EXPECT_EQ(ast.run.exit_code, bc.run.exit_code) << src;
    EXPECT_EQ(ast.run.output, bc.run.output) << src;
    ASSERT_EQ(ast.records.size(), bc.records.size()) << src;
    for (size_t i = 0; i < ast.records.size(); ++i) {
      ASSERT_TRUE(ast.records[i] == bc.records[i]) << src << " at " << i;
    }
  }
}

TEST(EngineEquivalence, ExitIntrinsicAgrees) {
  expect_engines_agree(
      "int a[4];\n"
      "int main(void) { a[0] = 7; printf(\"before\\n\"); exit(42); "
      "printf(\"after\\n\"); return 0; }",
      "exit intrinsic");
}

// -- budgets -----------------------------------------------------------------

TEST(EngineEquivalence, RecordBudgetTripsAtChunkBoundariesAgree) {
  // Record budgets are checked after chunk delivery, so the truncated
  // stream depends only on the record sequence — which both engines
  // must produce identically. Trip exactly at a chunk boundary and
  // mid-chunk, on two chunk sizes.
  benchsuite::StressOptions sopts;
  sopts.seed = 13;
  const std::string source = benchsuite::generate_stress_program(sopts);
  auto prog = prepare(source);
  ASSERT_NE(prog, nullptr);
  const struct {
    size_t chunk;
    uint64_t max_records;
  } cases[] = {{64, 128}, {64, 100}, {7, 21}, {7, 20}};
  for (const auto& c : cases) {
    RunOptions opts;
    opts.chunk_records = c.chunk;
    opts.budget.max_records = c.max_records;
    const std::string label = "chunk=" + std::to_string(c.chunk) +
                              " max_records=" + std::to_string(c.max_records);
    Captured ast = run_engine(*prog, Engine::Ast, opts);
    ASSERT_FALSE(ast.run.ok()) << label;
    EXPECT_EQ(ast.run.status.code(), util::ErrorCode::kResourceExhausted)
        << label;
    Captured bc = run_engine(*prog, Engine::Bytecode, opts);
    ASSERT_FALSE(bc.run.ok()) << label;
    EXPECT_EQ(bc.run.status.code(), util::ErrorCode::kResourceExhausted)
        << label;
    ASSERT_EQ(ast.records.size(), bc.records.size()) << label;
    EXPECT_EQ(0, std::memcmp(ast.records.data(), bc.records.data(),
                             ast.records.size() * sizeof(trace::Record)))
        << label;
    EXPECT_EQ(ast.run.output, bc.run.output) << label;
  }
}

TEST(EngineEquivalence, StepLimitFaultsAreExactOnBytecode) {
  // The ast engine counts evaluation steps differently, so this pins
  // the VM on its own: a limit below the program's step total faults on
  // exactly step max + 1 with a prefix of the full trace, and a limit
  // at the total runs to completion unchanged.
  benchsuite::StressOptions sopts;
  sopts.seed = 5;
  auto prog = prepare(benchsuite::generate_stress_program(sopts));
  ASSERT_NE(prog, nullptr);
  Captured full = run_engine(*prog, Engine::Bytecode);
  ASSERT_TRUE(full.run.ok()) << full.run.error();
  ASSERT_GT(full.run.steps, 600u);
  std::vector<uint64_t> limits = {1,   2,   3,   4,   5,   50,  51,
                                  52,  53,  54,  299, 300, 301, 500,
                                  full.run.steps - 1, full.run.steps};
  for (uint64_t max_steps : limits) {
    RunOptions opts;
    opts.budget.max_steps = max_steps;
    const std::string label = "max_steps=" + std::to_string(max_steps);
    Captured bc = run_engine(*prog, Engine::Bytecode, opts);
    if (max_steps >= full.run.steps) {
      ASSERT_TRUE(bc.run.ok()) << label << ": " << bc.run.error();
      EXPECT_EQ(bc.run.steps, full.run.steps) << label;
      EXPECT_EQ(bc.run.output, full.run.output) << label;
      EXPECT_EQ(bc.run.memory_digest, full.run.memory_digest) << label;
      EXPECT_EQ(bc.records.size(), full.records.size()) << label;
      continue;
    }
    ASSERT_FALSE(bc.run.ok()) << label;
    EXPECT_EQ(bc.run.status.code(), util::ErrorCode::kResourceExhausted)
        << label;
    EXPECT_EQ(bc.run.steps, max_steps + 1) << label;
    ASSERT_LE(bc.records.size(), full.records.size()) << label;
    if (!bc.records.empty()) {
      EXPECT_EQ(0, std::memcmp(bc.records.data(), full.records.data(),
                               bc.records.size() * sizeof(trace::Record)))
          << label;
    }
  }
}

}  // namespace
}  // namespace foray::sim
