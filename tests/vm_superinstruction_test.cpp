// The bytecode VM's int-typed ops and superinstructions (sim/bytecode.h)
// change how fast a step runs, never what a run does or how many steps
// it takes. Step counts are a contract (--max-steps, serve budgets and
// the static checker's bounds are all in VM steps), so this test holds
// tests/programs/fused_ops.mc — which runs every typed op and every
// superinstruction, next to char, short, float and pointer operands that
// must stay generic — to goldens generated before either existed:
//   * a fault inside a component of a fused sequence has the AST
//     engine's status, message, line and trace, and the golden step
//     count (tests/golden/fused_ops.fault_steps);
//   * under every step limit from 1 to the program's total, the run
//     faults on step limit + 1 with the golden number of records
//     delivered and the golden fault line
//     (tests/golden/fused_ops.step_limits).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "instrument/annotator.h"
#include "minic/parser.h"
#include "sim/bytecode.h"
#include "sim/interp_impl.h"
#include "sim/vm.h"
#include "trace/sink.h"

namespace foray::sim {
namespace {

std::string read_source(const std::string& rel) {
  std::ifstream in(std::string(FORAY_SOURCE_DIR) + "/" + rel);
  EXPECT_TRUE(in.good()) << rel;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// fused_ops.mc with its fault selector set to `fault`.
std::unique_ptr<minic::Program> program(int fault) {
  std::string src = read_source("tests/programs/fused_ops.mc");
  const std::string knob = "int fault = 0;";
  const size_t at = src.find(knob);
  EXPECT_NE(at, std::string::npos);
  src.replace(at, knob.size(),
              "int fault = " + std::to_string(fault) + ";");
  util::DiagList diags;
  auto prog = minic::parse_and_check(src, &diags);
  EXPECT_NE(prog, nullptr) << diags.str();
  if (prog) instrument::annotate_loops(prog.get());
  return prog;
}

/// Rows of a golden file, '#' lines skipped.
std::vector<std::vector<uint64_t>> read_golden(const std::string& file) {
  std::istringstream in(read_source("tests/golden/" + file));
  std::vector<std::vector<uint64_t>> rows;
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::vector<uint64_t> row;
    for (uint64_t v; fields >> v;) row.push_back(v);
    rows.push_back(row);
  }
  return rows;
}

struct Captured {
  RunResult run;
  std::vector<trace::Record> records;
};

Captured run_engine(const minic::Program& prog, Engine engine) {
  RunOptions opts;
  opts.engine = engine;
  trace::VectorSink sink;
  Captured c;
  c.run = run_program_with(prog, &sink, opts);
  c.records = sink.take();
  return c;
}

bool same_records(const std::vector<trace::Record>& a,
                  const std::vector<trace::Record>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(trace::Record)) == 0);
}

constexpr Op kIntTyped[] = {
    Op::LoadGlobalI,   Op::LoadLocalI, Op::IndexLoadI,  Op::IndexStoreI,
    Op::CompoundLoadI, Op::StoreBinI,  Op::IncDecLocalI,
#define INT_BINOP(name, ...) Op::name,
    FORAY_VM_INT_BINOPS(INT_BINOP)
#undef INT_BINOP
};

/// Superinstruction -> its first component; every other op maps to itself.
std::vector<Op> first_components() {
  std::vector<Op> first(kNumOps);
  for (size_t i = 0; i < kNumOps; ++i) first[i] = static_cast<Op>(i);
#define FIRST(name, a, ...) first[static_cast<size_t>(Op::name)] = Op::a;
  FORAY_VM_FUSED2(FIRST)
  FORAY_VM_FUSED3(FIRST)
  FORAY_VM_FUSED4(FIRST)
#undef FIRST
  return first;
}

TEST(VmSuperinstructions, ProgramCoversEveryTypedAndFusedOp) {
  auto prog = program(0);
  ASSERT_NE(prog, nullptr);
  const CompiledProgram code = compile_program(*prog);
  const std::vector<Op> first = first_components();
  std::set<Op> ops, unfused;
  for (const Insn& in : code.code) {
    ops.insert(in.op);
    unfused.insert(first[static_cast<size_t>(in.op)]);
  }
  for (Op op : kIntTyped) {
    EXPECT_TRUE(unfused.count(op)) << "int-typed op " << static_cast<int>(op);
  }
#define PRESENT(name, ...) \
  EXPECT_TRUE(ops.count(Op::name)) << "superinstruction " #name;
  FORAY_VM_FUSED2(PRESENT)
  FORAY_VM_FUSED3(PRESENT)
  FORAY_VM_FUSED4(PRESENT)
#undef PRESENT
  // The char, short, float and pointer operands keep the generic ops,
  // and a generic op with an int-typed form never has type int.
  const minic::Type int_type = minic::make_type(minic::BaseType::Int);
  for (Op op : {Op::LoadGlobal, Op::LoadLocal, Op::IndexLoad, Op::IndexStore,
                Op::CompoundLoad, Op::StoreBin, Op::IncDecLocal,
                Op::Binary}) {
    EXPECT_TRUE(unfused.count(op)) << "generic op " << static_cast<int>(op);
  }
  for (const Insn& in : code.code) {
    const Op op = first[static_cast<size_t>(in.op)];
    const bool typed = std::find(std::begin(kIntTyped), std::end(kIntTyped),
                                 op) != std::end(kIntTyped);
    const bool has_typed_form =
        op == Op::LoadGlobal || op == Op::LoadLocal || op == Op::IndexLoad ||
        op == Op::IndexStore || op == Op::CompoundLoad ||
        op == Op::IncDecLocal;
    if (typed || has_typed_form) {
      EXPECT_EQ(in.type() == int_type, typed) << static_cast<int>(op);
    }
  }
  // And the whole run matches the AST engine.
  const Captured ast = run_engine(*prog, Engine::Ast);
  const Captured bc = run_engine(*prog, Engine::Bytecode);
  ASSERT_TRUE(bc.run.ok()) << bc.run.error();
  EXPECT_EQ(bc.run.output, ast.run.output);
  EXPECT_EQ(bc.run.accesses, ast.run.accesses);
  EXPECT_TRUE(same_records(bc.records, ast.records));
}

TEST(VmSuperinstructions, FaultsInsideComponentsAreExact) {
  const auto golden = read_golden("fused_ops.fault_steps");
  ASSERT_EQ(golden.size(), 10u);
  for (const auto& row : golden) {
    const int fault = static_cast<int>(row.at(0));
    const std::string label = "fault " + std::to_string(fault);
    auto prog = program(fault);
    ASSERT_NE(prog, nullptr);
    const Captured ast = run_engine(*prog, Engine::Ast);
    const Captured bc = run_engine(*prog, Engine::Bytecode);
    ASSERT_FALSE(ast.run.ok()) << label;
    ASSERT_FALSE(bc.run.ok()) << label;
    EXPECT_EQ(bc.run.status.code(), ast.run.status.code()) << label;
    EXPECT_EQ(bc.run.error(), ast.run.error()) << label;
    EXPECT_EQ(bc.run.error_line(), ast.run.error_line()) << label;
    EXPECT_TRUE(same_records(bc.records, ast.records)) << label;
    EXPECT_EQ(bc.run.steps, row.at(1)) << label;
  }
}

TEST(VmSuperinstructions, EveryStepLimitIsExact) {
  const auto golden = read_golden("fused_ops.step_limits");
  auto prog = program(0);
  ASSERT_NE(prog, nullptr);
  const CompiledProgram code = compile_program(*prog);
  trace::VectorSink unlimited;
  const RunResult full = run_compiled_with(code, &unlimited);
  ASSERT_TRUE(full.ok()) << full.error();
  ASSERT_EQ(golden.size(), full.steps);
  for (const auto& row : golden) {
    const uint64_t max_steps = row.at(0);
    const std::string label = "max_steps=" + std::to_string(max_steps);
    RunOptions opts;
    opts.budget.max_steps = max_steps;
    trace::VectorSink sink;
    const RunResult run = run_compiled_with(code, &sink, opts);
    EXPECT_EQ(sink.size(), row.at(1)) << label;
    if (max_steps == full.steps) {
      EXPECT_TRUE(run.ok()) << label << ": " << run.error();
      EXPECT_EQ(run.steps, full.steps) << label;
      continue;
    }
    ASSERT_FALSE(run.ok()) << label;
    EXPECT_EQ(run.status.code(), util::ErrorCode::kResourceExhausted)
        << label;
    EXPECT_EQ(run.steps, max_steps + 1) << label;
    EXPECT_EQ(static_cast<uint64_t>(run.error_line()), row.at(2)) << label;
  }
}

}  // namespace
}  // namespace foray::sim
