// The tree-walking interpreter as the bytecode VM's oracle. Every
// product surface runs the VM (sim::RunOptions::engine defaults to
// Engine::Bytecode); tests reach the tree walker by asking for it. The
// helpers here run what a test checks on both engines and expect the
// same observable result, so every test written against the VM holds
// the oracle to it as well.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "foray/pipeline.h"
#include "minic/ast.h"
#include "sim/interpreter.h"
#include "trace/io.h"
#include "trace/sink.h"

namespace foray::oracle {

/// Both engines, the VM first, for tests that loop over them.
inline constexpr sim::Engine kEngines[] = {sim::Engine::Bytecode,
                                           sim::Engine::Ast};

inline const char* engine_name(sim::Engine e) {
  return e == sim::Engine::Bytecode ? "bytecode" : "ast";
}

/// One run of a program: the simulator's result and every record.
struct Run {
  sim::RunResult result;
  std::vector<trace::Record> records;
};

inline Run run_on(const minic::Program& prog, sim::Engine engine,
                  sim::RunOptions opts = {}) {
  opts.engine = engine;
  trace::VectorSink sink;
  Run r;
  r.result = sim::run_program(prog, &sink, opts);
  r.records = sink.take();
  return r;
}

/// The engines count steps differently, so a run a budget stopped ends
/// at a different place on each: only its error class is compared.
inline bool budget_stopped(const sim::RunResult& r) {
  const util::ErrorCode c = r.status.code();
  return c == util::ErrorCode::kResourceExhausted ||
         c == util::ErrorCode::kDeadlineExceeded ||
         c == util::ErrorCode::kCancelled;
}

/// Expects the oracle's run `ast` to match the VM's `vm`: status,
/// exit code, output, access count and every record. Steps are the
/// VM's own measure and are not compared.
inline void expect_same_run(const sim::RunResult& vm,
                            const sim::RunResult& ast) {
  ASSERT_EQ(vm.status.code(), ast.status.code())
      << "bytecode: " << vm.error() << "\nast: " << ast.error();
  if (budget_stopped(vm)) return;
  EXPECT_EQ(vm.error(), ast.error());
  EXPECT_EQ(vm.exit_code, ast.exit_code);
  EXPECT_EQ(vm.output, ast.output);
  EXPECT_EQ(vm.accesses, ast.accesses);
  EXPECT_EQ(vm.elision_stopped, ast.elision_stopped);
}

inline void expect_same_run(const Run& vm, const Run& ast) {
  expect_same_run(vm.result, ast.result);
  if (budget_stopped(vm.result)) return;
  ASSERT_EQ(vm.records.size(), ast.records.size());
  for (size_t i = 0; i < vm.records.size(); ++i) {
    ASSERT_TRUE(vm.records[i] == ast.records[i])
        << "first divergence at record " << i
        << "\nbytecode: " << trace::record_to_text(vm.records[i])
        << "\nast:      " << trace::record_to_text(ast.records[i]);
  }
}

/// Runs `prog` on the VM and on the oracle under `opts` (whatever its
/// engine), expects the same run, and returns the VM's.
inline Run run_both(const minic::Program& prog,
                    const sim::RunOptions& opts = {}) {
  Run vm = run_on(prog, sim::Engine::Bytecode, opts);
  const Run ast = run_on(prog, sim::Engine::Ast, opts);
  SCOPED_TRACE("the tree-walking oracle against the VM");
  expect_same_run(vm, ast);
  return vm;
}

/// core::run_pipeline on the VM and on the oracle under `opts` (whatever
/// its engine): expects the same status, run, trace volume and model in
/// both renderings, and returns the VM's result.
inline core::PipelineResult run_pipeline(
    std::string_view source, const core::PipelineOptions& opts = {}) {
  core::PipelineOptions on = opts;
  on.run.engine = sim::Engine::Bytecode;
  core::PipelineResult vm = core::run_pipeline(source, on);
  on.run.engine = sim::Engine::Ast;
  const core::PipelineResult ast = core::run_pipeline(source, on);
  SCOPED_TRACE("the tree-walking oracle against the VM");
  EXPECT_EQ(vm.status.code(), ast.status.code())
      << "bytecode: " << vm.error() << "\nast: " << ast.error();
  expect_same_run(vm.run, ast.run);
  if (!budget_stopped(vm.run)) {
    EXPECT_EQ(vm.error(), ast.error());
    EXPECT_EQ(vm.trace_records, ast.trace_records);
    EXPECT_EQ(vm.model_built, ast.model_built);
    EXPECT_EQ(vm.foray_source, ast.foray_source);
    EXPECT_EQ(vm.foray_paper_style, ast.foray_paper_style);
  }
  return vm;
}

}  // namespace foray::oracle
