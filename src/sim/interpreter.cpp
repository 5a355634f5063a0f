#include "sim/interpreter.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "sim/interp_impl.h"

namespace foray::sim {

Engine default_engine() {
  static const Engine engine = [] {
    const char* env = std::getenv("FORAY_ENGINE");
    if (env == nullptr || *env == '\0') return Engine::Bytecode;
    if (std::strcmp(env, "ast") == 0) return Engine::Ast;
    if (std::strcmp(env, "bytecode") == 0) return Engine::Bytecode;
    // An unrecognized value must not silently fall back to the default:
    // the CI matrix relies on FORAY_ENGINE=ast actually exercising the
    // reference engine, so a typo has to fail loudly, not pass green.
    std::fprintf(stderr,
                 "FORAY_ENGINE='%s' is not a known engine (use 'ast' or "
                 "'bytecode')\n",
                 env);
    std::exit(2);
  }();
  return engine;
}

namespace {
/// Validates FORAY_ENGINE at program start rather than at first
/// simulation: a CI leg whose tests happen to never simulate must
/// still fail loudly on a misspelled engine name.
const Engine kEngineValidatedEagerly = default_engine();
}  // namespace

RunResult run_program(const minic::Program& prog, trace::Sink* sink,
                      const RunOptions& opts) {
  trace::NullSink null_sink;
  trace::Sink* s = sink != nullptr ? sink : &null_sink;
  return run_program_with(prog, s, opts);
}

}  // namespace foray::sim
