// Recursive-descent parser for MiniC.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "minic/ast.h"
#include "minic/token.h"
#include "util/status.h"

namespace foray::minic {

/// Deepest nesting the parser accepts: statements, parenthesized and
/// operator subexpressions all count one level each. Every recursive
/// walker behind the parser (sema, printer, checker, bytecode compiler,
/// AST interpreter, emitter) recurses on the host stack once per level,
/// so this bound keeps them all within a default 8 MB thread stack.
/// Deeper input is a "parse" error, never a crash.
constexpr int kMaxNesting = 1000;

/// Parse a full translation unit. On syntax errors, diagnostics are added
/// to `diags` and a best-effort partial Program is still returned; callers
/// must treat the result as unusable unless `diags` is empty.
std::unique_ptr<Program> parse_program(std::string_view source,
                                       util::DiagList* diags);

/// Convenience for tests and tools: parse + sema in one call. Returns
/// nullptr and fills diags on any front-end error.
std::unique_ptr<Program> parse_and_check(std::string_view source,
                                         util::DiagList* diags);

}  // namespace foray::minic
