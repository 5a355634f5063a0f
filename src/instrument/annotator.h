// Step 1 of Algorithm 1: checkpoint annotation.
//
// Walks the AST, assigns a dense loop id to every loop statement (for,
// while, do) and collects the loop-site table used throughout the
// pipeline: per loop we record its syntactic kind, source line, enclosing
// function and lexical nesting depth. The interpreter emits checkpoint
// trace records for annotated loops; the statistics module derives
// Table I's loop-form breakdown from this table.
#pragma once

#include <string>
#include <vector>

#include "minic/ast.h"

namespace foray::instrument {

enum class LoopKind : uint8_t { For, While, Do };

struct LoopSite {
  int loop_id = -1;
  LoopKind kind = LoopKind::For;
  int line = 0;
  int func_id = -1;
  std::string func_name;
  int lexical_depth = 0;  ///< 0 = not nested in another loop of the same fn
};

struct LoopSiteTable {
  std::vector<LoopSite> sites;  ///< indexed by loop_id

  const LoopSite& site(int loop_id) const { return sites.at(loop_id); }
  int count() const { return static_cast<int>(sites.size()); }
  int count_kind(LoopKind k) const {
    int n = 0;
    for (const auto& s : sites)
      if (s.kind == k) ++n;
    return n;
  }
};

/// Annotates the program in place (fills Stmt::loop_id for every loop) and
/// returns the loop-site table. Idempotent: re-running reassigns the same
/// ids.
LoopSiteTable annotate_loops(minic::Program* prog);

}  // namespace foray::instrument
