// Static variable resolution for the interpreter.
//
// The interpreter used to resolve every identifier at evaluation time by
// string lookup through a stack of per-scope hash maps — tens of
// millions of string hashes per simulated run, the single largest cost
// of the profiling loop. MiniC has no closures and no goto, so dynamic
// scoping order equals syntactic order: one pass over the AST can bind
// every Ident expression to either a global index or a frame slot index,
// and every declaration to the frame slot it fills. The interpreter then
// keeps locals in a flat arena indexed by (frame base + slot) — variable
// access becomes two adds and a load.
//
// Exactness: the walk mirrors the interpreter's old dynamic behavior —
// declarations bind before their initializers evaluate (so `int x = x;`
// sees the new x), block scopes shadow outward, duplicate names rebind,
// and a name that never binds stays "unresolved" and only faults if the
// expression actually executes.
#pragma once

#include <cstdint>
#include <vector>

#include "minic/ast.h"

namespace foray::sim {

struct VarResolution {
  struct Binding {
    int32_t index = -1;    ///< global index or frame slot
    bool global = false;
    bool resolved = false;
  };

  /// Indexed by Ident-expression node_id.
  std::vector<Binding> ident;
  /// Indexed by VarDecl / Param node_id: the frame slot it binds.
  std::vector<int32_t> decl_slot;
  /// Indexed by func_id: frame slot count (params + every local).
  std::vector<int32_t> func_slots;
  /// Number of global variables (slots in the interpreter's global
  /// table; later duplicates shadow earlier ones by name, but every
  /// declaration keeps its own slot, matching allocation order).
  int32_t globals = 0;
  /// Every declaration statement sits directly in a block or is a
  /// for-initializer, so each local's slot is at a fixed place in its
  /// activation's frame. A declaration that is a bare if-branch or loop
  /// body stays allocated until the enclosing block or loop ends: inside
  /// a loop its slot moves every iteration, and the elision guard
  /// (RunOptions::elide_below_bases) cannot bound it by frame bases.
  bool frame_fixed = true;
};

VarResolution resolve_variables(const minic::Program& prog);

}  // namespace foray::sim
