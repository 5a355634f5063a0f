// The single copy of the engines' global-allocation rule.
//
// Globals allocate strictly in declaration order, each aligned to
// min(element size, 4) bytes. The tree walker (interpreter.cpp
// alloc_globals), the bytecode compiler (bytecode.cpp compile_start) and
// the replay address map (classify_sink.h global_regions) all size and
// align global storage through this one function, so the rule cannot
// drift between them; tests/transform_replay_test additionally locks the
// computed map against real trace addresses from both engines.
#pragma once

#include <cstdint>

#include "minic/ast.h"

namespace foray::sim {

struct GlobalShape {
  uint32_t bytes = 0;
  uint32_t align = 0;
};

inline GlobalShape global_shape(const minic::VarDecl& d) {
  const uint32_t elem = static_cast<uint32_t>(d.type.size());
  const uint32_t bytes =
      d.array_len >= 0 ? elem * static_cast<uint32_t>(d.array_len) : elem;
  return GlobalShape{bytes, elem >= 4 ? 4u : elem};
}

}  // namespace foray::sim
