// The static baseline: what traditional SPM analyses ([5][6][7] in the
// paper) can see in the *original* source without FORAY-GEN.
//
// Those techniques require FORAY form syntactically: canonical `for`
// loops and direct array subscripts whose index expressions are affine in
// the enclosing canonical iterators. Everything else — pointer walks,
// while/do loops, data-dependent offsets — is statically opaque.
//
// In terms of the shared matcher (staticforay/matcher.h): a loop is
// canonical when match_loop matches it with an `int` iterator, an init,
// bound and delta that fold to constants, a `++`/`--`/`+=`/`-=` step, an
// unmirrored condition, and a body that does not write the iterator
// (writes_name). A subscript is affine when affine_form reads it over the
// enclosing canonical iterators. The baseline is deliberately syntactic:
// a bound the checker proves constant is still not a literal.
//
// Joining this analysis with a dynamically-extracted FORAY model yields
// Table II's right half ("percentage of loops and references that are not
// in FORAY form in the original program") and the paper's headline ~2x
// increase in analyzable references.
#pragma once

#include <optional>
#include <set>

#include "foray/model.h"
#include "minic/ast.h"
#include "staticforay/matcher.h"

namespace foray::staticforay {

struct Analysis {
  /// Loop ids of canonical for loops (canonical_loop).
  std::set<int> canonical_loops;
  /// Expression node ids of array subscripts `arr[e]` on array variables
  /// where `e` has an affine_form over the enclosing canonical iterators.
  std::set<int> affine_ref_nodes;
  /// All loop ids inspected (every loop in the program).
  int total_loops = 0;
  /// All memory-referencing sites inspected (subscripts + derefs).
  int total_ref_sites = 0;

  bool loop_is_canonical(int loop_id) const {
    return canonical_loops.count(loop_id) > 0;
  }
  bool ref_is_affine(int node_id) const {
    return affine_ref_nodes.count(node_id) > 0;
  }
};

/// The match of `s` when the baseline counts it as a canonical loop.
std::optional<LoopMatch> canonical_loop(const minic::Stmt& s);

/// Analyzes an annotated, sema-checked program.
Analysis analyze(const minic::Program& prog);

/// Table II, one benchmark: how much of the dynamic FORAY model was
/// *already* statically expressible.
struct ConversionStats {
  int model_loops = 0;  ///< loops representable in FORAY form (dynamic)
  int model_refs = 0;   ///< references representable in FORAY form
  int loops_not_foray = 0;  ///< of model_loops, not statically canonical
  int refs_not_foray = 0;   ///< of model_refs, not statically affine

  double pct_loops_not_foray() const {
    return model_loops ? 100.0 * loops_not_foray / model_loops : 0.0;
  }
  double pct_refs_not_foray() const {
    return model_refs ? 100.0 * refs_not_foray / model_refs : 0.0;
  }
  /// The headline metric: total analyzable refs (with FORAY-GEN) over
  /// refs already analyzable statically.
  double ref_increase_factor() const {
    const int statically = model_refs - refs_not_foray;
    return statically > 0 ? static_cast<double>(model_refs) / statically
                          : static_cast<double>(model_refs);
  }
};

/// A model reference counts as statically analyzable iff its instruction
/// is a statically-affine subscript *and* every loop of its emitted nest
/// is canonical.
ConversionStats compute_conversion(const core::ForayModel& model,
                                   const Analysis& analysis);

}  // namespace foray::staticforay
