// Franke & O'Boyle-style pointer-to-array conversion (the paper's
// reference [3]): a stronger *static* baseline.
//
// Their compiler pass rewrites pointer walks into explicit array
// subscripts when the pointer's provenance and induction behavior are
// statically evident. We model the analysis side: a dereference of a
// pointer variable counts as statically convertible when
//   - the pointer is a local initialized directly from a named array
//     (possibly plus a constant),
//   - every update on the path to the dereference advances it by a
//     compile-time constant (p++, p--, p += c),
//   - the pointer is never reassigned from anything else, never passed
//     to a function, and its address is never taken,
//   - every loop of the function around the dereference is canonical by
//     the Table II baseline's own test (canonical_loop), and offsets and
//     subscripts are affine_forms over those loops' iterators
//     (staticforay/matcher.h).
// As in the original work, this rescues simple streaming walks but not
// data-dependent offsets or cross-function pointers — the gap FORAY-GEN
// closes dynamically.
#pragma once

#include <set>

#include "foray/model.h"
#include "minic/ast.h"
#include "staticforay/static_analysis.h"

namespace foray::staticforay {

struct PointerConversion {
  /// Node ids of Deref/Index expressions through convertible pointers.
  std::set<int> convertible_ref_nodes;
  /// Pointer variables recognized as convertible (per function,
  /// qualified as "func/name" for reporting).
  std::set<std::string> convertible_pointers;

  bool ref_is_convertible(int node_id) const {
    return convertible_ref_nodes.count(node_id) > 0;
  }
};

/// Analyzes an annotated, checked program.
PointerConversion analyze_pointer_conversion(const minic::Program& prog);

/// Table II with the stronger baseline: how many of the model's
/// references the Franke-style pass would additionally rescue.
struct BaselineComparison {
  int model_refs = 0;
  int plain_static = 0;      ///< affine subscripts in canonical fors
  int with_conversion = 0;   ///< plain + converted pointer walks
  int foray_gen = 0;         ///< all model refs (dynamic recovery)

  double conversion_gain() const {
    return plain_static > 0
               ? static_cast<double>(with_conversion) / plain_static
               : 0.0;
  }
  double foray_gain_over_conversion() const {
    return with_conversion > 0
               ? static_cast<double>(foray_gen) / with_conversion
               : static_cast<double>(foray_gen);
  }
};

BaselineComparison compare_baselines(const core::ForayModel& model,
                                     const Analysis& analysis,
                                     const PointerConversion& conv);

}  // namespace foray::staticforay
