// Step 4 of Algorithm 1: purge uninteresting memory references.
//
// The paper keeps only references that (a) have an affine index
// expression including at least one iterator, (b) executed at least
// Nexec times and (c) touch at least Nloc distinct locations, with
// Nexec = 20 and Nloc = 10 in the paper's experiments. The thresholds
// drop tiny arrays (better handled by whole-object placement techniques
// [8][9][10]) and references without reuse — including all the implicit
// stack/spill traffic the simulator records. That scalar traffic is most
// of every trace, so the fused Phase I pass does not trace it at all
// while a guard proves that no scalar reference can reach Nloc locations
// (sim::RunOptions::elide_below_bases), and traces everything when it
// cannot. Those references would fail (c) here; the model is the same.
#pragma once

#include <cstdint>
#include <string>

#include "foray/looptree.h"

namespace foray::core {

/// The two thresholds. The rest of the filter is fixed policy, as in the
/// paper: System-kind references are dropped (system libraries are not
/// modeled), a kept expression needs at least one iterator with a known
/// non-zero coefficient (the regularity condition), and partial affine
/// references (M < N) are kept, since they are what lets SPM analysis
/// still optimize the inner loops.
struct FilterOptions {
  uint64_t min_exec = 20;       ///< Nexec
  uint64_t min_locations = 10;  ///< Nloc
};

enum class FilterReason : uint8_t {
  Kept,
  NonAnalyzable,    ///< excluded by Algorithm 3 Step 4 (H > 1)
  NoIterator,       ///< no effective iterator in the expression
  TooFewExecs,      ///< exec_count < Nexec
  TooFewLocations,  ///< footprint < Nloc
  SystemReference,  ///< traffic from intrinsics / system libraries
};

const char* filter_reason_name(FilterReason r);

FilterReason classify_reference(const RefNode& ref, const FilterOptions& o);

inline bool passes_filter(const RefNode& ref, const FilterOptions& o) {
  return classify_reference(ref, o) == FilterReason::Kept;
}

}  // namespace foray::core
