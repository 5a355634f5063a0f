#include "foray/filter.h"

namespace foray::core {

const char* filter_reason_name(FilterReason r) {
  switch (r) {
    case FilterReason::Kept: return "kept";
    case FilterReason::NonAnalyzable: return "non-analyzable";
    case FilterReason::NoIterator: return "no-iterator";
    case FilterReason::TooFewExecs: return "too-few-execs";
    case FilterReason::TooFewLocations: return "too-few-locations";
    case FilterReason::SystemReference: return "system-reference";
  }
  return "?";
}

FilterReason classify_reference(const RefNode& ref, const FilterOptions& o) {
  if (ref.kind == trace::AccessKind::System) {
    return FilterReason::SystemReference;
  }
  if (!ref.affine.analyzable) return FilterReason::NonAnalyzable;
  if (!ref.affine.has_effective_iterator()) return FilterReason::NoIterator;
  if (ref.exec_count < o.min_exec) return FilterReason::TooFewExecs;
  if (ref.footprint_size() < o.min_locations) {
    return FilterReason::TooFewLocations;
  }
  return FilterReason::Kept;
}

}  // namespace foray::core
