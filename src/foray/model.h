// The FORAY model IR: the paper's "another C program consisting of for
// loops and array references with affine index expressions", held as data
// before emission.
//
// Each ModelReference is one surviving memory reference together with the
// loop nest (dynamic context) it executes in. For partial-affine
// references only the innermost M loops are meaningful to downstream SPM
// analysis; the emitter and the reuse analysis both honor that.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "foray/affine.h"
#include "foray/extractor.h"
#include "foray/filter.h"

namespace foray::core {

struct ModelReference {
  uint32_t instr = 0;
  /// Dynamic loop context, outermost first (loop site ids).
  std::vector<int> loop_path;
  /// Max observed trip count per loop, aligned with loop_path.
  std::vector<int64_t> trips;
  /// The recovered affine address function (outermost-first coefficients).
  AffineFunction fn;

  uint64_t exec_count = 0;
  uint64_t footprint = 0;
  bool footprint_saturated = false;
  uint8_t access_size = 4;
  bool has_read = false;
  bool has_write = false;

  int n() const { return static_cast<int>(loop_path.size()); }
  bool partial() const { return fn.partial(); }

  /// Loops actually present in the emitted model: all N for full affine
  /// references, the innermost M for partial ones (outermost-first
  /// suffix of loop_path).
  std::vector<int> emitted_loop_path() const {
    const size_t keep = static_cast<size_t>(fn.m);
    return std::vector<int>(loop_path.end() - static_cast<long>(keep),
                            loop_path.end());
  }
  std::vector<int64_t> emitted_trips() const {
    const size_t keep = static_cast<size_t>(fn.m);
    return std::vector<int64_t>(trips.end() - static_cast<long>(keep),
                                trips.end());
  }
  /// Coefficients for the emitted loops (outermost-first suffix).
  std::vector<int64_t> emitted_coefs() const {
    const size_t keep = static_cast<size_t>(fn.m);
    return std::vector<int64_t>(fn.coefs.end() - static_cast<long>(keep),
                                fn.coefs.end());
  }
};

/// What the Step 4 filter did to each reference node of a loop tree. A
/// report on the build, not part of the model: it lives in
/// PipelineResult, and FMDL does not store it.
struct ModelBuildStats {
  int total_refs = 0;  ///< reference nodes in the tree
  int kept = 0;
  int dropped_non_analyzable = 0;
  int dropped_no_iterator = 0;
  int dropped_exec = 0;
  int dropped_locations = 0;
  int dropped_system = 0;
};

struct ForayModel {
  std::vector<ModelReference> refs;

  /// Distinct loop sites appearing in emitted nests (Table II "number of
  /// loops ... represented by FORAY form").
  int distinct_loops() const;
  /// Distinct loop sites counting call contexts separately (functions
  /// considered inlined, as in the paper's experimental note).
  int loop_contexts() const;
  uint64_t total_accesses() const;
};

/// Builds the model from a finished extraction: walks the loop tree,
/// applies the Step 4 filter and finalizes every surviving reference's
/// affine function. `stats`, when given, receives the filter's tally.
ForayModel build_model(const Extractor& extractor,
                       const FilterOptions& filter = {},
                       ModelBuildStats* stats = nullptr);

}  // namespace foray::core
