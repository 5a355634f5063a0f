// Data-reuse analysis over the FORAY model (the paper's Phase II step 2,
// in the style of Issenin et al., DATE 2004 — reference [5]).
//
// For each model reference and each loop level k (counting from the
// innermost), consider a scratch-pad buffer holding the data the
// innermost k loops touch. The buffer is refilled once per iteration of
// loop k+1; consecutive fills overlap when the (k+1)-stride is smaller
// than the buffer span (sliding window), in which case only the fresh
// delta is transferred. Every buffer candidate therefore has a size, a
// total fill traffic, and the count of accesses it absorbs — exactly what
// the design-space exploration needs.
#pragma once

#include <cstdint>
#include <vector>

#include "foray/model.h"

namespace foray::spm {

struct BufferCandidate {
  size_t ref_index = 0;  ///< index into ForayModel::refs
  int level = 1;         ///< innermost loops covered (1..M)
  uint64_t size_bytes = 0;
  uint64_t spm_accesses = 0;    ///< accesses served from the buffer
  uint64_t transfer_words = 0;  ///< total 4B words moved SPM<->DRAM
  bool sliding_window = false;  ///< consecutive fills overlap

  /// Accesses served per word transferred; > 1 means the buffer pays off
  /// even before energy weighting.
  double reuse_factor() const {
    return transfer_words > 0
               ? static_cast<double>(spm_accesses) / transfer_words
               : 0.0;
  }
};

struct ReuseOptions {
  /// Candidates larger than this are discarded outright (no realistic
  /// SPM will hold them).
  uint64_t max_buffer_bytes = 1u << 20;
  /// Keep only candidates whose reuse factor exceeds this.
  double min_reuse = 1.0;
};

/// The buffer candidate of one reference at one specific level (1..M),
/// unfiltered: size, fill traffic (sliding-window aware) and absorbed
/// accesses computed from the reference's emitted geometry and execution
/// count. This is the single source of the analytic transfer model; the
/// transform-replay phase re-derives candidates through it for the
/// materialized (rectangular) geometry and locks them against simulated
/// traffic. `level` is clamped to [1, M]; a reference with no emitted
/// loops yields a degenerate level-0 one-access-wide candidate, which
/// still carries the reference's exec_count — use candidates_for() for
/// the filtered list of buffers actually worth considering.
BufferCandidate candidate_at(const core::ModelReference& ref,
                             size_t ref_index, int level);

/// All worthwhile buffer candidates of one reference (at most one per
/// level): candidate_at() filtered by size and reuse factor. Candidates
/// that absorb no accesses (zero-trip nests) are never worthwhile.
std::vector<BufferCandidate> candidates_for(const core::ModelReference& ref,
                                            size_t ref_index,
                                            const ReuseOptions& opts = {});

/// Candidates for every reference of a model.
std::vector<BufferCandidate> enumerate_candidates(
    const core::ForayModel& model, const ReuseOptions& opts = {});

}  // namespace foray::spm
