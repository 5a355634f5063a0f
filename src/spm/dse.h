// Design-space exploration (Phase II step 3): pick at most one buffer
// candidate per reference such that everything fits in the scratch pad
// and energy savings are maximal.
//
// This is a group knapsack (groups = references, items = buffer levels);
// we solve it exactly with dynamic programming over capacity granules and
// also provide the classic greedy-by-density heuristic as the ablation
// baseline the benches compare against.
//
// The DP prices each candidate once, as (need in granules, gain in nJ),
// and keeps one row of best savings per group layer: row g + 1 is row g
// max-plus each of group g's items, nx[w] = max(nx[w], row[w - need] +
// gain), a branch-free select that vectorizes. It keeps no back-pointer
// table: walking the layers back from the best cell, it re-derives each
// layer's choice at the path's w by replaying that cell's updates. The
// rows are (groups + 1) x width doubles, width at most the sum of each
// group's largest need; a solve whose table would exceed kMaxDpCells
// fails instead of allocating it. The greedy prices each candidate once
// too and sorts by density.
#pragma once

#include <cstdint>
#include <vector>

#include "spm/energy.h"
#include "spm/reuse.h"

namespace foray::spm {

/// Most cells (doubles) one DP solve's rows may hold. A compile-time
/// bound, not an option, like kMaxCacheLines for the cache simulator: it
/// caps the table at 128 MiB whatever capacity a sweep or serve request
/// asks for.
inline constexpr uint64_t kMaxDpCells = uint64_t{1} << 24;

/// The DP's capacity quantum in bytes: a candidate needs its size in
/// granules, rounded up, and the rows count granules of capacity.
inline constexpr uint32_t kDpGranule = 8;

struct DseOptions {
  uint32_t spm_capacity = 4096;  ///< bytes
  EnergyModel energy;
};

struct Selection {
  std::vector<BufferCandidate> chosen;
  uint64_t bytes_used = 0;
  double saved_nj = 0.0;  ///< predicted energy saved vs all-DRAM
};

/// Energy saved by a candidate under the given SPM (nJ): accesses move
/// from DRAM to SPM, fills pay both sides.
double candidate_saving_nj(const BufferCandidate& c, const DseOptions& opts);

/// Exact group-knapsack DP. Throws util::StatusError (resource_exhausted,
/// phase "spm-solve") before allocating when the rows would hold more
/// than kMaxDpCells cells.
Selection select_buffers(const std::vector<BufferCandidate>& candidates,
                         const DseOptions& opts);

/// Greedy by savings density (ablation baseline). Candidates' ref_index
/// values index the model's references, so they are small and dense.
Selection select_buffers_greedy(const std::vector<BufferCandidate>& candidates,
                                const DseOptions& opts);

}  // namespace foray::spm
