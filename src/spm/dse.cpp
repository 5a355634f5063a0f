#include "spm/dse.h"

#include <algorithm>
#include <memory>
#include <string>

#include "util/status.h"

namespace foray::spm {
namespace {

/// candidate_saving_nj with the capacity's SPM access energy already
/// looked up, so a solve takes its log2 once instead of once per
/// candidate.
double saving_nj(const BufferCandidate& c, double spm, double dram) {
  const double before = static_cast<double>(c.spm_accesses) * dram;
  const double after = static_cast<double>(c.spm_accesses) * spm +
                       static_cast<double>(c.transfer_words) * (dram + spm);
  return before - after;
}

/// A candidate that fits the capacity and saves energy, priced once.
struct Item {
  const BufferCandidate* c;
  uint32_t need;  ///< granules
  double gain;    ///< nJ saved
};

/// One item's max-plus update of a group layer over cells [need, width):
/// nx[w] = max(keep, src[w - need] + gain), where `keep` is src[w] for
/// the group's first item and nx[w] after it, and a tie keeps `keep`.
/// The select on `>` is the DP's strict improvement rule and what SSE2's
/// maxpd computes, so the loop vectorizes.
void max_plus(const double* __restrict src, double* __restrict nx,
              size_t need, size_t width, double gain, bool first) {
  for (size_t w = need; w < width; ++w) {
    const double with = src[w - need] + gain;
    const double keep = first ? src[w] : nx[w];
    nx[w] = with > keep ? with : keep;
  }
}

}  // namespace

double candidate_saving_nj(const BufferCandidate& c, const DseOptions& opts) {
  return saving_nj(c, opts.energy.spm_access_nj(opts.spm_capacity),
                   opts.energy.dram_nj);
}

Selection select_buffers(const std::vector<BufferCandidate>& candidates,
                         const DseOptions& opts) {
  const double spm = opts.energy.spm_access_nj(opts.spm_capacity);
  const double dram = opts.energy.dram_nj;
  // Groups are references in ascending ref_index, their items in
  // candidate order: the stable sort keeps that order within a reference.
  std::vector<Item> items;
  for (const BufferCandidate& c : candidates) {
    if (c.size_bytes > opts.spm_capacity) continue;
    const double gain = saving_nj(c, spm, dram);
    if (!(gain > 0.0)) continue;
    items.push_back(Item{
        &c,
        static_cast<uint32_t>((c.size_bytes + kDpGranule - 1) / kDpGranule),
        gain});
  }
  std::stable_sort(items.begin(), items.end(),
                   [](const Item& a, const Item& b) {
                     return a.c->ref_index < b.c->ref_index;
                   });
  // starts[g]..starts[g + 1] are group g's items.
  std::vector<size_t> starts;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i == 0 || items[i].c->ref_index != items[i - 1].c->ref_index) {
      starts.push_back(i);
    }
  }
  const size_t groups = starts.size();
  starts.push_back(items.size());
  // No selection needs more than the sum of each group's largest need.
  // Every cell past that total equals the cell at it, and the best_w
  // scan below keeps the first maximum, so cutting the rows there keeps
  // the selection bit-identical while bounding their width by the
  // candidates instead of the capacity.
  uint64_t max_total = 0;
  for (size_t g = 0; g < groups; ++g) {
    uint32_t largest = 0;
    for (size_t i = starts[g]; i < starts[g + 1]; ++i) {
      largest = std::max(largest, items[i].need);
    }
    max_total += largest;
  }
  const size_t width = static_cast<size_t>(
      std::min<uint64_t>(opts.spm_capacity / kDpGranule, max_total) + 1);
  const uint64_t cells = (static_cast<uint64_t>(groups) + 1) * width;
  if (cells > kMaxDpCells) {
    throw util::StatusError(util::Status::failure(
        util::ErrorCode::kResourceExhausted, "spm-solve", 0,
        "knapsack table of " + std::to_string(cells) + " cells (" +
            std::to_string(groups + 1) + " rows of " + std::to_string(width) +
            " granules), over the " + std::to_string(kMaxDpCells) +
            "-cell limit"));
  }
  // Row g holds dp[w] = best savings of groups < g in at most w
  // granules; row 0 is all zeros. The other rows start uninitialized:
  // a group's first item writes every cell of its row (the copy below
  // `need`, max_plus from it), so zeroing them would only double the
  // writes.
  std::unique_ptr<double[]> rows =
      std::make_unique_for_overwrite<double[]>(static_cast<size_t>(cells));
  std::fill_n(rows.get(), width, 0.0);
  for (size_t g = 0; g < groups; ++g) {
    const double* src = &rows[g * width];
    double* nx = &rows[(g + 1) * width];
    for (size_t i = starts[g]; i < starts[g + 1]; ++i) {
      const size_t need = std::min<size_t>(items[i].need, width);
      const bool first = i == starts[g];
      if (first) std::copy(src, src + need, nx);
      max_plus(src, nx, need, width, items[i].gain, first);
    }
  }

  Selection sel;
  const double* last = &rows[groups * width];
  size_t best_w = 0;
  for (size_t w = 0; w < width; ++w) {
    if (last[w] > last[best_w]) best_w = w;
  }
  sel.saved_nj = last[best_w];
  // Walk the layers back, re-deriving each one's choice at the path's w
  // by replaying its items' updates of that one cell: the item kept is
  // the last one whose value beat the running cell, as in the rows.
  size_t w = best_w;
  for (size_t g = groups; g-- > 0;) {
    const double* src = &rows[g * width];
    double cell = src[w];
    const Item* pick = nullptr;
    for (size_t i = starts[g]; i < starts[g + 1]; ++i) {
      if (items[i].need > w) continue;
      const double with = src[w - items[i].need] + items[i].gain;
      if (with > cell) {
        cell = with;
        pick = &items[i];
      }
    }
    if (pick == nullptr) continue;
    sel.chosen.push_back(*pick->c);
    sel.bytes_used += pick->c->size_bytes;
    w -= pick->need;
  }
  std::reverse(sel.chosen.begin(), sel.chosen.end());
  return sel;
}

Selection select_buffers_greedy(
    const std::vector<BufferCandidate>& candidates, const DseOptions& opts) {
  const double spm = opts.energy.spm_access_nj(opts.spm_capacity);
  const double dram = opts.energy.dram_nj;
  struct Priced {
    const BufferCandidate* c;
    double saving;
    double density;  ///< saving per byte
  };
  std::vector<Priced> order;
  size_t refs = 0;
  for (const BufferCandidate& c : candidates) {
    if (c.size_bytes > opts.spm_capacity) continue;
    const double saving = saving_nj(c, spm, dram);
    if (!(saving > 0.0)) continue;
    order.push_back(
        Priced{&c, saving, saving / static_cast<double>(c.size_bytes)});
    refs = std::max(refs, c.ref_index + 1);
  }
  std::sort(order.begin(), order.end(),
            [](const Priced& a, const Priced& b) {
              return a.density > b.density;
            });
  Selection sel;
  std::vector<bool> ref_taken(refs, false);
  for (const Priced& p : order) {
    if (ref_taken[p.c->ref_index]) continue;
    if (sel.bytes_used + p.c->size_bytes > opts.spm_capacity) continue;
    ref_taken[p.c->ref_index] = true;
    sel.chosen.push_back(*p.c);
    sel.bytes_used += p.c->size_bytes;
    sel.saved_nj += p.saving;
  }
  return sel;
}

}  // namespace foray::spm
