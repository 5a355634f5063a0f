#include "spm/dse.h"

#include <algorithm>
#include <map>

#include "util/status.h"

namespace foray::spm {

double candidate_saving_nj(const BufferCandidate& c, const DseOptions& opts) {
  const double spm = opts.energy.spm_access_nj(opts.spm_capacity);
  const double dram = opts.energy.dram_nj;
  const double before = static_cast<double>(c.spm_accesses) * dram;
  const double after = static_cast<double>(c.spm_accesses) * spm +
                       static_cast<double>(c.transfer_words) * (dram + spm);
  return before - after;
}

Selection select_buffers(const std::vector<BufferCandidate>& candidates,
                         const DseOptions& opts) {
  // Group candidates by reference.
  std::map<size_t, std::vector<const BufferCandidate*>> groups;
  for (const auto& c : candidates) {
    if (c.size_bytes <= opts.spm_capacity &&
        candidate_saving_nj(c, opts) > 0.0) {
      groups[c.ref_index].push_back(&c);
    }
  }
  // A zero granule must quantize as one byte, not divide by zero.
  const uint32_t granule = std::max<uint32_t>(opts.granule, 1);
  const auto need_of = [granule](const BufferCandidate* c) {
    return static_cast<uint32_t>((c->size_bytes + granule - 1) / granule);
  };
  // No selection needs more than the sum of each group's largest need.
  // Every cell past that total equals the cell at it, and the best_w
  // scan below keeps the first maximum, so cutting the table there keeps
  // the selection bit-identical while bounding its size by the
  // candidates instead of the capacity.
  uint64_t max_total = 0;
  for (const auto& [ref, items] : groups) {
    (void)ref;
    uint32_t largest = 0;
    for (const BufferCandidate* c : items) {
      largest = std::max(largest, need_of(c));
    }
    max_total += largest;
  }
  const size_t slots = static_cast<size_t>(
      std::min<uint64_t>(opts.spm_capacity / granule, max_total));
  const size_t width = slots + 1;
  // dp[w] = best savings using at most w granules. choice[g * width + w]
  // is 1 + the index of the group-g item that set dp[w] in layer g, or 0
  // when the cell carried over from layer g - 1; backtracking from the
  // best cell recovers the selection without a pick list per cell.
  std::vector<double> dp(width, 0.0);
  std::vector<double> next_dp(width);
  std::vector<uint16_t> choice(groups.size() * width, 0);

  size_t g = 0;
  for (const auto& [ref, items] : groups) {
    (void)ref;
    FORAY_CHECK(items.size() < UINT16_MAX,
                "too many buffer candidates for one reference");
    next_dp = dp;  // same size: copies in place, no allocation
    uint16_t* row = &choice[g * width];
    for (size_t k = 0; k < items.size(); ++k) {
      const uint32_t need = need_of(items[k]);
      const double gain = candidate_saving_nj(*items[k], opts);
      for (size_t w = need; w <= slots; ++w) {
        const double with = dp[w - need] + gain;
        if (with > next_dp[w]) {
          next_dp[w] = with;
          row[w] = static_cast<uint16_t>(k + 1);
        }
      }
    }
    dp.swap(next_dp);
    ++g;
  }

  Selection sel;
  size_t best_w = 0;
  for (size_t w = 0; w <= slots; ++w) {
    if (dp[w] > dp[best_w]) best_w = w;
  }
  sel.saved_nj = dp[best_w];
  size_t w = best_w;
  auto layer = groups.rbegin();
  for (g = groups.size(); g-- > 0; ++layer) {
    const uint16_t k = choice[g * width + w];
    if (k == 0) continue;
    const BufferCandidate* c = layer->second[k - 1];
    sel.chosen.push_back(*c);
    sel.bytes_used += c->size_bytes;
    w -= need_of(c);
  }
  std::reverse(sel.chosen.begin(), sel.chosen.end());
  return sel;
}

Selection select_buffers_greedy(
    const std::vector<BufferCandidate>& candidates, const DseOptions& opts) {
  std::vector<const BufferCandidate*> order;
  for (const auto& c : candidates) {
    if (c.size_bytes <= opts.spm_capacity &&
        candidate_saving_nj(c, opts) > 0.0) {
      order.push_back(&c);
    }
  }
  std::sort(order.begin(), order.end(),
            [&](const BufferCandidate* a, const BufferCandidate* b) {
              const double da = candidate_saving_nj(*a, opts) /
                                static_cast<double>(a->size_bytes);
              const double db = candidate_saving_nj(*b, opts) /
                                static_cast<double>(b->size_bytes);
              return da > db;
            });
  Selection sel;
  std::map<size_t, bool> ref_taken;
  for (const BufferCandidate* c : order) {
    if (ref_taken[c->ref_index]) continue;
    if (sel.bytes_used + c->size_bytes > opts.spm_capacity) continue;
    ref_taken[c->ref_index] = true;
    sel.chosen.push_back(*c);
    sel.bytes_used += c->size_bytes;
    sel.saved_nj += candidate_saving_nj(*c, opts);
  }
  return sel;
}

}  // namespace foray::spm
