#include "spm/reuse.h"

#include <algorithm>
#include <cstdlib>

#include "foray/emitter.h"

namespace foray::spm {

BufferCandidate candidate_at(const core::ModelReference& ref,
                             size_t ref_index, int level) {
  // Work in innermost-first order over the emitted (analyzable) nest.
  auto coefs_of = ref.emitted_coefs();   // outermost-first
  auto trips_of = ref.emitted_trips();
  std::vector<int64_t> coefs(coefs_of.rbegin(), coefs_of.rend());
  std::vector<int64_t> trips(trips_of.rbegin(), trips_of.rend());
  const int m = static_cast<int>(coefs.size());
  const int k = std::clamp(level, m > 0 ? 1 : 0, m);

  BufferCandidate c;
  c.ref_index = ref_index;
  c.level = k;
  // Span of the innermost k loops (conservative dense bound), the size
  // the emitter declares the SPM buffer with. Zero-trip and
  // zero-coefficient dimensions contribute nothing, so the span is never
  // smaller than one access — a buffer can't be zero-sized.
  const uint64_t span =
      core::span_bytes(ref, static_cast<size_t>(m - k));
  c.size_bytes = span;

  // Accesses inside one buffer residency and the number of fills.
  uint64_t inner_accesses = 1;
  for (int i = 0; i < k; ++i) {
    inner_accesses *= static_cast<uint64_t>(std::max<int64_t>(trips[i], 1));
  }
  // Total fills = executions / accesses-per-residency. Using the real
  // execution count (instead of the emitted trip product) makes this
  // correct for partial references too, where outer context re-runs
  // the nest.
  const uint64_t fills =
      inner_accesses > 0
          ? std::max<uint64_t>(1, ref.exec_count / inner_accesses)
          : 1;
  const uint64_t words_per_fill = (span + 3) / 4;

  // Sliding window: if the next-outer loop advances by less than the
  // span, each subsequent fill only loads the fresh delta.
  uint64_t total_words = 0;
  if (k < m) {
    const uint64_t step = static_cast<uint64_t>(std::llabs(coefs[k]));
    if (step > 0 && step < span) {
      c.sliding_window = true;
      const uint64_t delta_words = (step + 3) / 4;
      // One run = one full fill followed by delta fills, once per
      // iteration of loop k+1..; the run count is fills over the fill
      // loop's own trip so outer context re-running the whole nest
      // (partial references) scales the number of runs, not the length
      // of one run.
      const uint64_t fills_per_run =
          static_cast<uint64_t>(std::max<int64_t>(trips[k], 1));
      const uint64_t runs = std::max<uint64_t>(1, fills / fills_per_run);
      total_words = runs * (words_per_fill +
                            (fills_per_run - 1) * delta_words);
    }
  }
  if (total_words == 0) total_words = fills * words_per_fill;
  // Dirty data must be written back: the write-back stream retraces the
  // fill stream (deltas while the window slides, the final resident
  // window at the end), so it costs exactly the fill traffic again.
  if (ref.has_write) total_words *= 2;

  c.spm_accesses = ref.exec_count;
  c.transfer_words = total_words;
  return c;
}

std::vector<BufferCandidate> candidates_for(const core::ModelReference& ref,
                                            size_t ref_index,
                                            const ReuseOptions& opts) {
  std::vector<BufferCandidate> out;
  const int m = static_cast<int>(ref.emitted_coefs().size());
  for (int k = 1; k <= m; ++k) {
    BufferCandidate c = candidate_at(ref, ref_index, k);
    if (c.size_bytes > opts.max_buffer_bytes) continue;
    // A buffer that absorbs no accesses (zero-trip nest) is pure cost.
    if (c.spm_accesses == 0) continue;
    if (c.reuse_factor() >= opts.min_reuse) out.push_back(c);
  }
  return out;
}

std::vector<BufferCandidate> enumerate_candidates(
    const core::ForayModel& model, const ReuseOptions& opts) {
  std::vector<BufferCandidate> out;
  for (size_t i = 0; i < model.refs.size(); ++i) {
    auto per_ref = candidates_for(model.refs[i], i, opts);
    out.insert(out.end(), per_ref.begin(), per_ref.end());
  }
  return out;
}

}  // namespace foray::spm
