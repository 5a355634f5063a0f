#include "spm/transform.h"

#include <algorithm>
#include <cstddef>
#include <cstdlib>

#include "foray/emitter.h"

namespace foray::spm {

namespace {

/// `for (int f = lo; f < hi; f++) dst = src;` — one transfer loop.
/// `dst`/`src` are element expressions over `f`.
std::string copy_loop(int64_t f_lo, int64_t f_hi, const std::string& dst,
                      const std::string& src) {
  return "for (int f = " + std::to_string(f_lo) + "; f < " +
         std::to_string(f_hi) + "; f++) " + dst + " = " + src + ";\n";
}

/// What the level-`level` buffer of `ref` (main array `name`) adds to
/// the model program: its SPM array, the fill before the loop at the
/// split depth, the writeback after it, and the redirected access.
core::RefText buffer_text(const core::ModelReference& ref,
                          const std::string& name, int level) {
  const std::vector<int64_t> coefs = ref.emitted_coefs();
  const std::vector<int64_t> trips = ref.emitted_trips();
  const std::vector<int> path = ref.emitted_loop_path();
  // Degenerate geometry guard: a level outside [0, M] would split the
  // nest out of range (callers normally pass candidate levels, which are
  // in range by construction).
  level = std::clamp(level, 0, static_cast<int>(coefs.size()));
  if (level == 0) return {};
  const size_t split = coefs.size() - static_cast<size_t>(level);
  // The span candidate_at sizes the buffer with, so the sliding
  // predicate and fill sizes the two sides compute can never diverge.
  const int64_t base = -core::offset_span(ref).min_off;
  const core::Span inner = core::offset_span(ref, split);
  const auto span = static_cast<int64_t>(core::span_bytes(ref, split));
  // Sliding window: the loop just outside the buffered span advances the
  // window by `step` bytes per iteration; when 0 < |step| < span the
  // buffer is kept resident as a circular window and refills load only
  // the fresh delta — the same condition candidate_at uses for its
  // sliding-window traffic model.
  const int64_t step = split > 0 ? coefs[split - 1] : 0;
  const int64_t astep = std::llabs(step);
  const bool sliding = astep > 0 && astep < span;

  const std::vector<int64_t> outer(
      coefs.begin(), coefs.begin() + static_cast<std::ptrdiff_t>(split));
  std::vector<int64_t> inner_coefs = coefs;
  std::fill_n(inner_coefs.begin(), split, 0);
  const std::string spm = spm_buffer_name(name);
  const std::string open_base =
      "{ int base = " +
      core::index_expr(base + inner.min_off, outer, path) + ";\n";

  core::RefText t;
  t.note = "  [SPM buffer: level " + std::to_string(level) + ", " +
           std::to_string(span) + "B" + (sliding ? ", sliding window" : "") +
           "]";
  t.decls = "char " + spm + "[" + std::to_string(span) + "];\n";
  t.depth = split;
  const std::string main_f = name + "[base + f]";
  if (!sliding) {
    // Fill, buffered accesses, writeback for dirty buffers.
    const std::string spm_f = spm + "[f]";
    t.before = open_base + "  " + copy_loop(0, span, spm_f, main_f) + "}\n";
    t.element = spm + "[" +
                core::index_expr(-inner.min_off, inner_coefs, path) + "]";
    if (ref.has_write) {
      t.after = open_base + "  " + copy_loop(0, span, main_f, spm_f) + "}\n";
    }
    return t;
  }
  // The loop at split-1 advances the window by `step` bytes per
  // iteration, so the buffer is a circular window keyed by absolute
  // (rebased) byte address modulo the span — the window is exactly span
  // bytes wide, making that mapping collision-free. The first iteration
  // fills the whole window; later iterations load only the fresh delta,
  // and dirty windows write back the outgoing delta as it slides out
  // plus the final resident window — exactly the traffic candidate_at
  // predicts.
  const std::string fill_var = core::loop_var(path, split - 1);
  const std::string mod = " % " + std::to_string(span);
  const std::string spm_f = spm + "[(base + f)" + mod + "]";
  const int64_t last = std::max<int64_t>(trips[split - 1] - 1, 0);
  // Fresh data enters at the high end of the window when it slides
  // upward, at the low end when a negative coefficient slides it
  // downward; the outgoing (evicted) delta is the opposite end.
  const int64_t fresh_lo = step > 0 ? span - astep : 0;
  const int64_t fresh_hi = step > 0 ? span : astep;
  t.before = open_base + "  if (" + fill_var + " == 0) {\n    " +
             copy_loop(0, span, spm_f, main_f) + "  } else {\n    " +
             copy_loop(fresh_lo, fresh_hi, spm_f, main_f) + "  }\n}\n";
  t.element =
      spm + "[(" + core::index_expr(base, coefs, path) + ")" + mod + "]";
  if (ref.has_write) {
    // Outgoing delta: about to be overwritten by the next fill.
    t.after = open_base + "  if (" + fill_var + " == " +
              std::to_string(last) + ") {\n    " +
              copy_loop(0, span, main_f, spm_f) + "  } else {\n    " +
              copy_loop(step > 0 ? 0 : span - astep,
                        step > 0 ? astep : span, main_f, spm_f) +
              "  }\n}\n";
  }
  return t;
}

}  // namespace

std::string emit_transformed(const core::ForayModel& model,
                             const Selection& selection) {
  const auto names = core::assign_array_names(model);
  std::vector<core::RefText> texts(model.refs.size());
  for (const BufferCandidate& c : selection.chosen) {
    if (c.ref_index < texts.size()) {
      texts[c.ref_index] =
          buffer_text(model.refs[c.ref_index], names[c.ref_index], c.level);
    }
  }
  return core::emit_minic(
      model,
      "// Transformed FORAY model (Phase II output): selected\n"
      "// references access scratch-pad buffers; fill/writeback loops\n"
      "// perform the SPM<->main-memory transfers.\n",
      texts);
}

}  // namespace foray::spm
