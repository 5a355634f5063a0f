#include "spm/transform.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "foray/emitter.h"
#include "util/strings.h"

namespace foray::spm {

namespace {

struct RefLayout {
  int64_t rebased_base = 0;  ///< base after rebasing to a zero-origin array
  int64_t array_len = 0;
  // Split data (selected refs only).
  int split = 0;             ///< index of first inner coefficient
  int64_t inner_min = 0;
  int64_t inner_span = 0;    ///< SPM buffer size in bytes
  // Sliding-window data: the loop just outside the buffered span advances
  // the window by `step` bytes per iteration; when 0 < step < span the
  // buffer is kept resident as a circular window and refills load only
  // the fresh delta (matching what candidate_at charges analytically).
  int64_t step = 0;          ///< signed window advance per fill-loop iter
  bool sliding = false;
};

RefLayout layout_of(const core::ModelReference& ref, int level) {
  RefLayout lo;
  auto coefs = ref.emitted_coefs();
  auto trips = ref.emitted_trips();
  // Degenerate geometry guard: a level outside [0, M] would split the
  // nest out of range (callers normally pass candidate levels, which are
  // in range by construction).
  level = std::clamp(level, 0, static_cast<int>(coefs.size()));
  // One byte minimum even for a zero-sized access (which real traces
  // cannot produce): never emit a zero-length array, and clamp exactly
  // like candidate_at so the sliding predicate and fill sizes the two
  // sides compute can never diverge.
  const int64_t access = std::max<int64_t>(ref.access_size, 1);
  int64_t min_off = 0, max_off = 0;
  for (size_t i = 0; i < coefs.size(); ++i) {
    const int64_t reach = coefs[i] * std::max<int64_t>(trips[i] - 1, 0);
    (reach < 0 ? min_off : max_off) += reach;
  }
  lo.rebased_base = -min_off;
  lo.array_len = max_off - min_off + access;
  if (level > 0) {
    lo.split = static_cast<int>(coefs.size()) - level;
    int64_t imin = 0, imax = 0;
    for (size_t i = static_cast<size_t>(lo.split); i < coefs.size(); ++i) {
      const int64_t reach = coefs[i] * std::max<int64_t>(trips[i] - 1, 0);
      (reach < 0 ? imin : imax) += reach;
    }
    lo.inner_min = imin;
    lo.inner_span = imax - imin + access;
    if (lo.split > 0) {
      lo.step = coefs[static_cast<size_t>(lo.split) - 1];
      const int64_t astep = std::llabs(lo.step);
      // The same condition candidate_at uses for its sliding-window
      // traffic model; emission and analytics must agree on it.
      lo.sliding = astep > 0 && astep < lo.inner_span;
    }
  }
  return lo;
}

std::string var(size_t ref_idx, size_t level_idx) {
  return "i" + std::to_string(ref_idx) + "_" + std::to_string(level_idx);
}

/// Renders base + sum of coefficient terms over [from, to).
std::string terms(size_t ref_idx, int64_t base,
                  const std::vector<int64_t>& coefs, size_t from,
                  size_t to) {
  std::ostringstream os;
  os << base;
  for (size_t i = from; i < to; ++i) {
    if (coefs[i] == 0) continue;
    os << (coefs[i] > 0 ? " + " : " - ")
       << (coefs[i] > 0 ? coefs[i] : -coefs[i]) << " * "
       << var(ref_idx, i);
  }
  return os.str();
}

}  // namespace

std::string emit_transformed(const core::ForayModel& model,
                             const Selection& selection) {
  std::map<size_t, int> selected_level;
  for (const auto& c : selection.chosen) {
    selected_level[c.ref_index] = c.level;
  }

  auto names = core::assign_array_names(model);
  std::ostringstream os;
  os << "// Transformed FORAY model (Phase II output): selected\n"
        "// references access scratch-pad buffers; fill/writeback loops\n"
        "// perform the SPM<->main-memory transfers.\n";

  std::vector<RefLayout> layouts;
  for (size_t i = 0; i < model.refs.size(); ++i) {
    auto it = selected_level.find(i);
    const int level = it == selected_level.end() ? 0 : it->second;
    RefLayout lo = layout_of(model.refs[i], level);
    os << "// " << core::describe_reference(model.refs[i]);
    if (level > 0) {
      os << "  [SPM buffer: level " << level << ", " << lo.inner_span
         << "B" << (lo.sliding ? ", sliding window" : "") << "]";
    }
    os << "\n";
    os << "char " << names[i] << "[" << lo.array_len << "];\n";
    if (level > 0) {
      os << "char " << spm_buffer_name(names[i]) << "[" << lo.inner_span
         << "];\n";
    }
    layouts.push_back(lo);
  }
  os << "int foray_acc;\n\nint main(void) {\n";

  for (size_t i = 0; i < model.refs.size(); ++i) {
    const auto& ref = model.refs[i];
    const RefLayout& lo = layouts[i];
    auto coefs = ref.emitted_coefs();
    auto trips = ref.emitted_trips();
    auto it = selected_level.find(i);
    const int level = it == selected_level.end() ? 0 : it->second;
    const size_t split = static_cast<size_t>(lo.split);
    const std::string spm = spm_buffer_name(names[i]);

    os << "  { // reference " << names[i]
       << (level > 0 ? " (SPM-buffered)" : " (main memory)") << "\n";
    std::string pad = "    ";
    // Outer loops (all of them for unbuffered references).
    const size_t outer_end = level > 0 ? split : coefs.size();
    for (size_t d = 0; d < outer_end; ++d) {
      os << pad << "for (int " << var(i, d) << " = 0; " << var(i, d)
         << " < " << trips[d] << "; " << var(i, d) << "++) {\n";
      pad += "  ";
    }

    /// `for (f = lo; f < hi; f++) dst = src;` — one transfer loop.
    /// `dst`/`src` are element expressions over `f`.
    auto copy_loop = [&](const std::string& cpad, int64_t f_lo,
                         int64_t f_hi, const std::string& dst,
                         const std::string& src) {
      os << cpad << "for (int f = " << f_lo << "; f < " << f_hi
         << "; f++) " << dst << " = " << src << ";\n";
    };
    /// The reference's own accesses: loops [from, M) around one
    /// access of `elem` (write refs store, read refs accumulate).
    auto access_nest = [&](size_t from, const std::string& elem) {
      std::string ipad = pad;
      for (size_t d = from; d < coefs.size(); ++d) {
        os << ipad << "for (int " << var(i, d) << " = 0; " << var(i, d)
           << " < " << trips[d] << "; " << var(i, d) << "++) {\n";
        ipad += "  ";
      }
      if (ref.has_write) {
        os << ipad << elem << " = 1;\n";
      } else {
        os << ipad << "foray_acc += " << elem << ";\n";
      }
      for (size_t d = coefs.size(); d-- > from;) {
        ipad.resize(ipad.size() - 2);
        os << ipad << "}\n";
      }
    };

    if (level > 0 && !lo.sliding) {
      const std::string outer_base =
          terms(i, lo.rebased_base + lo.inner_min, coefs, 0, split);
      const std::string spm_f = spm + "[f]";
      const std::string main_f = names[i] + "[base + f]";
      // Fill, buffered accesses, writeback for dirty buffers.
      os << pad << "{ int base = " << outer_base << ";\n";
      copy_loop(pad + "  ", 0, lo.inner_span, spm_f, main_f);
      os << pad << "}\n";
      access_nest(split, spm + "[" +
                             terms(i, -lo.inner_min, coefs, split,
                                   coefs.size()) +
                             "]");
      if (ref.has_write) {
        os << pad << "{ int base = " << outer_base << ";\n";
        copy_loop(pad + "  ", 0, lo.inner_span, main_f, spm_f);
        os << pad << "}\n";
      }
    } else if (level > 0) {
      // Sliding window: the loop at split-1 advances the window by
      // `step` bytes per iteration, so the buffer is kept as a circular
      // window keyed by absolute (rebased) byte address modulo the span
      // — the window is exactly span bytes wide, making that mapping
      // collision-free. The first iteration fills the whole window;
      // later iterations load only the fresh delta, and dirty windows
      // write back the outgoing delta as it slides out plus the final
      // resident window — exactly the traffic candidate_at predicts.
      const std::string fill_var = var(i, split - 1);
      const std::string outer_base =
          terms(i, lo.rebased_base + lo.inner_min, coefs, 0, split);
      const int64_t span = lo.inner_span;
      const int64_t astep = std::llabs(lo.step);
      const int64_t last = std::max<int64_t>(trips[split - 1] - 1, 0);
      const std::string spm_f =
          spm + "[(base + f) % " + std::to_string(span) + "]";
      const std::string main_f = names[i] + "[base + f]";
      // Fresh data enters at the high end of the window when it slides
      // upward, at the low end when a negative coefficient slides it
      // downward; the outgoing (evicted) delta is the opposite end.
      const int64_t fresh_lo = lo.step > 0 ? span - astep : 0;
      const int64_t fresh_hi = lo.step > 0 ? span : astep;
      os << pad << "{ int base = " << outer_base << ";\n";
      os << pad << "  if (" << fill_var << " == 0) {\n";
      copy_loop(pad + "    ", 0, span, spm_f, main_f);
      os << pad << "  } else {\n";
      copy_loop(pad + "    ", fresh_lo, fresh_hi, spm_f, main_f);
      os << pad << "  }\n" << pad << "}\n";
      // The buffered accesses index the circular window by absolute
      // (rebased) address.
      access_nest(split,
                  spm + "[(" +
                      terms(i, lo.rebased_base, coefs, 0, coefs.size()) +
                      ") % " + std::to_string(span) + "]");
      if (ref.has_write) {
        os << pad << "{ int base = " << outer_base << ";\n";
        os << pad << "  if (" << fill_var << " == " << last << ") {\n";
        copy_loop(pad + "    ", 0, span, main_f, spm_f);
        os << pad << "  } else {\n";
        // Outgoing delta: about to be overwritten by the next fill.
        copy_loop(pad + "    ", lo.step > 0 ? 0 : span - astep,
                  lo.step > 0 ? astep : span, main_f, spm_f);
        os << pad << "  }\n" << pad << "}\n";
      }
    } else {
      access_nest(outer_end,
                  names[i] + "[" +
                      terms(i, lo.rebased_base, coefs, 0, coefs.size()) +
                      "]");
    }
    for (size_t d = outer_end; d-- > 0;) {
      pad.resize(pad.size() - 2);
      os << pad << "}\n";
    }
    os << "  }\n";
  }
  os << "  return 0;\n}\n";
  return os.str();
}

}  // namespace foray::spm
