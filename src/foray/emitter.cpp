#include "foray/emitter.h"

#include <algorithm>
#include <sstream>
#include <string_view>
#include <unordered_map>

#include "util/status.h"
#include "util/strings.h"

namespace foray::core {

Span offset_span(const ModelReference& ref, size_t from) {
  uint64_t down = 0;  // magnitude of the negative reaches
  uint64_t up = 0;
  // The emitted loops are the last fn.m of both vectors (no copies: the
  // DSE sizes every candidate through here).
  const size_t m = static_cast<size_t>(ref.fn.m);
  const int64_t* coefs = ref.fn.coefs.data() + (ref.fn.coefs.size() - m);
  const int64_t* trips = ref.trips.data() + (ref.trips.size() - m);
  for (size_t i = from; i < m; ++i) {
    const uint64_t steps =
        trips[i] > 1 ? static_cast<uint64_t>(trips[i]) - 1 : 0;
    const uint64_t coef = static_cast<uint64_t>(coefs[i]);
    if (coefs[i] < 0) {
      down += (0 - coef) * steps;
    } else {
      up += coef * steps;
    }
  }
  return {static_cast<int64_t>(0 - down), static_cast<int64_t>(up)};
}

uint64_t span_bytes(const ModelReference& ref, size_t from) {
  const Span s = offset_span(ref, from);
  return static_cast<uint64_t>(s.max_off) - static_cast<uint64_t>(s.min_off) +
         std::max<uint64_t>(ref.access_size, 1);
}

std::string loop_var(const std::vector<int>& path, size_t pos) {
  int dup = 0;
  for (size_t i = 0; i < pos; ++i) {
    if (path[i] == path[pos]) ++dup;
  }
  std::string name = "i";
  name += std::to_string(path[pos]);
  if (dup > 0) {
    name += '_';
    name += std::to_string(dup);
  }
  return name;
}

std::string index_expr(int64_t base, const std::vector<int64_t>& coefs,
                       const std::vector<int>& path) {
  std::ostringstream os;
  os << base;
  for (size_t i = 0; i < coefs.size(); ++i) {
    if (coefs[i] == 0) continue;
    if (coefs[i] >= 0) {
      os << " + " << coefs[i];
    } else {
      os << " - " << -coefs[i];
    }
    os << " * " << loop_var(path, i);
  }
  return os.str();
}

namespace {

/// Writes each line of `lines` indented `level` steps.
void put_lines(std::ostream& os, size_t level, std::string_view lines) {
  while (!lines.empty()) {
    const size_t end = lines.find('\n');
    os << std::string(level * 2, ' ') << lines.substr(0, end) << "\n";
    if (end == std::string_view::npos) break;
    lines.remove_prefix(end + 1);
  }
}

/// texts[i], or no text when `texts` is empty.
const RefText& text_of(const std::vector<RefText>& texts, size_t i) {
  static const RefText kNone;
  return texts.empty() ? kNone : texts[i];
}

/// One nest of group_by_nest(): loop d at indent level d + 1, each
/// reference's access in the innermost body. A loop gets braces when it
/// is the innermost or some reference places text in its body.
void emit_nest(std::ostream& os, const NestGroup& g, const ForayModel& model,
               const std::vector<std::string>& names,
               const std::vector<int64_t>& bases,
               const std::vector<RefText>& texts) {
  const size_t depth = g.path.size();
  std::vector<bool> braced(depth, false);
  if (depth > 0) braced[depth - 1] = true;
  for (size_t idx : g.refs) {
    const RefText& t = text_of(texts, idx);
    if (t.before.empty() && t.after.empty()) continue;
    FORAY_CHECK(t.depth < depth, "reference text below the innermost loop");
    if (t.depth > 0) braced[t.depth - 1] = true;
  }
  const auto place = [&](size_t d, bool after) {
    for (size_t idx : g.refs) {
      const RefText& t = text_of(texts, idx);
      if (t.depth == d) put_lines(os, d + 1, after ? t.after : t.before);
    }
  };

  for (size_t d = 0; d < depth; ++d) {
    place(d, false);
    const std::string v = loop_var(g.path, d);
    os << std::string(2 * (d + 1), ' ') << "for (int " << v << " = 0; " << v
       << " < " << g.trips[d] << "; " << v << "++)"
       << (braced[d] ? " {\n" : "\n");
  }
  if (depth == 0) os << "  {\n";
  const std::string pad(2 * (depth + 1), ' ');
  for (size_t idx : g.refs) {
    const auto& r = model.refs[idx];
    std::string elem = text_of(texts, idx).element;
    if (elem.empty()) {
      elem = names[idx] + "[" +
             index_expr(bases[idx], r.emitted_coefs(), g.path) + "]";
    }
    if (r.has_write) {
      os << pad << elem << " = 1;\n";
    } else {
      os << pad << "foray_acc += " << elem << ";\n";
    }
  }
  if (depth == 0) os << "  }\n";
  for (size_t d = depth; d-- > 0;) {
    if (braced[d]) os << std::string(2 * (d + 1), ' ') << "}\n";
    place(d, true);
  }
}

}  // namespace

std::vector<NestGroup> group_by_nest(const ForayModel& model) {
  std::vector<NestGroup> groups;
  for (size_t i = 0; i < model.refs.size(); ++i) {
    std::vector<int> path = model.refs[i].emitted_loop_path();
    std::vector<int64_t> trips = model.refs[i].emitted_trips();
    auto g = std::find_if(groups.begin(), groups.end(), [&](const auto& n) {
      return n.path == path && n.trips == trips;
    });
    if (g == groups.end()) {
      g = groups.insert(g, NestGroup{std::move(path), std::move(trips), {}});
    }
    g->refs.push_back(i);
  }
  return groups;
}

std::vector<std::string> assign_array_names(const ForayModel& model) {
  std::vector<std::string> names;
  names.reserve(model.refs.size());
  std::unordered_map<uint32_t, int> seen;
  for (const auto& r : model.refs) {
    int n = ++seen[r.instr];
    std::string name = "A";
    name += util::to_hex(r.instr);
    if (n > 1) {
      name += "_c";
      name += std::to_string(n);
    }
    names.push_back(std::move(name));
  }
  return names;
}

std::string describe_reference(const ModelReference& ref) {
  std::ostringstream os;
  os << "instr=" << util::to_hex(ref.instr) << " addr = 0x"
     << util::to_hex(static_cast<uint64_t>(ref.fn.const_term));
  // Innermost-first term order, matching the paper's Figure 2 style.
  // Terms outside the partial range (coefficients of excluded outer
  // iterators) are not part of the expression and are not shown.
  const auto& path = ref.loop_path;
  const int first_kept = ref.fn.n() - ref.fn.m;
  for (int i = ref.fn.n() - 1; i >= first_kept; --i) {
    const int64_t c = ref.fn.coefs[static_cast<size_t>(i)];
    if (c == 0) continue;
    os << (c >= 0 ? " + " : " - ") << (c >= 0 ? c : -c) << "*"
       << loop_var(path, static_cast<size_t>(i));
  }
  os << (ref.partial() ? " (partial, M=" + std::to_string(ref.fn.m) + ")"
                       : " (full)");
  os << " execs=" << ref.exec_count << " footprint=" << ref.footprint;
  return os.str();
}

std::string emit_minic(const ForayModel& model) {
  static constexpr char kHeader[] =
      "// FORAY model (auto-generated). Each array reference reproduces\n"
      "// one memory reference of the profiled program, rebased to a\n"
      "// zero-origin array of exactly the spanned size.\n";
  return emit_minic(model, kHeader, {});
}

std::string emit_minic(const ForayModel& model, std::string_view header,
                       const std::vector<RefText>& texts) {
  FORAY_CHECK(texts.empty() || texts.size() == model.refs.size(),
              "one text per reference");
  std::ostringstream os;
  os << header;
  auto names = assign_array_names(model);
  std::vector<int64_t> bases(model.refs.size());
  for (size_t i = 0; i < model.refs.size(); ++i) {
    const auto& r = model.refs[i];
    const Span s = offset_span(r);
    bases[i] = -s.min_off;  // rebased constant term
    const uint64_t len = span_bytes(r);
    const RefText& t = text_of(texts, i);
    os << "// " << describe_reference(r) << t.note << "\n";
    os << "char " << names[i] << "[" << len << "];\n" << t.decls;
  }
  os << "int foray_acc;\n\n";
  os << "int main(void) {\n";
  for (const NestGroup& g : group_by_nest(model)) {
    emit_nest(os, g, model, names, bases, texts);
  }
  os << "  return 0;\n}\n";
  return os.str();
}

std::string emit_paper_style(const ForayModel& model) {
  std::ostringstream os;
  auto names = assign_array_names(model);
  for (size_t i = 0; i < model.refs.size(); ++i) {
    const auto& r = model.refs[i];
    auto path = r.emitted_loop_path();
    auto trips = r.emitted_trips();
    auto coefs = r.emitted_coefs();
    for (size_t d = 0; d < path.size(); ++d) {
      os << std::string(d * 4, ' ') << "for (int " << loop_var(path, d)
         << "=0; " << loop_var(path, d) << "<" << trips[d] << "; "
         << loop_var(path, d) << "++)\n";
    }
    // Figure 2 prints the constant in decimal and terms innermost-first.
    os << std::string(path.size() * 4, ' ') << names[i] << "["
       << r.fn.const_term;
    for (size_t d = coefs.size(); d-- > 0;) {
      if (coefs[d] == 0) continue;
      os << (coefs[d] >= 0 ? "+" : "-") << std::llabs(coefs[d]) << "*"
         << loop_var(path, d);
    }
    os << "]";
    if (r.partial()) os << "  /* partial: base varies with outer context */";
    os << "\n";
  }
  return os.str();
}

}  // namespace foray::core
