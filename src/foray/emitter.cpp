#include "foray/emitter.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "util/status.h"
#include "util/strings.h"

namespace foray::core {

namespace {

/// Offset extremes of the emitted (innermost-M) part of the function,
/// relative to const_term.
struct Span {
  int64_t min_off = 0;  ///< most negative iterator contribution
  int64_t max_off = 0;  ///< most positive iterator contribution
};

Span offset_span(const ModelReference& ref) {
  Span s;
  auto coefs = ref.emitted_coefs();
  auto trips = ref.emitted_trips();
  for (size_t i = 0; i < coefs.size(); ++i) {
    const int64_t reach = coefs[i] * std::max<int64_t>(trips[i] - 1, 0);
    if (reach < 0) {
      s.min_off += reach;
    } else {
      s.max_off += reach;
    }
  }
  return s;
}

/// Loop-variable name for position `pos` of an emitted path. Usually
/// "i<loop_id>"; recursion can repeat a site in one path, in which case
/// later occurrences get a positional suffix.
std::string loop_var(const std::vector<int>& path, size_t pos) {
  int dup = 0;
  for (size_t i = 0; i < pos; ++i) {
    if (path[i] == path[pos]) ++dup;
  }
  std::string name = "i" + std::to_string(path[pos]);
  if (dup > 0) name += "_" + std::to_string(dup);
  return name;
}

/// Renders "base + c*iN + ..." with zero coefficients omitted.
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
    std::string name = "A" + util::to_hex(r.instr);
    if (n > 1) name += "_c" + std::to_string(n);
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
  std::ostringstream os;
  auto names = assign_array_names(model);
  os << "// FORAY model (auto-generated). Each array reference reproduces\n"
        "// one memory reference of the profiled program, rebased to a\n"
        "// zero-origin array of exactly the spanned size.\n";

  // Array declarations.
  std::vector<int64_t> bases(model.refs.size());
  for (size_t i = 0; i < model.refs.size(); ++i) {
    const auto& r = model.refs[i];
    Span s = offset_span(r);
    bases[i] = -s.min_off;  // rebased constant term
    const int64_t len = s.max_off - s.min_off + r.access_size;
    os << "// " << describe_reference(r) << "\n";
    os << "char " << names[i] << "[" << len << "];\n";
  }
  os << "int foray_acc;\n\n";
  os << "int main(void) {\n";

  for (const NestGroup& g : group_by_nest(model)) {
    int level = 1;
    auto indent = [&]() { return std::string(static_cast<size_t>(level) * 2,
                                             ' '); };
    for (size_t d = 0; d < g.path.size(); ++d) {
      std::string v = loop_var(g.path, d);
      os << indent() << "for (int " << v << " = 0; " << v << " < "
         << g.trips[d] << "; " << v << "++)";
      os << (d + 1 == g.path.size() ? " {\n" : "\n");
      ++level;
    }
    if (g.path.empty()) {
      os << indent() << "{\n";
      ++level;
    }
    for (size_t idx : g.refs) {
      const auto& r = model.refs[idx];
      std::string expr = index_expr(bases[idx], r.emitted_coefs(), g.path);
      if (r.has_write) {
        os << indent() << names[idx] << "[" << expr << "] = 1;\n";
      } else {
        os << indent() << "foray_acc += " << names[idx] << "[" << expr
           << "];\n";
      }
    }
    --level;
    os << indent() << "}\n";
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
