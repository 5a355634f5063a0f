#include "benchsuite/generator.h"

#include <initializer_list>
#include <sstream>
#include <string_view>

#include "util/status.h"

namespace foray::benchsuite {

namespace {

/// Renders "base + c0*i0 - c1*i1 ..." skipping zero terms.
std::string index_expr(int64_t base, const std::vector<int64_t>& coefs,
                       int nest_id) {
  std::ostringstream os;
  os << base;
  for (size_t k = 0; k < coefs.size(); ++k) {
    if (coefs[k] == 0) continue;
    os << (coefs[k] > 0 ? " + " : " - ")
       << (coefs[k] > 0 ? coefs[k] : -coefs[k]) << " * i" << nest_id << "_"
       << k;
  }
  return os.str();
}

std::string ind(int depth) { return std::string(2 * (depth + 1), ' '); }

std::string cat(std::initializer_list<std::string_view> parts) {
  std::string s;
  for (std::string_view p : parts) s += p;
  return s;
}

}  // namespace

GeneratedProgram generate_affine_program(const GeneratorOptions& opts) {
  util::Rng rng(opts.seed);
  GeneratedProgram out;
  std::ostringstream decls, body;

  for (int n = 0; n < opts.num_nests; ++n) {
    ExpectedNest nest;
    nest.array_name = "A";
    nest.array_name += std::to_string(n);

    const int depth = static_cast<int>(rng.next_in(1, opts.max_depth));
    for (int k = 0; k < depth; ++k) {
      nest.trips.push_back(rng.next_in(opts.min_trip, opts.max_trip));
      // Innermost coefficient stays non-zero so the reference has an
      // effective iterator (passes the Step 4 regularity condition).
      int64_t c = rng.next_in(-opts.max_coef, opts.max_coef);
      if (k == depth - 1 && c == 0) c = 1 + rng.next_in(0, opts.max_coef - 1);
      nest.elem_coefs.push_back(c);
    }

    // Base offset keeps every index non-negative; array length covers
    // the maximal index.
    int64_t min_off = 0, max_off = 0;
    for (int k = 0; k < depth; ++k) {
      const int64_t reach = nest.elem_coefs[k] * (nest.trips[k] - 1);
      if (reach < 0) {
        min_off += reach;
      } else {
        max_off += reach;
      }
    }
    nest.elem_base = -min_off;
    const int64_t len = nest.elem_base + max_off + 1;
    decls << "int " << nest.array_name << "[" << len << "];\n";

    // Pick a surface syntax.
    std::vector<NestStyle> styles = {NestStyle::Subscript};
    if (opts.allow_pointer_for) styles.push_back(NestStyle::PointerFor);
    if (opts.allow_pointer_while) styles.push_back(NestStyle::PointerWhile);
    nest.style = styles[rng.next_below(styles.size())];

    body << "  // nest " << n << "\n";
    body << "  {\n";
    const bool pointer = nest.style != NestStyle::Subscript;
    if (pointer) {
      body << ind(0) << "int *p" << n << " = " << nest.array_name << " + "
           << nest.elem_base << ";\n";
    }
    // Open loops.
    for (int k = 0; k < depth; ++k) {
      std::string iv = "i";
      iv += std::to_string(n);
      iv += '_';
      iv += std::to_string(k);
      if (nest.style == NestStyle::PointerWhile) {
        body << ind(k) << "int " << iv << " = 0;\n";
        body << ind(k) << "while (" << iv << " < " << nest.trips[k]
             << ") {\n";
      } else {
        body << ind(k) << "for (int " << iv << " = 0; " << iv << " < "
             << nest.trips[k] << "; " << iv << "++) {\n";
      }
    }
    // Innermost body.
    if (pointer) {
      body << ind(depth) << "*p" << n << " = i" << n << "_" << (depth - 1)
           << " & 127;\n";
      body << ind(depth) << "p" << n << " += "
           << nest.elem_coefs[depth - 1] << ";\n";
    } else {
      body << ind(depth) << nest.array_name << "["
           << index_expr(nest.elem_base, nest.elem_coefs, n) << "] = i" << n
           << "_" << (depth - 1) << " & 127;\n";
    }
    // Close loops with pointer re-adjustments between levels.
    for (int k = depth - 1; k >= 0; --k) {
      if (nest.style == NestStyle::PointerWhile) {
        body << ind(k + 1) << "i" << n << "_" << k << "++;\n";
      }
      body << ind(k) << "}\n";
      if (pointer && k > 0) {
        // Stepping i_{k-1} by one while i_k rewinds from trips[k] to 0.
        const int64_t adj = nest.elem_coefs[k - 1] -
                            nest.elem_coefs[k] * nest.trips[k];
        if (adj != 0) {
          body << ind(k - 1) << "p" << n << " += " << adj << ";\n";
        }
      }
    }
    body << "  }\n";
    out.nests.push_back(std::move(nest));
  }

  std::ostringstream src;
  src << "// auto-generated affine program (seed " << opts.seed << ")\n";
  src << decls.str();
  src << "int main(void) {\n" << body.str() << "  return 0;\n}\n";
  out.source = src.str();
  return out;
}

// ---------------------------------------------------------------------------
// Stress programs

namespace {

/// Emits a random but by-construction safe MiniC program: every loop is
/// counter-bounded, every index masked into its (power-of-two-sized)
/// array, every divisor forced odd, recursion depth masked small. The
/// result has no ground truth; it exists to drive the two execution
/// engines over the same wide slice of the language.
class StressGen {
 public:
  explicit StressGen(const StressOptions& opts)
      : opts_(opts), rng_(opts.seed ^ 0x5741c0de) {}

  std::string run() {
    std::ostringstream src;
    src << "// auto-generated stress program (seed " << opts_.seed << ")\n";
    src << "int GA[32];\nint GB[32];\nchar GC8[64];\n";
    src << "int GS = " << rng_.next_in(-9, 9) << ";\nfloat GF;\n";
    src << "char GC;\nshort GH = " << rng_.next_in(-300, 300) << ";\n";

    // A bounded-recursion helper plus expression helpers.
    src << "int rec0(int n) {\n"
           "  if (n <= 0) return 1;\n"
           "  return rec0(n - 1) + (n & 7);\n"
           "}\n";
    for (int h = 0; h < opts_.num_helpers; ++h) {
      push_scope();
      locals_.back().push_back("a");
      locals_.back().push_back("b");
      std::ostringstream body;
      body << "  GS " << pick_compound_op() << " " << expr(1) << ";\n";
      body << "  return " << expr(2) << ";\n";
      pop_scope();
      src << "int h" << h << "(int a, int b) {\n" << body.str() << "}\n";
    }
    helpers_ready_ = true;

    src << "int main(void) {\n";
    push_scope();
    for (int i = 0; i < opts_.num_stmts; ++i) src << stmt(1);
    src << "  printf(\"%d %d %f\\n\", GS, GA[" << rng_.next_in(0, 31)
        << "], GF);\n";
    src << "  return GS & 127;\n";
    pop_scope();
    src << "}\n";
    return src.str();
  }

 private:
  std::string ind(int depth) { return std::string(2 * depth, ' '); }

  void push_scope() {
    locals_.emplace_back();
    loop_vars_.emplace_back();
  }
  void pop_scope() {
    locals_.pop_back();
    loop_vars_.pop_back();
  }

  std::string fresh_local() {
    std::string name = "l";
    name += std::to_string(next_local_++);
    return name;
  }

  /// A random int scalar currently in scope (globals always qualify;
  /// loop counters are readable but never assignable, which is what
  /// keeps every generated loop provably terminating).
  std::string scalar() {
    std::vector<std::string> pool = {"GS", "(int)GC", "GH"};
    for (const auto& scope : locals_)
      for (const auto& name : scope) pool.push_back(name);
    for (const auto& scope : loop_vars_)
      for (const auto& name : scope) pool.push_back(name);
    return pool[rng_.next_below(pool.size())];
  }

  /// A scalar lvalue (assignable — excludes loop counters).
  std::string scalar_lvalue() {
    std::vector<std::string> pool = {"GS", "GC", "GH"};
    for (const auto& scope : locals_)
      for (const auto& name : scope) pool.push_back(name);
    return pool[rng_.next_below(pool.size())];
  }

  std::string pick_compound_op() {
    static const char* kOps[] = {"+=", "-=", "*=", "^=", "|=", "&="};
    return kOps[rng_.next_below(6)];
  }

  std::string array_ref(int depth) {
    const char* arr = rng_.next_bool() ? "GA" : "GB";
    return std::string(arr) + "[(" + expr(depth) + ") & 31]";
  }

  /// Random int-valued expression, depth-bounded. C++ leaves the order
  /// in which the operands of a `+` chain are evaluated unspecified, so
  /// every draw is taken into a named local first. Operands are drawn
  /// right to left, the order GCC evaluated the chains in when the
  /// corpus was generated.
  std::string expr(int depth) {
    if (depth >= opts_.max_expr_depth) {
      switch (rng_.next_below(3)) {
        case 0: return std::to_string(rng_.next_in(-9, 99));
        case 1: return scalar();
        default: return array_ref(depth + 1);
      }
    }
    switch (rng_.next_below(12)) {
      case 0: return std::to_string(rng_.next_in(-99, 999));
      case 1: return scalar();
      case 2: return array_ref(depth + 1);
      case 3: {  // arithmetic; divisors forced odd so they cannot be zero
        static const char* kOps[] = {"+", "-", "*", "&", "|", "^",
                                     "<<", ">>"};
        if (rng_.next_bool(0.25)) {
          const char* op = rng_.next_bool() ? "/" : "%";
          const std::string divisor = expr(depth + 1);
          const std::string lhs = expr(depth + 1);
          return cat({"(", lhs, " ", op, " ((", divisor, ") | 1))"});
        }
        const std::string rhs = expr(depth + 1);
        const char* op = kOps[rng_.next_below(8)];
        const std::string lhs = expr(depth + 1);
        return cat({"(", lhs, " ", op, " ", rhs, ")"});
      }
      case 4: {  // comparisons / logical with side-effect-bearing operands
        static const char* kOps[] = {"<", ">", "<=", ">=", "==", "!=",
                                     "&&", "||"};
        const std::string rhs = expr(depth + 1);
        const char* op = kOps[rng_.next_below(8)];
        const std::string lhs = expr(depth + 1);
        return cat({"(", lhs, " ", op, " ", rhs, ")"});
      }
      case 5: {
        const std::string no = expr(depth + 1);
        const std::string yes = expr(depth + 1);
        const std::string cond = expr(depth + 1);
        return cat({"(", cond, " ? ", yes, " : ", no, ")"});
      }
      case 6: {
        static const char* kOps[] = {"-", "!", "~"};
        const std::string operand = expr(depth + 1);
        return cat({kOps[rng_.next_below(3)], "(", operand, ")"});
      }
      case 7: {  // assignment as an expression
        const std::string rhs = expr(depth + 1);
        const std::string lhs = scalar_lvalue();
        return cat({"(", lhs, " = ", rhs, ")"});
      }
      case 8: {  // pre/post increment of a scalar
        const std::string v = scalar_lvalue();
        static const char* kForms[] = {"++%s", "--%s", "%s++", "%s--"};
        char buf[64];
        std::snprintf(buf, sizeof buf, kForms[rng_.next_below(4)],
                      v.c_str());
        return std::string("(") + buf + ")";
      }
      case 9:
        if (helpers_ready_ && opts_.num_helpers > 0) {
          const std::string b = expr(depth + 1);
          const std::string a = expr(depth + 1);
          const std::string h = std::to_string(
              rng_.next_below(static_cast<uint64_t>(opts_.num_helpers)));
          return cat({"h", h, "(", a, ", ", b, ")"});
        }
        return scalar();
      case 10:
        if (helpers_ready_) {
          return "rec0((" + expr(depth + 1) + ") & 7)";
        }
        return std::to_string(rng_.next_in(0, 63));
      default:
        switch (rng_.next_below(3)) {
          case 0: return "(rand() & 255)";
          case 1: return "abs(" + expr(depth + 1) + ")";
          default: return "(int)(GF * " +
                          std::to_string(rng_.next_in(1, 7)) + ".0f)";
        }
    }
  }

  std::string stmt(int depth) {
    std::ostringstream os;
    const std::string pad = ind(depth);
    if (depth >= 4) {  // keep nesting bounded
      os << pad << array_ref(1) << " = " << expr(1) << ";\n";
      return os.str();
    }
    switch (rng_.next_below(12)) {
      case 0: {  // fresh scalar declaration
        const std::string name = fresh_local();
        os << pad << "int " << name << " = " << expr(1) << ";\n";
        locals_.back().push_back(name);
        break;
      }
      case 1:
        os << pad << array_ref(1) << " " << pick_compound_op() << " "
           << expr(1) << ";\n";
        break;
      case 2:
        os << pad << scalar_lvalue() << " = " << expr(1) << ";\n";
        break;
      case 3: {  // if / else (each branch scopes its declarations)
        os << pad << "if (" << expr(1) << ") {\n";
        push_scope();
        os << stmt(depth + 1);
        pop_scope();
        os << pad << "} else {\n";
        push_scope();
        os << stmt(depth + 1);
        pop_scope();
        os << pad << "}\n";
        break;
      }
      case 4: {  // forward for loop
        const std::string iv = fresh_local();
        const int64_t trip = rng_.next_in(3, 8);
        os << pad << "for (int " << iv << " = 0; " << iv << " < " << trip
           << "; " << iv << "++) {\n";
        push_scope();
        loop_vars_.back().push_back(iv);
        if (rng_.next_bool(0.3)) {
          os << ind(depth + 1) << "if ((" << iv << " & 3) == 1) "
             << (rng_.next_bool() ? "continue" : "break") << ";\n";
        }
        os << stmt(depth + 1);
        pop_scope();
        os << pad << "}\n";
        break;
      }
      case 5: {  // negative-stride for loop
        const std::string iv = fresh_local();
        const int64_t from = rng_.next_in(5, 12);
        const int64_t stride = rng_.next_in(1, 3);
        os << pad << "for (int " << iv << " = " << from << "; " << iv
           << " >= 0; " << iv << " -= " << stride << ") {\n";
        push_scope();
        loop_vars_.back().push_back(iv);
        os << stmt(depth + 1);
        pop_scope();
        os << pad << "}\n";
        break;
      }
      case 6: {  // while with countdown
        const std::string iv = fresh_local();
        os << pad << "{\n";
        push_scope();
        os << ind(depth + 1) << "int " << iv << " = "
           << rng_.next_in(2, 6) << ";\n";
        loop_vars_.back().push_back(iv);
        os << ind(depth + 1) << "while (" << iv << " > 0) {\n";
        os << stmt(depth + 2);
        os << ind(depth + 2) << iv << "--;\n";
        os << ind(depth + 1) << "}\n";
        pop_scope();
        os << pad << "}\n";
        break;
      }
      case 7: {  // do-while
        const std::string iv = fresh_local();
        os << pad << "{\n";
        push_scope();
        os << ind(depth + 1) << "int " << iv << " = 0;\n";
        loop_vars_.back().push_back(iv);
        os << ind(depth + 1) << "do {\n";
        os << stmt(depth + 2);
        os << ind(depth + 2) << iv << "++;\n";
        os << ind(depth + 1) << "} while (" << iv << " < "
           << rng_.next_in(2, 5) << ");\n";
        pop_scope();
        os << pad << "}\n";
        break;
      }
      case 8: {  // pointer walk over a global array
        const std::string pv = fresh_local();
        const std::string iv = fresh_local();
        const char* arr = rng_.next_bool() ? "GA" : "GB";
        const int64_t steps = rng_.next_in(4, 16);
        os << pad << "{\n";
        os << ind(depth + 1) << "int *" << pv << " = " << arr << ";\n";
        os << ind(depth + 1) << "for (int " << iv << " = 0; " << iv
           << " < " << steps << "; " << iv << "++) {\n";
        os << ind(depth + 2) << "*" << pv << " += " << iv << " + "
           << rng_.next_in(0, 9) << ";\n";
        os << ind(depth + 2) << pv << "++;\n";
        os << ind(depth + 1) << "}\n";
        os << pad << "}\n";
        break;
      }
      case 9:  // float updates feed back into integer state
        os << pad << "GF = GF * 0.5f + (float)((" << expr(1)
           << ") & 15) + " << rng_.next_in(0, 3) << "."
           << rng_.next_in(0, 9) << "f;\n";
        break;
      case 10: {  // intrinsic traffic
        switch (rng_.next_below(4)) {
          case 0:
            os << pad << "srand(" << rng_.next_in(0, 255) << ");\n";
            break;
          case 1:
            os << pad << "memset(GC8, " << rng_.next_in(0, 255) << ", "
               << rng_.next_in(1, 32) << ");\n";
            break;
          case 2:
            os << pad << "memcpy(GC8 + 32, GC8, " << rng_.next_in(1, 16)
               << ");\n";
            break;
          default:
            os << pad << "putchar(65 + ((" << expr(2) << ") & 15));\n";
        }
        break;
      }
      default: {  // nested block with shadowing declaration
        os << pad << "{\n";
        push_scope();
        const std::string name = fresh_local();
        os << ind(depth + 1) << "int " << name << " = " << expr(1)
           << ";\n";
        locals_.back().push_back(name);
        os << stmt(depth + 1);
        os << ind(depth + 1) << "GS += " << name << ";\n";
        pop_scope();
        os << pad << "}\n";
        break;
      }
    }
    return os.str();
  }

  const StressOptions& opts_;
  util::Rng rng_;
  std::vector<std::vector<std::string>> locals_;
  /// Loop counters per scope: readable like locals, never assignable.
  std::vector<std::vector<std::string>> loop_vars_;
  int next_local_ = 0;
  bool helpers_ready_ = false;
};

}  // namespace

std::string generate_stress_program(const StressOptions& opts) {
  return StressGen(opts).run();
}

}  // namespace foray::benchsuite
