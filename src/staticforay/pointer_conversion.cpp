#include "staticforay/pointer_conversion.h"

#include <map>
#include <optional>
#include <string>

namespace foray::staticforay {

namespace {

using minic::AssignOp;
using minic::BinaryOp;
using minic::Expr;
using minic::ExprKind;
using minic::Stmt;
using minic::StmtKind;
using minic::UnaryOp;

bool is_ident(const Expr* e, const std::string& name) {
  return e != nullptr && e->kind == ExprKind::Ident && e->name == name;
}

class ConversionAnalyzer {
 public:
  explicit ConversionAnalyzer(const minic::Program& prog) : prog_(prog) {}

  PointerConversion run() {
    for (const auto& fn : prog_.funcs) {
      candidates_.clear();
      iterators_.clear();
      loops_all_canonical_ = true;
      cur_func_ = fn->name;
      // Pass 1: find candidate pointers and scan uses.
      walk_stmt(fn->body.get());
      // Commit surviving candidates.
      for (const auto& [name, st] : candidates_) {
        if (st.disqualified) continue;
        out_.convertible_pointers.insert(cur_func_ + "/" + name);
        for (int node : st.sites) out_.convertible_ref_nodes.insert(node);
      }
    }
    return std::move(out_);
  }

 private:
  struct Candidate {
    bool disqualified = false;
    std::vector<int> sites;  ///< deref node ids in canonical contexts
  };

  Candidate* candidate(const std::string& name) {
    auto it = candidates_.find(name);
    return it == candidates_.end() ? nullptr : &it->second;
  }

  bool is_affine(const Expr* e) const {
    return affine_form(e, iterators_).has_value();
  }

  /// Recognizes `p`, `p + affine`, `p - affine`, `p++`, `p--`, `++p`,
  /// `--p` and returns the pointer name.
  std::optional<std::string> pointer_walk_operand(const Expr* e) const {
    if (e == nullptr) return std::nullopt;
    if (e->kind == ExprKind::Ident && candidates_.count(e->name)) {
      return e->name;
    }
    if (e->kind == ExprKind::Unary &&
        (e->un_op == UnaryOp::PostInc || e->un_op == UnaryOp::PostDec ||
         e->un_op == UnaryOp::PreInc || e->un_op == UnaryOp::PreDec)) {
      if (e->a->kind == ExprKind::Ident && candidates_.count(e->a->name)) {
        return e->a->name;
      }
      return std::nullopt;
    }
    if (e->kind == ExprKind::Binary &&
        (e->bin_op == BinaryOp::Add || e->bin_op == BinaryOp::Sub)) {
      if (e->a->kind == ExprKind::Ident && candidates_.count(e->a->name) &&
          is_affine(e->b.get())) {
        return e->a->name;
      }
    }
    return std::nullopt;
  }

  /// Is `base` a direct array name (decayed) plus an optional constant?
  bool is_array_base(const Expr* e) const {
    if (e == nullptr) return false;
    if (e->kind == ExprKind::Ident) {
      // Sema marked decayed arrays.
      return e->decayed_array;
    }
    if (e->kind == ExprKind::Binary &&
        (e->bin_op == BinaryOp::Add || e->bin_op == BinaryOp::Sub)) {
      return is_array_base(e->a.get()) &&
             fold_const(e->b.get()).has_value();
    }
    return false;
  }

  void record_site(const std::string& ptr, int node_id) {
    Candidate* c = candidate(ptr);
    if (c == nullptr || c->disqualified) return;
    if (loops_all_canonical_) c->sites.push_back(node_id);
  }

  void disqualify(const std::string& ptr) {
    if (Candidate* c = candidate(ptr)) c->disqualified = true;
  }

  // Walks an expression; `p_use_ok` marks contexts where a bare
  // candidate-pointer mention would already have been handled.
  void walk_expr(const Expr* e) {
    if (e == nullptr) return;
    switch (e->kind) {
      case ExprKind::Ident:
        // A bare use in a context we did not whitelist: aliasing,
        // arithmetic value, comparison... disqualify conservatively.
        if (candidates_.count(e->name)) disqualify(e->name);
        return;
      case ExprKind::Unary: {
        if (e->un_op == UnaryOp::Deref) {
          if (auto p = pointer_walk_operand(e->a.get())) {
            record_site(*p, e->node_id);
            // Still walk nested affine offset expressions, skipping the
            // pointer mention itself.
            if (e->a->kind == ExprKind::Binary) walk_expr(e->a->b.get());
            return;
          }
        }
        if (e->un_op == UnaryOp::AddrOf && e->a->kind == ExprKind::Ident) {
          if (candidates_.count(e->a->name)) disqualify(e->a->name);
          return;
        }
        if ((e->un_op == UnaryOp::PostInc || e->un_op == UnaryOp::PostDec ||
             e->un_op == UnaryOp::PreInc || e->un_op == UnaryOp::PreDec) &&
            e->a->kind == ExprKind::Ident &&
            candidates_.count(e->a->name)) {
          return;  // constant-stride advance: allowed
        }
        walk_expr(e->a.get());
        return;
      }
      case ExprKind::Index: {
        if (e->a->kind == ExprKind::Ident &&
            candidates_.count(e->a->name)) {
          if (is_affine(e->b.get())) {
            record_site(e->a->name, e->node_id);
          } else {
            disqualify(e->a->name);
          }
          walk_expr(e->b.get());
          return;
        }
        walk_expr(e->a.get());
        walk_expr(e->b.get());
        return;
      }
      case ExprKind::Assign: {
        if (e->a->kind == ExprKind::Ident &&
            candidates_.count(e->a->name)) {
          const std::string& p = e->a->name;
          bool ok = false;
          if ((e->as_op == AssignOp::AddA || e->as_op == AssignOp::SubA) &&
              fold_const(e->b.get())) {
            ok = true;  // p += c
          }
          if (e->as_op == AssignOp::Assign) {
            // Re-basing to the same pointer plus a constant keeps the
            // provenance; anything else loses it.
            if (e->b->kind == ExprKind::Binary &&
                (e->b->bin_op == BinaryOp::Add ||
                 e->b->bin_op == BinaryOp::Sub) &&
                is_ident(e->b->a.get(), p) && fold_const(e->b->b.get())) {
              ok = true;
            }
          }
          if (!ok) disqualify(p);
          if (!ok) walk_expr(e->b.get());
          return;
        }
        walk_expr(e->a.get());
        walk_expr(e->b.get());
        return;
      }
      case ExprKind::Call:
        // Passing a tracked pointer to any function kills provenance.
        for (const auto& arg : e->args) walk_expr(arg.get());
        return;
      default:
        walk_expr(e->a.get());
        walk_expr(e->b.get());
        walk_expr(e->c.get());
        for (const auto& arg : e->args) walk_expr(arg.get());
        return;
    }
  }

  void walk_stmt(const Stmt* s) {
    if (s == nullptr) return;
    switch (s->kind) {
      case StmtKind::Decl:
        for (const auto& d : s->decls) {
          if (d.type.ptr == 1 && d.array_len < 0 && d.init != nullptr &&
              is_array_base(d.init.get())) {
            candidates_[d.name] = Candidate{};
          } else if (d.init) {
            walk_expr(d.init.get());
          }
          for (const auto& i : d.init_list) walk_expr(i.get());
        }
        return;
      case StmtKind::Expr:
      case StmtKind::Return:
        walk_expr(s->expr.get());
        return;
      case StmtKind::If:
        walk_expr(s->cond.get());
        walk_stmt(s->then_branch.get());
        walk_stmt(s->else_branch.get());
        return;
      case StmtKind::For: {
        const auto m = canonical_loop(*s);
        walk_stmt(s->init.get());
        walk_expr(s->cond.get());
        walk_expr(s->step.get());
        bool saved = loops_all_canonical_;
        loops_all_canonical_ = loops_all_canonical_ && m;
        if (m) iterators_.insert(m->iter());
        walk_stmt(s->body.get());
        if (m) iterators_.erase(m->iter());
        loops_all_canonical_ = saved;
        return;
      }
      case StmtKind::While:
      case StmtKind::DoWhile: {
        walk_expr(s->cond.get());
        bool saved = loops_all_canonical_;
        loops_all_canonical_ = false;  // no iterator to convert onto
        walk_stmt(s->body.get());
        loops_all_canonical_ = saved;
        return;
      }
      case StmtKind::Block:
        for (const auto& child : s->stmts) walk_stmt(child.get());
        return;
      default:
        return;
    }
  }

  const minic::Program& prog_;
  PointerConversion out_;
  std::map<std::string, Candidate> candidates_;
  std::set<std::string> iterators_;
  bool loops_all_canonical_ = true;
  std::string cur_func_;
};

}  // namespace

PointerConversion analyze_pointer_conversion(const minic::Program& prog) {
  ConversionAnalyzer analyzer(prog);
  return analyzer.run();
}

BaselineComparison compare_baselines(const core::ForayModel& model,
                                     const Analysis& analysis,
                                     const PointerConversion& conv) {
  BaselineComparison out;
  out.model_refs = static_cast<int>(model.refs.size());
  out.foray_gen = out.model_refs;
  for (const auto& ref : model.refs) {
    const int node = minic::node_for_instr_addr(ref.instr);
    bool loops_ok = true;
    for (int loop : ref.emitted_loop_path()) {
      if (!analysis.loop_is_canonical(loop)) loops_ok = false;
    }
    if (loops_ok && analysis.ref_is_affine(node)) {
      ++out.plain_static;
      ++out.with_conversion;
    } else if (loops_ok && conv.ref_is_convertible(node)) {
      ++out.with_conversion;
    }
  }
  return out;
}

}  // namespace foray::staticforay
