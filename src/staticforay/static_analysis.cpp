#include "staticforay/static_analysis.h"

#include <set>

#include "util/status.h"

namespace foray::staticforay {

namespace {

using minic::Expr;
using minic::ExprKind;
using minic::Stmt;
using minic::StmtKind;
using minic::UnaryOp;

class StaticAnalyzer {
 public:
  explicit StaticAnalyzer(const minic::Program& prog) : prog_(prog) {}

  Analysis run() {
    for (const auto& fn : prog_.funcs) {
      array_vars_.clear();
      iterators_.clear();
      walk_stmt(fn->body.get());
    }
    return std::move(out_);
  }

 private:
  /// Array names visible as direct arrays (globals + locals declared with
  /// []). Parameters are *not* arrays, not even `int xs[]`: it decays to a
  /// pointer whose provenance the baseline cannot establish.
  bool is_array_var(const std::string& name) const {
    if (array_vars_.count(name)) return true;
    for (const auto& g : prog_.globals) {
      if (g.name == name) return g.array_len >= 0;
    }
    return false;
  }

  void walk_expr(const Expr* e) {
    any_expr(e, [this](const Expr& x) {
      if (x.kind == ExprKind::Index) {
        ++out_.total_ref_sites;
        if (x.a->kind == ExprKind::Ident && is_array_var(x.a->name) &&
            affine_form(x.b.get(), iterators_)) {
          out_.affine_ref_nodes.insert(x.node_id);
        }
      }
      if (x.kind == ExprKind::Unary && x.un_op == UnaryOp::Deref) {
        ++out_.total_ref_sites;  // pointer deref: never statically affine
      }
      return false;  // visit every expression
    });
  }

  void walk_stmt(const Stmt* s) {
    if (s == nullptr) return;
    switch (s->kind) {
      case StmtKind::For: {
        ++out_.total_loops;
        const auto m = canonical_loop(*s);
        walk_stmt(s->init.get());
        walk_expr(s->cond.get());
        walk_expr(s->step.get());
        if (m) {
          FORAY_CHECK(s->loop_id >= 0, "program must be annotated");
          out_.canonical_loops.insert(s->loop_id);
          iterators_.insert(m->iter());
          walk_stmt(s->body.get());
          iterators_.erase(m->iter());
        } else {
          walk_stmt(s->body.get());
        }
        break;
      }
      case StmtKind::While:
      case StmtKind::DoWhile:
        ++out_.total_loops;
        walk_expr(s->cond.get());
        walk_stmt(s->body.get());
        break;
      case StmtKind::If:
        walk_expr(s->cond.get());
        walk_stmt(s->then_branch.get());
        walk_stmt(s->else_branch.get());
        break;
      case StmtKind::Block:
        for (const auto& child : s->stmts) walk_stmt(child.get());
        break;
      case StmtKind::Decl:
        for (const auto& d : s->decls) {
          if (d.array_len >= 0) array_vars_.insert(d.name);  // a local array
          walk_expr(d.init.get());
          for (const auto& i : d.init_list) walk_expr(i.get());
        }
        break;
      case StmtKind::Expr:
      case StmtKind::Return:
        walk_expr(s->expr.get());
        break;
      default:
        break;
    }
  }

  const minic::Program& prog_;
  Analysis out_;
  std::set<std::string> iterators_;  ///< canonical iterators in scope
  std::set<std::string> array_vars_; ///< locally declared arrays
};

}  // namespace

std::optional<LoopMatch> canonical_loop(const Stmt& s) {
  std::optional<LoopMatch> m = match_loop(s);
  if (!m || m->step == StepForm::Assign || m->mirrored ||
      m->iter_ref->type != minic::make_type(minic::BaseType::Int) ||
      !fold_const(m->init) || !fold_const(m->bound) ||
      (m->delta && !fold_const(m->delta)) ||
      writes_name(s.body.get(), m->iter())) {
    return std::nullopt;
  }
  return m;
}

Analysis analyze(const minic::Program& prog) {
  StaticAnalyzer analyzer(prog);
  return analyzer.run();
}

ConversionStats compute_conversion(const core::ForayModel& model,
                                   const Analysis& analysis) {
  ConversionStats out;
  out.model_refs = static_cast<int>(model.refs.size());

  // A reference is already FORAY iff its subscript is statically affine
  // and every loop of its emitted nest is a canonical for. A loop is
  // already FORAY iff it is canonical and every model reference it
  // encloses is statically analyzable — a canonical for whose body only
  // walks pointers (adpcm's encoder loop) is useless to a static SPM
  // technique and counts as "not in FORAY form", as in the paper.
  std::set<int> model_loops, not_foray_loops;
  for (const auto& ref : model.refs) {
    const int node = minic::node_for_instr_addr(ref.instr);
    bool static_ok = analysis.ref_is_affine(node);
    for (int loop : ref.emitted_loop_path()) {
      model_loops.insert(loop);
      if (!analysis.loop_is_canonical(loop)) static_ok = false;
    }
    if (!static_ok) {
      ++out.refs_not_foray;
      for (int loop : ref.emitted_loop_path()) {
        not_foray_loops.insert(loop);
      }
    }
  }
  for (int loop : model_loops) {
    if (!analysis.loop_is_canonical(loop)) not_foray_loops.insert(loop);
  }
  out.model_loops = static_cast<int>(model_loops.size());
  out.loops_not_foray = static_cast<int>(not_foray_loops.size());
  return out;
}

}  // namespace foray::staticforay
