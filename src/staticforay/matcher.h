// The one static matcher the staticforay passes share: what a canonical
// `for` loop, an affine subscript and a write of a name look like in the
// source, decided once.
//
//   - match_loop reads a `for` statement as {iterator, init, signed
//     delta, relation with the iterator on the left, bound} and records
//     the syntactic form it saw;
//   - affine_form reads an index expression as coefficients per in-scope
//     iterator plus a constant (the LoopTactics idiom of parsing an
//     access into the induction variables it uses);
//   - fold_const is the one constant folder, writes_name the one "this
//     statement writes that name" test, and any_expr / any_stmt /
//     any_stmt_expr the AST walks.
//
// Each pass adds only its own rule: the Table II baseline's
// canonical_loop (static_analysis.h), which pointer conversion uses too,
// and the checker's interval evaluation, invariance check and no-wrap
// proof (extract_trips in checker.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "minic/ast.h"

namespace foray::staticforay {

/// Does `pred` hold for `e` or an expression under it?
template <typename Pred>
bool any_expr(const minic::Expr* e, const Pred& pred) {
  if (e == nullptr) return false;
  if (pred(*e)) return true;
  for (const minic::Expr* child : {e->a.get(), e->b.get(), e->c.get()}) {
    if (any_expr(child, pred)) return true;
  }
  for (const auto& arg : e->args) {
    if (any_expr(arg.get(), pred)) return true;
  }
  return false;
}

/// Does `pred` hold for `s` or a statement under it?
template <typename Pred>
bool any_stmt(const minic::Stmt* s, const Pred& pred) {
  if (s == nullptr) return false;
  if (pred(*s)) return true;
  for (const minic::Stmt* child : {s->init.get(), s->then_branch.get(),
                                   s->else_branch.get(), s->body.get()}) {
    if (any_stmt(child, pred)) return true;
  }
  for (const auto& child : s->stmts) {
    if (any_stmt(child.get(), pred)) return true;
  }
  return false;
}

/// Does `pred` hold for an expression of `s` or of a statement under it
/// (initializers included)?
template <typename Pred>
bool any_stmt_expr(const minic::Stmt* s, const Pred& pred) {
  return any_stmt(s, [&pred](const minic::Stmt& x) {
    if (any_expr(x.expr.get(), pred) || any_expr(x.cond.get(), pred) ||
        any_expr(x.step.get(), pred)) {
      return true;
    }
    for (const minic::VarDecl& d : x.decls) {
      if (any_expr(d.init.get(), pred)) return true;
      for (const auto& i : d.init_list) {
        if (any_expr(i.get(), pred)) return true;
      }
    }
    return false;
  });
}

/// Folds an integer expression of literals, unary minus and `+ - * / <<`
/// (two's-complement wrap-around); nullopt for anything else or a
/// division that would fault.
std::optional<int64_t> fold_const(const minic::Expr* e);

/// Does `s` (or any statement or expression under it) write `name`: an
/// assignment of any kind to it, `++`/`--` on it, taking its address, or
/// a declaration of the same name (a shadow, which a name-based scan
/// cannot tell apart from the outer variable)?
bool writes_name(const minic::Stmt* s, std::string_view name);

/// How the step of a matched loop is written.
enum class StepForm : uint8_t {
  IncDec,    ///< `i++`, `++i`, `i--`, `--i`
  Compound,  ///< `i += k`, `i -= k`
  Assign,    ///< `i = i + k`, `i = k + i`, `i = i - k`
};

/// A `for` statement whose step advances one variable, the iterator, by
/// an expression that does not mention it.
struct LoopMatch {
  const minic::Expr* iter_ref = nullptr;  ///< the step's target identifier
  const minic::Expr* init = nullptr;  ///< e of `int iter = e` / `iter = e`
  /// k of the step; null for `++`/`--`, a unit step. The loop advances
  /// by -k when `down`.
  const minic::Expr* delta = nullptr;
  bool down = false;
  StepForm step = StepForm::IncDec;
  /// The condition as `iter rel bound` (`<`, `<=`, `>`, `>=` or `!=`);
  /// `bound` is null when it is not a comparison of the iterator with an
  /// expression that does not mention it.
  minic::BinaryOp rel = minic::BinaryOp::Lt;
  const minic::Expr* bound = nullptr;
  bool mirrored = false;  ///< written `bound rel' iter`

  const std::string& iter() const { return iter_ref->name; }
};

/// The match of a `for` statement with a condition and a step, or
/// nullopt when the step is not one of the StepForms.
std::optional<LoopMatch> match_loop(const minic::Stmt& s);

/// An index expression as sum(coef[v] * v) + constant over iterators.
struct AffineForm {
  std::map<std::string, int64_t> coef;
  int64_t constant = 0;
};

/// `e` as an affine form over `iterators`: constants, iterators, unary
/// minus, `+`, `-`, a product with a constant side and a left shift by a
/// constant; nullopt for anything else.
std::optional<AffineForm> affine_form(const minic::Expr* e,
                                      const std::set<std::string>& iterators);

}  // namespace foray::staticforay
