#include "staticforay/matcher.h"

#include <limits>

namespace foray::staticforay {

namespace {

using minic::AssignOp;
using minic::BinaryOp;
using minic::Expr;
using minic::ExprKind;
using minic::Stmt;
using minic::StmtKind;
using minic::UnaryOp;

// Two's-complement arithmetic, without signed-overflow UB.
int64_t wrap_add(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t wrap_mul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
int64_t shl_factor(int64_t bits) {
  return static_cast<int64_t>(uint64_t{1} << (bits & 63));
}

bool is_name(const Expr* e) {
  return e != nullptr && e->kind == ExprKind::Ident;
}

bool is_ident(const Expr* e, std::string_view name) {
  return is_name(e) && e->name == name;
}

bool is_incdec(UnaryOp op) {
  return op == UnaryOp::PreInc || op == UnaryOp::PreDec ||
         op == UnaryOp::PostInc || op == UnaryOp::PostDec;
}

bool mentions(const Expr* e, std::string_view name) {
  return any_expr(e, [name](const Expr& x) { return is_ident(&x, name); });
}

/// The relations a loop condition may use.
bool is_loop_rel(BinaryOp op) {
  return op == BinaryOp::Lt || op == BinaryOp::Le || op == BinaryOp::Gt ||
         op == BinaryOp::Ge || op == BinaryOp::Ne;
}

/// `a op b` as `b mirror(op) a`.
BinaryOp mirror(BinaryOp op) {
  switch (op) {
    case BinaryOp::Lt: return BinaryOp::Gt;
    case BinaryOp::Le: return BinaryOp::Ge;
    case BinaryOp::Gt: return BinaryOp::Lt;
    case BinaryOp::Ge: return BinaryOp::Le;
    default: return op;  // Ne is symmetric
  }
}

std::optional<AffineForm> scaled(std::optional<AffineForm> f, int64_t k) {
  if (!f) return f;
  for (auto& [name, c] : f->coef) c = wrap_mul(c, k);
  f->constant = wrap_mul(f->constant, k);
  return f;
}

}  // namespace

std::optional<int64_t> fold_const(const Expr* e) {
  if (e == nullptr) return std::nullopt;
  switch (e->kind) {
    case ExprKind::IntLit:
      return e->int_val;
    case ExprKind::Unary:
      if (e->un_op == UnaryOp::Neg) {
        if (auto v = fold_const(e->a.get())) return wrap_mul(*v, -1);
      }
      return std::nullopt;
    case ExprKind::Binary: {
      auto a = fold_const(e->a.get());
      auto b = fold_const(e->b.get());
      if (!a || !b) return std::nullopt;
      switch (e->bin_op) {
        case BinaryOp::Add: return wrap_add(*a, *b);
        case BinaryOp::Sub: return wrap_add(*a, wrap_mul(*b, -1));
        case BinaryOp::Mul: return wrap_mul(*a, *b);
        case BinaryOp::Div:
          if (*b == 0 ||
              (*a == std::numeric_limits<int64_t>::min() && *b == -1)) {
            return std::nullopt;
          }
          return *a / *b;
        case BinaryOp::Shl: return wrap_mul(*a, shl_factor(*b));
        default: return std::nullopt;
      }
    }
    default:
      return std::nullopt;
  }
}

bool writes_name(const Stmt* s, std::string_view name) {
  const auto declares = [name](const Stmt& x) {
    for (const auto& d : x.decls) {
      if (d.name == name) return true;
    }
    return false;
  };
  const auto writes = [name](const Expr& x) {
    return (x.kind == ExprKind::Assign ||
            (x.kind == ExprKind::Unary &&
             (is_incdec(x.un_op) || x.un_op == UnaryOp::AddrOf))) &&
           is_ident(x.a.get(), name);
  };
  return any_stmt(s, declares) || any_stmt_expr(s, writes);
}

std::optional<LoopMatch> match_loop(const Stmt& s) {
  if (s.kind != StmtKind::For || !s.cond || !s.step) return std::nullopt;
  const Expr& st = *s.step;
  LoopMatch m;
  if (st.kind == ExprKind::Unary && is_incdec(st.un_op) &&
      is_name(st.a.get())) {
    m.down = st.un_op == UnaryOp::PreDec || st.un_op == UnaryOp::PostDec;
  } else if (st.kind == ExprKind::Assign && is_name(st.a.get())) {
    const std::string& it = st.a->name;
    if (st.as_op == AssignOp::AddA || st.as_op == AssignOp::SubA) {
      m.step = StepForm::Compound;
      m.delta = st.b.get();
      m.down = st.as_op == AssignOp::SubA;
    } else if (st.as_op == AssignOp::Assign &&
               st.b->kind == ExprKind::Binary) {
      const Expr* l = st.b->a.get();
      const Expr* r = st.b->b.get();
      m.step = StepForm::Assign;
      if (st.b->bin_op == BinaryOp::Add) {
        m.delta = is_ident(l, it) ? r : is_ident(r, it) ? l : nullptr;
      } else if (st.b->bin_op == BinaryOp::Sub && is_ident(l, it)) {
        m.delta = r;
        m.down = true;
      }
    }
    if (m.delta == nullptr || mentions(m.delta, it)) return std::nullopt;
  } else {
    return std::nullopt;
  }
  m.iter_ref = st.a.get();
  const std::string& it = m.iter();

  if (const Stmt* in = s.init.get()) {
    if (in->kind == StmtKind::Decl && in->decls.size() == 1 &&
        in->decls[0].name == it) {
      m.init = in->decls[0].init.get();
    } else if (in->kind == StmtKind::Expr && in->expr &&
               in->expr->kind == ExprKind::Assign &&
               in->expr->as_op == AssignOp::Assign &&
               is_ident(in->expr->a.get(), it)) {
      m.init = in->expr->b.get();
    }
  }

  const Expr& c = *s.cond;
  if (c.kind == ExprKind::Binary && is_loop_rel(c.bin_op)) {
    if (is_ident(c.a.get(), it) && !mentions(c.b.get(), it)) {
      m.rel = c.bin_op;
      m.bound = c.b.get();
    } else if (is_ident(c.b.get(), it) && !mentions(c.a.get(), it)) {
      m.rel = mirror(c.bin_op);
      m.bound = c.a.get();
      m.mirrored = true;
    }
  }
  return m;
}

std::optional<AffineForm> affine_form(const Expr* e,
                                      const std::set<std::string>& iterators) {
  if (e == nullptr) return std::nullopt;
  if (auto c = fold_const(e)) {
    AffineForm f;
    f.constant = *c;
    return f;
  }
  switch (e->kind) {
    case ExprKind::Ident: {
      if (iterators.count(e->name) == 0) return std::nullopt;
      AffineForm f;
      f.coef[e->name] = 1;
      return f;
    }
    case ExprKind::Unary:
      if (e->un_op != UnaryOp::Neg) return std::nullopt;
      return scaled(affine_form(e->a.get(), iterators), -1);
    case ExprKind::Binary:
      switch (e->bin_op) {
        case BinaryOp::Add:
        case BinaryOp::Sub: {
          auto a = affine_form(e->a.get(), iterators);
          auto b = scaled(affine_form(e->b.get(), iterators),
                          e->bin_op == BinaryOp::Sub ? -1 : 1);
          if (!a || !b) return std::nullopt;
          for (const auto& [name, c] : b->coef) {
            a->coef[name] = wrap_add(a->coef[name], c);
          }
          a->constant = wrap_add(a->constant, b->constant);
          return a;
        }
        case BinaryOp::Mul:
        case BinaryOp::Shl: {
          // A constant factor: either side of a product, the right side
          // of a shift (as 2^k).
          const Expr* var = e->a.get();
          std::optional<int64_t> k = fold_const(e->b.get());
          if (!k && e->bin_op == BinaryOp::Mul) {
            var = e->b.get();
            k = fold_const(e->a.get());
          }
          if (!k) return std::nullopt;
          return scaled(affine_form(var, iterators),
                        e->bin_op == BinaryOp::Shl ? shl_factor(*k) : *k);
        }
        default:
          return std::nullopt;
      }
    default:
      return std::nullopt;
  }
}

}  // namespace foray::staticforay
