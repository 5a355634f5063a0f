#include "staticforay/checker.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "instrument/annotator.h"
#include "minic/intrinsics.h"
#include "minic/parser.h"
#include "sim/memory.h"
#include "staticforay/matcher.h"

namespace foray::staticforay {
namespace {

/// Abstract-interpretation work budget (statement visits); exceeding it
/// degrades the analysis to an AnalysisLimit warning with unbounded
/// cost, never to unsoundness.
constexpr uint64_t kMaxAbstractSteps = 2'000'000;

using minic::AssignOp;
using minic::BinaryOp;
using minic::Expr;
using minic::ExprKind;
using minic::Function;
using minic::Program;
using minic::Stmt;
using minic::StmtKind;
using minic::Type;
using minic::UnaryOp;
using minic::VarDecl;

// Per-construct step ceilings and floors. The engines count "steps"
// differently (the tree walker once per eval()/exec() call, the VM once
// per dispatched instruction — with fused array ops below the node count
// and expanded short-circuit above it), so the ceilings are generous
// per-node constants and the floors sparse per-statement ones;
// tests/checker_test.cpp ratchets both against the real engines.
constexpr uint64_t kStepsPerNode = 8;
constexpr uint64_t kStepsPerStmt = 8;
constexpr uint64_t kStepsPerIter = 8;
constexpr uint64_t kStepsPerCall = 16;
constexpr uint64_t kStepsPerParam = 8;
/// Analysis inlining depth; far below the engines' 512-frame fault limit,
/// anything deeper is treated like recursion (bounds given up).
constexpr int kMaxAnalysisDepth = 64;
constexpr int kMaxLoopPasses = 8;
constexpr size_t kMaxWarnings = 200;

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();

/// Thrown when the abstract-interpretation work budget runs out; caught
/// in run(), where results degrade to AnalysisLimit + unbounded cost.
struct Bail {};

uint64_t ceil_div_u64(uint64_t a, uint64_t b) {
  return b == 0 ? 0 : a / b + (a % b != 0 ? 1 : 0);
}

// ---------------------------------------------------------------------------
// Abstract state: one interval + init flag per tracked scalar.

enum class InitState : uint8_t { No, Maybe, Yes };

InitState init_join(InitState a, InitState b) {
  return a == b ? a : InitState::Maybe;
}

struct AbsVal {
  Interval iv = Interval::top();
  InitState init = InitState::Yes;
  bool operator==(const AbsVal& o) const {
    return iv == o.iv && init == o.init;
  }
};

struct AbsState {
  bool reachable = true;
  /// Unreachable because a must-fault was already reported on every path
  /// here — suppresses follow-on Unreachable noise.
  bool fault_stop = false;
  /// Every execution that has not faulted or exited earlier reaches this
  /// program point — the precondition for must-fault severity.
  bool definite = true;
  std::map<int, AbsVal> vars;  ///< decl node_id -> tracked scalar value

  bool operator==(const AbsState& o) const {
    return reachable == o.reachable && fault_stop == o.fault_stop &&
           definite == o.definite && vars == o.vars;
  }
};

AbsState st_join(const AbsState& a, const AbsState& b) {
  if (!a.reachable) return b;
  if (!b.reachable) return a;
  AbsState r;
  r.reachable = true;
  r.fault_stop = a.fault_stop && b.fault_stop;
  r.definite = a.definite && b.definite;
  r.vars = a.vars;
  for (const auto& [id, bv] : b.vars) {
    auto it = r.vars.find(id);
    if (it == r.vars.end()) {
      r.vars.emplace(id, bv);
    } else {
      it->second.iv = iv_join(it->second.iv, bv.iv);
      it->second.init = init_join(it->second.init, bv.init);
    }
  }
  return r;
}

/// prev ∇ next, per variable (ends that grew jump to the int64 extremes).
AbsState st_widen(const AbsState& prev, const AbsState& next) {
  AbsState r = next;
  for (auto& [id, v] : r.vars) {
    auto it = prev.vars.find(id);
    if (it != prev.vars.end()) v.iv = iv_widen(it->second.iv, v.iv);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Static AST scans (the walks themselves are staticforay/matcher.h's).

bool stmt_has_return(const Stmt* s) {
  return any_stmt(s, [](const Stmt& x) { return x.kind == StmtKind::Return; });
}

/// A `break` binding to the *enclosing* loop (does not descend into
/// nested loops, where break binds locally).
bool stmt_has_break(const Stmt* s) {
  if (!s) return false;
  switch (s->kind) {
    case StmtKind::Break:
      return true;
    case StmtKind::While:
    case StmtKind::DoWhile:
    case StmtKind::For:
      return false;
    case StmtKind::If:
      return stmt_has_break(s->then_branch.get()) ||
             stmt_has_break(s->else_branch.get());
    case StmtKind::Block:
      for (const auto& x : s->stmts)
        if (stmt_has_break(x.get())) return true;
      return false;
    default:
      return false;
  }
}

/// No assignments, increments or calls: safe to re-evaluate abstractly
/// without mutating the state (loads are fine — array elements and
/// pointer targets are never tracked).
bool is_pure(const Expr& e) {
  return !any_expr(&e, [](const Expr& x) {
    return x.kind == ExprKind::Assign || x.kind == ExprKind::Call ||
           (x.kind == ExprKind::Unary &&
            (x.un_op == UnaryOp::PreInc || x.un_op == UnaryOp::PreDec ||
             x.un_op == UnaryOp::PostInc || x.un_op == UnaryOp::PostDec));
  });
}

bool is_relational(BinaryOp op) {
  switch (op) {
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      return true;
    default:
      return false;
  }
}

BinaryOp negate_rel(BinaryOp op) {
  switch (op) {
    case BinaryOp::Lt: return BinaryOp::Ge;
    case BinaryOp::Le: return BinaryOp::Gt;
    case BinaryOp::Gt: return BinaryOp::Le;
    case BinaryOp::Ge: return BinaryOp::Lt;
    case BinaryOp::Eq: return BinaryOp::Ne;
    default: return BinaryOp::Eq;  // Ne
  }
}

/// Comparison result sharpened to {0}, {1} or [0,1].
Interval iv_compare(BinaryOp op, const Interval& a, const Interval& b) {
  bool t = false, f = false;
  switch (op) {
    case BinaryOp::Lt: t = a.hi < b.lo; f = a.lo >= b.hi; break;
    case BinaryOp::Le: t = a.hi <= b.lo; f = a.lo > b.hi; break;
    case BinaryOp::Gt: t = a.lo > b.hi; f = a.hi <= b.lo; break;
    case BinaryOp::Ge: t = a.lo >= b.hi; f = a.hi < b.lo; break;
    case BinaryOp::Eq:
      t = a.is_singleton() && b.is_singleton() && a.lo == b.lo;
      f = a.hi < b.lo || b.hi < a.lo;
      break;
    case BinaryOp::Ne:
      f = a.is_singleton() && b.is_singleton() && a.lo == b.lo;
      t = a.hi < b.lo || b.hi < a.lo;
      break;
    default:
      break;
  }
  if (t) return Interval::singleton(1);
  if (f) return Interval::singleton(0);
  return Interval::range(0, 1);
}

/// Pure arithmetic transfer (divisor-zero handling is the caller's job:
/// the engines fault before producing a value).
Interval iv_arith(BinaryOp op, const Interval& a, const Interval& b) {
  switch (op) {
    case BinaryOp::Add: return iv_add(a, b);
    case BinaryOp::Sub: return iv_sub(a, b);
    case BinaryOp::Mul: return iv_mul(a, b);
    case BinaryOp::Div: return iv_div(a, b);
    case BinaryOp::Mod: return iv_mod(a, b);
    case BinaryOp::Shl: return iv_shl(a, b);
    case BinaryOp::Shr: return iv_shr(a, b);
    case BinaryOp::BitAnd: return iv_bitand(a, b);
    case BinaryOp::BitOr: return iv_bitor(a, b);
    case BinaryOp::BitXor: return iv_bitxor(a, b);
    default:
      if (is_relational(op)) return iv_compare(op, a, b);
      return Interval::top();
  }
}

// ---------------------------------------------------------------------------
// Cost accumulator for one structured region (function body, loop body,
// branch arm). `min_live` goes false once a path may leave the region
// early — a branch arm that returns/breaks while the join stays
// reachable, or a callee that can exit() the whole program — after which
// later statements stop contributing to the lower bounds (they may never
// run on the completing execution).

struct Acc {
  uint64_t max_steps = 0, max_records = 0;
  uint64_t min_steps = 0, min_records = 0;
  uint64_t max_out = 0, max_heap = 0;
  bool exact = true;
  bool min_live = true;

  void steps(uint64_t mx, uint64_t mn) {
    max_steps = sat_add(max_steps, mx);
    if (min_live) min_steps = sat_add(min_steps, mn);
  }
  void recs(uint64_t mx, uint64_t mn) {
    max_records = sat_add(max_records, mx);
    if (min_live) min_records = sat_add(min_records, mn);
    if (mx != mn || !min_live) exact = false;
  }
  void rec_exact(uint64_t n) { recs(n, n); }
  void out(uint64_t n) { max_out = sat_add(max_out, n); }
  void heap(uint64_t n) { max_heap = sat_add(max_heap, n); }

  /// Sequential append of a finished sub-region (callee body, composed
  /// loop). Does NOT inherit the sub-region's min_live: an early return
  /// inside a callee still returns to us.
  void append(const Acc& b) {
    max_steps = sat_add(max_steps, b.max_steps);
    max_records = sat_add(max_records, b.max_records);
    if (min_live) {
      min_steps = sat_add(min_steps, b.min_steps);
      min_records = sat_add(min_records, b.min_records);
    }
    max_out = sat_add(max_out, b.max_out);
    max_heap = sat_add(max_heap, b.max_heap);
    exact = exact && b.exact;
  }

  /// Branch merge: exactly one of a / b runs.
  void append_alt(const Acc& a, const Acc& b) {
    Acc m;
    m.max_steps = std::max(a.max_steps, b.max_steps);
    m.max_records = std::max(a.max_records, b.max_records);
    m.min_steps = std::min(a.min_steps, b.min_steps);
    m.min_records = std::min(a.min_records, b.min_records);
    m.max_out = std::max(a.max_out, b.max_out);
    m.max_heap = std::max(a.max_heap, b.max_heap);
    m.exact = a.exact && b.exact && a.max_records == b.max_records &&
              a.min_records == b.min_records;
    append(m);
    min_live = min_live && a.min_live && b.min_live;
  }
};

// ---------------------------------------------------------------------------
// The checker proper.

class Checker {
 public:
  explicit Checker(const Program& prog) : prog_(prog) {}

  CheckReport run();

 private:
  struct VarMeta {
    std::string name;
    Type type;
    int array_len = -1;
    bool is_global = false;
    bool tracked = false;  ///< int scalar whose address is never taken
  };
  struct FnFrame {
    const Function* fn = nullptr;
    Interval ret = Interval::singleton(0);
    bool ret_seen = false;
    AbsState ret_state;
    bool ret_state_seen = false;
  };
  struct LoopCtx {
    AbsState brk;
    bool brk_seen = false;
    AbsState cont;
    bool cont_seen = false;
  };
  struct TripInfo {
    uint64_t lo = 0;
    uint64_t hi = kUnbounded;
  };
  struct FnRes {
    Interval ret = Interval::top();
    bool may_exit = false;
  };

  void tick() {
    if (++work_ > kMaxAbstractSteps) throw Bail{};
  }

  void diag(CheckKind k, Severity sev, int line, int node, std::string msg) {
    if (!emit_) return;
    int anchor = node >= 0 ? node : -line;
    int key = (static_cast<int>(k) << 1) | static_cast<int>(sev);
    if (!reported_.insert({anchor, key}).second) return;
    if (sev == Severity::Warning && report_.diags.size() >= kMaxWarnings)
      return;
    report_.diags.push_back(CheckDiag{k, sev, line, node, std::move(msg)});
  }

  // -- scopes and variable registry -----------------------------------------

  void push_scope() { scopes_.emplace_back(); }
  void pop_scope(AbsState* st) {
    for (const auto& [name, id] : scopes_.back()) st->vars.erase(id);
    scopes_.pop_back();
  }
  int lookup(const std::string& name) const {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto f = it->find(name);
      if (f != it->end()) return f->second;
    }
    return -1;
  }
  const VarMeta* meta_of(int decl_id) const {
    auto it = meta_.find(decl_id);
    return it == meta_.end() ? nullptr : &it->second;
  }

  void register_var(const VarDecl& d, bool is_global, AbsState* st) {
    VarMeta m;
    m.name = d.name;
    m.type = d.type;
    m.array_len = d.array_len;
    m.is_global = is_global;
    m.tracked = d.array_len < 0 && d.type.is_integer() &&
                addr_taken_.count(d.name) == 0;
    meta_[d.node_id] = m;
    scopes_.back()[d.name] = d.node_id;
    if (m.tracked) {
      AbsVal v;
      if (is_global) {
        // Global memory is zero-backed before initializers run.
        v.iv = Interval::singleton(0);
        v.init = InitState::Yes;
      } else {
        // Stale stack contents: any value of the declared type.
        v.iv = iv_type_range(d.type.size());
        v.init = InitState::No;
      }
      st->vars[d.node_id] = v;
    }
  }

  void register_param(const minic::Param& p, const Interval& arg,
                      AbsState* st) {
    VarMeta m;
    m.name = p.name;
    m.type = p.type;
    m.tracked = p.type.is_integer() && addr_taken_.count(p.name) == 0;
    meta_[p.node_id] = m;
    scopes_.back()[p.name] = p.node_id;
    if (m.tracked)
      st->vars[p.node_id] =
          AbsVal{iv_truncate(arg, p.type.size()), InitState::Yes};
  }

  // -- pure (side-effect-free) evaluation, used by assume and trip
  //    extraction; never emits diagnostics or cost ---------------------------

  Interval pure_eval(const Expr& e, const AbsState& st) const {
    switch (e.kind) {
      case ExprKind::IntLit:
        return Interval::singleton(e.int_val);
      case ExprKind::Ident: {
        if (e.decayed_array || !e.type.is_integer()) return Interval::top();
        int id = lookup(e.name);
        if (id >= 0) {
          auto it = st.vars.find(id);
          if (it != st.vars.end()) return it->second.iv;
          const VarMeta* m = meta_of(id);
          if (m && m->array_len < 0 && m->type.is_integer())
            return iv_type_range(m->type.size());
        }
        return Interval::top();
      }
      case ExprKind::Unary:
        switch (e.un_op) {
          case UnaryOp::Neg: return iv_neg(pure_eval(*e.a, st));
          case UnaryOp::BitNot: return iv_bitnot(pure_eval(*e.a, st));
          case UnaryOp::Not: {
            Interval c = pure_eval(*e.a, st);
            if (c.is_zero()) return Interval::singleton(1);
            if (!c.contains_zero()) return Interval::singleton(0);
            return Interval::range(0, 1);
          }
          default:
            return Interval::top();
        }
      case ExprKind::Binary: {
        if (e.bin_op == BinaryOp::LogAnd || e.bin_op == BinaryOp::LogOr) {
          Interval a = pure_eval(*e.a, st), b = pure_eval(*e.b, st);
          bool a0 = a.is_zero(), b0 = b.is_zero();
          bool a1 = !a.contains_zero(), b1 = !b.contains_zero();
          if (e.bin_op == BinaryOp::LogAnd) {
            if (a0 || (a1 && b0)) return Interval::singleton(0);
            if (a1 && b1) return Interval::singleton(1);
          } else {
            if (a1 || (a0 && b1)) return Interval::singleton(1);
            if (a0 && b0) return Interval::singleton(0);
          }
          return Interval::range(0, 1);
        }
        if (!e.a->type.is_integer() || !e.b->type.is_integer()) {
          return is_relational(e.bin_op) ? Interval::range(0, 1)
                                         : Interval::top();
        }
        return iv_arith(e.bin_op, pure_eval(*e.a, st), pure_eval(*e.b, st));
      }
      case ExprKind::Cast:
        if (e.cast_type.is_integer())
          return iv_truncate(pure_eval(*e.a, st), e.cast_type.size());
        return Interval::top();
      case ExprKind::Cond: {
        Interval c = pure_eval(*e.a, st);
        Interval bt = pure_eval(*e.b, st), bf = pure_eval(*e.c, st);
        if (e.type.is_integer()) {
          bt = iv_truncate(bt, e.type.size());
          bf = iv_truncate(bf, e.type.size());
        }
        if (!c.contains_zero()) return bt;
        if (c.is_zero()) return bf;
        return iv_join(bt, bf);
      }
      default:
        return Interval::top();
    }
  }

  // -- branch narrowing ------------------------------------------------------

  /// Refines *st under "e evaluates truthy == truth". Returns false when
  /// the condition is infeasible in *st (the branch cannot execute).
  /// Only called on pure conditions (or pure subtrees of them).
  bool assume(const Expr& e, bool truth, AbsState* st) const {
    switch (e.kind) {
      case ExprKind::IntLit:
        return (e.int_val != 0) == truth;
      case ExprKind::Unary:
        if (e.un_op == UnaryOp::Not) return assume(*e.a, !truth, st);
        break;
      case ExprKind::Cast:
        if (e.cast_type.is_integer() && e.a->type.is_integer())
          return assume(*e.a, truth, st);
        break;
      case ExprKind::Binary: {
        if (e.bin_op == BinaryOp::LogAnd && truth)
          return assume(*e.a, true, st) && assume(*e.b, true, st);
        if (e.bin_op == BinaryOp::LogOr && !truth)
          return assume(*e.a, false, st) && assume(*e.b, false, st);
        if (is_relational(e.bin_op) && e.a->type.is_integer() &&
            e.b->type.is_integer()) {
          BinaryOp op = truth ? e.bin_op : negate_rel(e.bin_op);
          return assume_rel(op, *e.a, *e.b, st);
        }
        break;
      }
      case ExprKind::Ident: {
        if (e.decayed_array || !e.type.is_integer()) return true;
        int id = lookup(e.name);
        if (id < 0) return true;
        auto it = st->vars.find(id);
        if (it == st->vars.end()) return true;
        Interval& v = it->second.iv;
        if (truth) {
          if (v.is_zero()) return false;
          if (v.lo == 0 && v.hi > 0) v.lo = 1;
          if (v.hi == 0 && v.lo < 0) v.hi = -1;
        } else {
          Interval m;
          if (!iv_meet(v, Interval::singleton(0), &m)) return false;
          v = m;
        }
        return true;
      }
      default:
        break;
    }
    Interval v = pure_eval(e, *st);
    if (truth && v.is_zero()) return false;
    if (!truth && !v.contains_zero()) return false;
    return true;
  }

  bool assume_rel(BinaryOp op, const Expr& ea, const Expr& eb,
                  AbsState* st) const {
    Interval a = pure_eval(ea, *st), b = pure_eval(eb, *st);
    if (iv_compare(op, a, b).is_zero()) return false;
    auto narrow = [&](const Expr& side, const Interval& allowed) -> bool {
      if (side.kind != ExprKind::Ident || side.decayed_array ||
          !side.type.is_integer())
        return true;
      int id = lookup(side.name);
      if (id < 0) return true;
      auto it = st->vars.find(id);
      if (it == st->vars.end()) return true;
      Interval m;
      if (!iv_meet(it->second.iv, allowed, &m)) return false;
      it->second.iv = m;
      return true;
    };
    switch (op) {
      case BinaryOp::Lt:
        return narrow(ea, {kI64Min, b.hi == kI64Min ? kI64Min : b.hi - 1}) &&
               narrow(eb, {a.lo == kI64Max ? kI64Max : a.lo + 1, kI64Max});
      case BinaryOp::Le:
        return narrow(ea, {kI64Min, b.hi}) && narrow(eb, {a.lo, kI64Max});
      case BinaryOp::Gt:
        return narrow(ea, {b.lo == kI64Max ? kI64Max : b.lo + 1, kI64Max}) &&
               narrow(eb, {kI64Min, a.hi == kI64Min ? kI64Min : a.hi - 1});
      case BinaryOp::Ge:
        return narrow(ea, {b.lo, kI64Max}) && narrow(eb, {kI64Min, a.hi});
      case BinaryOp::Eq:
        return narrow(ea, b) && narrow(eb, a);
      case BinaryOp::Ne: {
        // Endpoint trimming only: x != c shaves c off an end of x.
        auto trim = [&](const Expr& side, const Interval& other) -> bool {
          if (!other.is_singleton()) return true;
          if (side.kind != ExprKind::Ident || side.decayed_array ||
              !side.type.is_integer())
            return true;
          int id = lookup(side.name);
          if (id < 0) return true;
          auto it = st->vars.find(id);
          if (it == st->vars.end()) return true;
          Interval& v = it->second.iv;
          if (v.is_singleton() && v.lo == other.lo) return false;
          if (v.lo == other.lo) v.lo += 1;
          if (v.hi == other.lo) v.hi -= 1;
          return true;
        };
        return trim(ea, b) && trim(eb, a);
      }
      default:
        return true;
    }
  }

  // -- expression evaluation -------------------------------------------------
  //
  // Mirrors the engines' trace emission (sim/interpreter.cpp) record for
  // record so straight-line bounds can be exact: scalar ident read = 1,
  // array ident = 0 (address value), plain store = 1, compound/inc-dec =
  // 2, subscript or pointer load = 1, literals and address-of = 0.

  Interval eval(const Expr& e, AbsState& st, Acc& acc) {
    tick();
    acc.steps(kStepsPerNode, 0);
    switch (e.kind) {
      case ExprKind::IntLit:
        return Interval::singleton(e.int_val);
      case ExprKind::FloatLit:
      case ExprKind::StrLit:
        return Interval::top();
      case ExprKind::Ident:
        return eval_ident(e, st, acc);
      case ExprKind::Unary:
        return eval_unary(e, st, acc);
      case ExprKind::Binary:
        return eval_binary(e, st, acc);
      case ExprKind::Assign:
        return eval_assign(e, st, acc);
      case ExprKind::Cond:
        return eval_ternary(e, st, acc);
      case ExprKind::Call:
        return eval_call(e, st, acc);
      case ExprKind::Index:
        return eval_index(e, st, acc);
      case ExprKind::Cast: {
        Interval v = eval(*e.a, st, acc);
        if (e.cast_type.is_integer()) {
          if (e.a->type.is_integer())
            return iv_truncate(v, e.cast_type.size());
          return iv_type_range(e.cast_type.size());
        }
        return Interval::top();
      }
    }
    return Interval::top();
  }

  Interval eval_ident(const Expr& e, AbsState& st, Acc& acc) {
    if (e.decayed_array) return Interval::top();  // address value, no record
    acc.rec_exact(1);                             // scalar load
    int id = lookup(e.name);
    if (id < 0) return Interval::top();
    auto it = st.vars.find(id);
    if (it != st.vars.end()) {
      if (it->second.init == InitState::No)
        diag(CheckKind::UseBeforeInit, Severity::Warning, e.line, e.node_id,
             "'" + e.name + "' is read before initialization");
      else if (it->second.init == InitState::Maybe)
        diag(CheckKind::UseBeforeInit, Severity::Warning, e.line, e.node_id,
             "'" + e.name + "' may be read before initialization");
      return it->second.iv;
    }
    const VarMeta* m = meta_of(id);
    if (m && m->array_len < 0 && m->type.is_integer())
      return iv_type_range(m->type.size());
    return Interval::top();
  }

  Interval eval_unary(const Expr& e, AbsState& st, Acc& acc) {
    switch (e.un_op) {
      case UnaryOp::Neg: {
        Interval v = eval(*e.a, st, acc);
        return e.type.is_integer() ? iv_neg(v) : Interval::top();
      }
      case UnaryOp::BitNot:
        return iv_bitnot(eval(*e.a, st, acc));
      case UnaryOp::Not: {
        Interval v = eval(*e.a, st, acc);
        if (e.a->type.is_integer()) {
          if (v.is_zero()) return Interval::singleton(1);
          if (!v.contains_zero()) return Interval::singleton(0);
        }
        return Interval::range(0, 1);
      }
      case UnaryOp::Deref: {
        eval(*e.a, st, acc);
        diag(CheckKind::PointerUnchecked, Severity::Warning, e.line, e.node_id,
             "unverified pointer dereference");
        acc.rec_exact(1);
        return e.type.is_integer() ? iv_type_range(e.type.size())
                                   : Interval::top();
      }
      case UnaryOp::AddrOf:
        eval_addr(*e.a, st, acc);
        return Interval::top();
      default:  // Pre/Post Inc/Dec
        return eval_incdec(e, st, acc);
    }
  }

  /// Address computation only (operand of &): subscripts are evaluated
  /// but nothing is loaded, and no access can fault (&a[n] is legal).
  void eval_addr(const Expr& e, AbsState& st, Acc& acc) {
    tick();
    acc.steps(kStepsPerNode, 0);
    switch (e.kind) {
      case ExprKind::Ident:
        return;  // slot address, no memory traffic
      case ExprKind::Index:
        if (e.a->kind == ExprKind::Ident && e.a->decayed_array) {
          tick();
          acc.steps(kStepsPerNode, 0);
        } else {
          eval(*e.a, st, acc);
        }
        eval(*e.b, st, acc);
        return;
      case ExprKind::Unary:
        if (e.un_op == UnaryOp::Deref) {
          eval(*e.a, st, acc);
          return;
        }
        break;
      default:
        break;
    }
    eval(e, st, acc);
  }

  // -- lvalues ---------------------------------------------------------------

  struct Place {
    enum Kind { Tracked, UntrackedScalar, ArrayElem, Pointer } kind = Pointer;
    int decl_id = -1;
    Type type;  ///< value type stored through this place
  };

  /// Evaluates an assignment target's address (subscripts, pointer
  /// bases), reporting bounds/pointer diagnostics. No load/store records.
  Place eval_place(const Expr& e, AbsState& st, Acc& acc) {
    tick();
    acc.steps(kStepsPerNode, 0);
    Place p;
    p.type = e.type;
    if (e.kind == ExprKind::Ident && !e.decayed_array) {
      int id = lookup(e.name);
      const VarMeta* m = id >= 0 ? meta_of(id) : nullptr;
      if (m && m->tracked) {
        p.kind = Place::Tracked;
        p.decl_id = id;
      } else {
        p.kind = Place::UntrackedScalar;
      }
      return p;
    }
    if (e.kind == ExprKind::Index) {
      if (e.a->kind == ExprKind::Ident && e.a->decayed_array) {
        tick();
        acc.steps(kStepsPerNode, 0);  // base address
        Interval idx = eval(*e.b, st, acc);
        int id = lookup(e.a->name);
        const VarMeta* m = id >= 0 ? meta_of(id) : nullptr;
        if (m && m->array_len >= 0)
          check_bounds(e, idx, m->array_len, e.a->name);
        p.kind = Place::ArrayElem;
        return p;
      }
      eval(*e.a, st, acc);
      eval(*e.b, st, acc);
      diag(CheckKind::PointerUnchecked, Severity::Warning, e.line, e.node_id,
           "unverified pointer subscript");
      return p;
    }
    if (e.kind == ExprKind::Unary && e.un_op == UnaryOp::Deref) {
      eval(*e.a, st, acc);
      diag(CheckKind::PointerUnchecked, Severity::Warning, e.line, e.node_id,
           "unverified pointer dereference");
      return p;
    }
    eval(e, st, acc);
    diag(CheckKind::PointerUnchecked, Severity::Warning, e.line, e.node_id,
         "unverified memory write");
    return p;
  }

  void check_bounds(const Expr& e, const Interval& idx, int len,
                    const std::string& name) {
    if (idx.lo >= 0 && idx.hi < len) return;
    bool definite_oob = idx.hi < 0 || idx.lo >= len;
    diag(CheckKind::OutOfBounds, Severity::Warning, e.line, e.node_id,
         "subscript " + idx.str() +
             (definite_oob ? " is provably outside '" : " may leave '") +
             name + "[" + std::to_string(len) + "]'");
  }

  Interval load_place(const Place& p, const Expr& at, AbsState& st, Acc& acc) {
    acc.rec_exact(1);
    if (p.kind == Place::Tracked) {
      auto it = st.vars.find(p.decl_id);
      if (it != st.vars.end()) {
        if (it->second.init == InitState::No)
          diag(CheckKind::UseBeforeInit, Severity::Warning, at.line,
               at.node_id, "'" + meta_[p.decl_id].name +
                               "' is read before initialization");
        else if (it->second.init == InitState::Maybe)
          diag(CheckKind::UseBeforeInit, Severity::Warning, at.line,
               at.node_id, "'" + meta_[p.decl_id].name +
                               "' may be read before initialization");
        return it->second.iv;
      }
    }
    return p.type.is_integer() ? iv_type_range(p.type.size())
                               : Interval::top();
  }

  Interval store_place(const Place& p, Interval v, AbsState& st, Acc& acc) {
    acc.rec_exact(1);
    v = p.type.is_integer() ? iv_truncate(v, p.type.size()) : Interval::top();
    if (p.kind == Place::Tracked)
      st.vars[p.decl_id] = AbsVal{v, InitState::Yes};
    return v;
  }

  // -- operators -------------------------------------------------------------

  void check_div(const Interval& b, const Expr& e, AbsState& st) {
    if (b.is_zero()) {
      if (st.definite && st.reachable) {
        diag(CheckKind::DivByZero, Severity::MustFault, e.line, e.node_id,
             "division or modulo by zero on every execution");
      } else {
        diag(CheckKind::DivByZero, Severity::Warning, e.line, e.node_id,
             "division or modulo by provably zero divisor on this path");
      }
      st.reachable = false;
      st.fault_stop = true;
    } else if (b.contains_zero()) {
      diag(CheckKind::DivByZero, Severity::Warning, e.line, e.node_id,
           "divisor may be zero");
    }
  }

  /// After the zero check the surviving executions had a nonzero
  /// divisor; shave provably-impossible endpoint zeros.
  static Interval refine_divisor(BinaryOp op, Interval b) {
    if (op == BinaryOp::Div || op == BinaryOp::Mod) {
      if (b.lo == 0 && b.hi > 0) b.lo = 1;
      if (b.hi == 0 && b.lo < 0) b.hi = -1;
    }
    return b;
  }

  static BinaryOp compound_op(AssignOp op) {
    switch (op) {
      case AssignOp::AddA: return BinaryOp::Add;
      case AssignOp::SubA: return BinaryOp::Sub;
      case AssignOp::MulA: return BinaryOp::Mul;
      case AssignOp::DivA: return BinaryOp::Div;
      case AssignOp::ModA: return BinaryOp::Mod;
      case AssignOp::ShlA: return BinaryOp::Shl;
      case AssignOp::ShrA: return BinaryOp::Shr;
      case AssignOp::AndA: return BinaryOp::BitAnd;
      case AssignOp::OrA: return BinaryOp::BitOr;
      default: return BinaryOp::BitXor;  // XorA
    }
  }

  Interval eval_assign(const Expr& e, AbsState& st, Acc& acc) {
    Place p = eval_place(*e.a, st, acc);
    if (e.as_op == AssignOp::Assign) {
      Interval r = eval(*e.b, st, acc);
      if (!e.b->type.is_integer()) r = Interval::top();
      return store_place(p, r, st, acc);
    }
    Interval old = load_place(p, *e.a, st, acc);
    Interval r = eval(*e.b, st, acc);
    BinaryOp op = compound_op(e.as_op);
    if (op == BinaryOp::Div || op == BinaryOp::Mod) check_div(r, e, st);
    Interval nv = Interval::top();
    if (e.a->type.is_integer() && e.b->type.is_integer())
      nv = iv_arith(op, old, refine_divisor(op, r));
    return store_place(p, nv, st, acc);
  }

  Interval eval_incdec(const Expr& e, AbsState& st, Acc& acc) {
    bool inc = e.un_op == UnaryOp::PreInc || e.un_op == UnaryOp::PostInc;
    bool pre = e.un_op == UnaryOp::PreInc || e.un_op == UnaryOp::PreDec;
    Place p = eval_place(*e.a, st, acc);
    Interval old = load_place(p, *e.a, st, acc);
    Interval nv = Interval::top();
    if (e.a->type.is_integer())
      nv = iv_add(old, Interval::singleton(inc ? 1 : -1));
    nv = store_place(p, nv, st, acc);
    return pre ? nv : old;
  }

  Interval eval_binary(const Expr& e, AbsState& st, Acc& acc) {
    if (e.bin_op == BinaryOp::LogAnd || e.bin_op == BinaryOp::LogOr)
      return eval_logical(e, st, acc);
    Interval a = eval(*e.a, st, acc);
    Interval b = eval(*e.b, st, acc);
    if (e.bin_op == BinaryOp::Div || e.bin_op == BinaryOp::Mod)
      check_div(b, e, st);
    bool int_ops = e.a->type.is_integer() && e.b->type.is_integer();
    if (is_relational(e.bin_op))
      return int_ops ? iv_compare(e.bin_op, a, b) : Interval::range(0, 1);
    if (!int_ops || !e.type.is_integer()) return Interval::top();
    return iv_arith(e.bin_op, a, refine_divisor(e.bin_op, b));
  }

  /// Max-side cost of a conditionally-evaluated region; min side only
  /// when it provably runs.
  static void append_cond(Acc& acc, const Acc& b, bool definitely_runs) {
    acc.max_steps = sat_add(acc.max_steps, b.max_steps);
    acc.max_records = sat_add(acc.max_records, b.max_records);
    acc.max_out = sat_add(acc.max_out, b.max_out);
    acc.max_heap = sat_add(acc.max_heap, b.max_heap);
    if (definitely_runs) {
      if (acc.min_live) {
        acc.min_steps = sat_add(acc.min_steps, b.min_steps);
        acc.min_records = sat_add(acc.min_records, b.min_records);
      }
      acc.exact = acc.exact && b.exact;
    } else if (b.max_records != 0 || !b.exact) {
      acc.exact = false;
    }
    acc.min_live = acc.min_live && b.min_live;
  }

  Interval eval_logical(const Expr& e, AbsState& st, Acc& acc) {
    bool is_and = e.bin_op == BinaryOp::LogAnd;
    Interval a = eval(*e.a, st, acc);
    bool a_true = e.a->type.is_integer() && !a.contains_zero();
    bool a_false = a.is_zero();
    bool b_never = is_and ? a_false : a_true;
    bool b_always = is_and ? a_true : a_false;
    Interval b = Interval::range(0, 1);
    if (!b_never) {
      AbsState stB = st;
      if (is_pure(*e.a)) assume(*e.a, is_and, &stB);
      Acc bacc;
      b = eval(*e.b, stB, bacc);
      st = b_always ? stB : st_join(st, stB);
      append_cond(acc, bacc, b_always);
    }
    bool b_true = e.b->type.is_integer() && !b.contains_zero();
    bool b_false = b.is_zero();
    if (is_and) {
      if (a_false || (a_true && b_false)) return Interval::singleton(0);
      if (a_true && b_true) return Interval::singleton(1);
    } else {
      if (a_true || (a_false && b_true)) return Interval::singleton(1);
      if (a_false && b_false) return Interval::singleton(0);
    }
    return Interval::range(0, 1);
  }

  Interval eval_ternary(const Expr& e, AbsState& st, Acc& acc) {
    Interval c = eval(*e.a, st, acc);
    bool pure = is_pure(*e.a);
    bool t_feasible = !c.is_zero();
    bool f_feasible = !(e.a->type.is_integer() && !c.contains_zero());
    AbsState stT = st, stF = st;
    if (pure) {
      if (t_feasible) t_feasible = assume(*e.a, true, &stT);
      if (f_feasible) f_feasible = assume(*e.a, false, &stF);
    }
    if (t_feasible && f_feasible) {
      stT.definite = false;
      stF.definite = false;
    }
    Acc at, af;
    Interval vt = Interval::top(), vf = Interval::top();
    if (t_feasible) vt = eval(*e.b, stT, at);
    if (f_feasible) vf = eval(*e.c, stF, af);
    if (e.type.is_integer()) {
      vt = iv_truncate(vt, e.type.size());
      vf = iv_truncate(vf, e.type.size());
    }
    if (t_feasible && f_feasible) {
      st = st_join(stT, stF);
      acc.append_alt(at, af);
      return iv_join(vt, vf);
    }
    if (t_feasible || f_feasible) {
      st = t_feasible ? stT : stF;
      const Acc& used = t_feasible ? at : af;
      acc.append(used);
      acc.min_live = acc.min_live && used.min_live;
      return t_feasible ? vt : vf;
    }
    return Interval::top();
  }

  Interval eval_index(const Expr& e, AbsState& st, Acc& acc) {
    if (e.a->kind == ExprKind::Ident && e.a->decayed_array) {
      tick();
      acc.steps(kStepsPerNode, 0);  // base address, no record
      Interval idx = eval(*e.b, st, acc);
      int id = lookup(e.a->name);
      const VarMeta* m = id >= 0 ? meta_of(id) : nullptr;
      if (m && m->array_len >= 0)
        check_bounds(e, idx, m->array_len, e.a->name);
      acc.rec_exact(1);  // element load
      return e.type.is_integer() ? iv_type_range(e.type.size())
                                 : Interval::top();
    }
    eval(*e.a, st, acc);
    eval(*e.b, st, acc);
    diag(CheckKind::PointerUnchecked, Severity::Warning, e.line, e.node_id,
         "unverified pointer subscript");
    acc.rec_exact(1);
    return e.type.is_integer() ? iv_type_range(e.type.size())
                               : Interval::top();
  }

  // -- calls -----------------------------------------------------------------

  Interval eval_call(const Expr& e, AbsState& st, Acc& acc) {
    auto intr = minic::find_intrinsic(e.name);
    std::vector<Interval> args;
    args.reserve(e.args.size());
    for (const auto& a : e.args) {
      Interval v = eval(*a, st, acc);
      args.push_back(a->type.is_integer() ? v : Interval::top());
    }
    if (intr) return eval_intrinsic(e, intr->id, args, st, acc);
    const Function* fn = prog_.find_function(e.name);
    if (!fn) return Interval::top();
    // Call/Ret markers + one spill store per parameter (interpreter.cpp
    // call_function), all emitted under default options.
    acc.rec_exact(2 + fn->params.size());
    acc.steps(kStepsPerCall + kStepsPerParam * fn->params.size(), 1);
    FnRes r = analyze_call(*fn, args, e.line, st, acc);
    if (r.may_exit) {
      // The whole program may have terminated inside the callee: nothing
      // after this point is guaranteed to run on a completing execution.
      acc.min_live = false;
      st.definite = false;
    }
    return r.ret;
  }

  void check_negative_size(const Expr& e, const Interval& n, AbsState& st,
                           const char* what) {
    if (n.hi < 0) {
      diag(CheckKind::IntrinsicMisuse,
           st.definite && st.reachable ? Severity::MustFault
                                       : Severity::Warning,
           e.line, e.node_id,
           std::string(what) + " of provably negative size");
      st.reachable = false;
      st.fault_stop = true;
    } else if (n.lo < 0) {
      diag(CheckKind::IntrinsicMisuse, Severity::Warning, e.line, e.node_id,
           std::string(what) + " size may be negative");
    }
  }

  /// memset/memcpy pointer argument: provably inside a named array?
  void check_memarg(const Expr& call, const Expr& arg, const Interval& n,
                    AbsState& st) {
    (void)st;
    if (arg.kind == ExprKind::Ident && arg.decayed_array) {
      int id = lookup(arg.name);
      const VarMeta* m = id >= 0 ? meta_of(id) : nullptr;
      if (m && m->array_len >= 0 && n.hi >= 0 &&
          n.hi <= static_cast<int64_t>(m->array_len) * m->type.size())
        return;
    }
    diag(CheckKind::PointerUnchecked, Severity::Warning, call.line,
         call.node_id, "memory-intrinsic range cannot be verified");
  }

  Interval do_printf(const Expr& e, AbsState& st, Acc& acc) {
    if (e.args.empty() || e.args[0]->kind != ExprKind::StrLit) {
      diag(CheckKind::PointerUnchecked, Severity::Warning, e.line, e.node_id,
           "printf with a non-literal format string");
      acc.out(kUnbounded);
      acc.recs(kUnbounded, 0);
      return Interval::top();
    }
    const std::string& fmt = e.args[0]->str_val;
    uint64_t base = 0;
    int convs = 0;
    std::vector<size_t> s_args;
    for (size_t i = 0; i < fmt.size(); ++i) {
      if (fmt[i] != '%') {
        ++base;
        continue;
      }
      if (i + 1 < fmt.size() && fmt[i + 1] == '%') {
        ++base;
        ++i;
        continue;
      }
      size_t j = i + 1;
      while (j < fmt.size() &&
             (std::isdigit(static_cast<unsigned char>(fmt[j])) ||
              fmt[j] == '-' || fmt[j] == '+' || fmt[j] == ' ' ||
              fmt[j] == '.' || fmt[j] == '#'))
        ++j;
      if (j >= fmt.size()) {
        ++base;
        break;
      }
      if (fmt[j] == 's') s_args.push_back(static_cast<size_t>(convs) + 1);
      ++convs;
      i = j;
    }
    // Each non-%s conversion renders through a 64-byte snprintf buffer
    // (exec_common.h format_printf): at most 63 bytes of output.
    acc.out(base + 63ull * (static_cast<uint64_t>(convs) - s_args.size()));
    for (size_t ai : s_args) {
      if (ai < e.args.size() && e.args[ai]->kind == ExprKind::StrLit) {
        uint64_t len = e.args[ai]->str_val.size();
        acc.out(len);
        // read_cstring scans 4-byte System chunks through the NUL.
        acc.recs(ceil_div_u64(len + 1, 4), ceil_div_u64(len, 4));
      } else {
        diag(CheckKind::PointerUnchecked, Severity::Warning, e.line,
             e.node_id, "non-literal %s argument to printf");
        acc.out(kUnbounded);
        acc.recs(kUnbounded, 0);
      }
    }
    if (static_cast<size_t>(convs) + 1 > e.args.size()) {
      // format_printf faults with "printf: not enough arguments".
      diag(CheckKind::IntrinsicMisuse,
           st.definite && st.reachable ? Severity::MustFault
                                       : Severity::Warning,
           e.line, e.node_id,
           "printf format consumes more arguments than provided");
      st.reachable = false;
      st.fault_stop = true;
    }
    return Interval::top();
  }

  Interval eval_intrinsic(const Expr& e, minic::Intrinsic id,
                          const std::vector<Interval>& args, AbsState& st,
                          Acc& acc) {
    using minic::Intrinsic;
    switch (id) {
      case Intrinsic::Printf:
        return do_printf(e, st, acc);
      case Intrinsic::Putchar:
        acc.out(1);
        return Interval::top();
      case Intrinsic::Puts:
        if (!e.args.empty() && e.args[0]->kind == ExprKind::StrLit) {
          uint64_t len = e.args[0]->str_val.size();
          acc.out(len + 1);  // trailing newline
          acc.recs(ceil_div_u64(len + 1, 4), ceil_div_u64(len, 4));
        } else {
          diag(CheckKind::PointerUnchecked, Severity::Warning, e.line,
               e.node_id, "puts of a non-literal string");
          acc.out(kUnbounded);
          acc.recs(kUnbounded, 0);
        }
        return Interval::top();
      case Intrinsic::Malloc: {
        const Interval& n = args[0];
        check_negative_size(e, n, st, "malloc");
        if (n.hi > 0)
          acc.heap(sat_add(static_cast<uint64_t>(n.hi), 8));  // 8B alignment
        return Interval::top();
      }
      case Intrinsic::Memset:
      case Intrinsic::Memcpy: {
        bool cpy = id == Intrinsic::Memcpy;
        const Interval& n = args[2];
        check_negative_size(e, n, st, cpy ? "memcpy" : "memset");
        uint64_t hi =
            n.hi > 0 ? ceil_div_u64(static_cast<uint64_t>(n.hi), 4) : 0;
        uint64_t lo =
            n.lo > 0 ? ceil_div_u64(static_cast<uint64_t>(n.lo), 4) : 0;
        acc.recs(sat_mul(hi, cpy ? 2 : 1), sat_mul(lo, cpy ? 2 : 1));
        for (int ai = 0; ai < (cpy ? 2 : 1); ++ai)
          check_memarg(e, *e.args[static_cast<size_t>(ai)], n, st);
        return Interval::top();
      }
      case Intrinsic::Rand:
        return Interval::range(0, (int64_t{1} << 30) - 1);
      case Intrinsic::Abs:
        return iv_abs(args[0]);
      case Intrinsic::Assert: {
        const Interval& c = args[0];
        if (c.is_zero()) {
          diag(CheckKind::AssertFail,
               st.definite && st.reachable ? Severity::MustFault
                                           : Severity::Warning,
               e.line, e.node_id, "assertion fails whenever it executes");
          st.reachable = false;
          st.fault_stop = true;
        } else if (c.contains_zero()) {
          diag(CheckKind::AssertFail, Severity::Warning, e.line, e.node_id,
               "assertion may fail");
        }
        // Surviving executions satisfied the condition.
        if (st.reachable && is_pure(*e.args[0]) &&
            !assume(*e.args[0], true, &st)) {
          st.reachable = false;
          st.fault_stop = true;
        }
        return Interval::top();
      }
      case Intrinsic::Exit:
        st.reachable = false;
        acc.min_live = false;
        return Interval::top();
      default:  // free, srand, float math
        return Interval::top();
    }
  }

  // -- statements ------------------------------------------------------------

  static void join_into(AbsState* dst, bool* seen, const AbsState& src) {
    if (!src.reachable) return;
    if (*seen) {
      *dst = st_join(*dst, src);
    } else {
      *dst = src;
      *seen = true;
    }
  }

  void exec_stmt(const Stmt& s, AbsState& st, Acc& acc) {
    tick();
    if (!st.reachable) return;
    switch (s.kind) {
      case StmtKind::Expr:
        acc.steps(kStepsPerStmt, s.expr ? 1 : 0);
        if (s.expr) eval(*s.expr, st, acc);
        return;
      case StmtKind::Decl:
        exec_decl(s, st, acc);
        return;
      case StmtKind::If:
        exec_if(s, st, acc);
        return;
      case StmtKind::While:
      case StmtKind::DoWhile:
      case StmtKind::For:
        exec_loop(s, st, acc);
        return;
      case StmtKind::Block: {
        acc.steps(kStepsPerStmt, 0);
        push_scope();
        for (const auto& x : s.stmts) {
          if (!st.reachable) {
            if (!st.fault_stop && x->kind != StmtKind::Empty)
              diag(CheckKind::Unreachable, Severity::Warning, x->line, -1,
                   "statement can never execute");
            break;
          }
          exec_stmt(*x, st, acc);
        }
        pop_scope(&st);
        return;
      }
      case StmtKind::Return: {
        acc.steps(kStepsPerStmt, 1);
        Interval rv = Interval::singleton(0);
        if (s.expr) {
          rv = eval(*s.expr, st, acc);
          if (!s.expr->type.is_integer()) rv = Interval::top();
        }
        if (!st.reachable || frames_.empty()) return;
        FnFrame& f = frames_.back();
        f.ret = f.ret_seen ? iv_join(f.ret, rv) : rv;
        f.ret_seen = true;
        join_into(&f.ret_state, &f.ret_state_seen, st);
        st.reachable = false;
        return;
      }
      case StmtKind::Break:
        acc.steps(kStepsPerStmt, 0);
        if (!loops_.empty())
          join_into(&loops_.back()->brk, &loops_.back()->brk_seen, st);
        st.reachable = false;
        return;
      case StmtKind::Continue:
        acc.steps(kStepsPerStmt, 0);
        if (!loops_.empty())
          join_into(&loops_.back()->cont, &loops_.back()->cont_seen, st);
        st.reachable = false;
        return;
      case StmtKind::Empty:
        acc.steps(kStepsPerStmt, 0);
        return;
    }
  }

  void exec_decl(const Stmt& s, AbsState& st, Acc& acc) {
    bool any_init = false;
    for (const VarDecl& d : s.decls)
      if (d.init || !d.init_list.empty()) any_init = true;
    acc.steps(kStepsPerStmt, any_init ? 1 : 0);
    for (const VarDecl& d : s.decls) {
      // Register before evaluating the initializer: the engines bind the
      // slot first, so `int x = x;` reads stale memory (and should warn),
      // not fault.
      register_var(d, /*is_global=*/false, &st);
      init_decl(d, st, acc);
    }
  }

  void init_decl(const VarDecl& d, AbsState& st, Acc& acc) {
    if (d.init) {
      Interval v = eval(*d.init, st, acc);
      if (!d.init->type.is_integer() || !d.type.is_integer())
        v = Interval::top();
      acc.rec_exact(1);  // the declaration's own store record
      const VarMeta* m = meta_of(d.node_id);
      if (m && m->tracked)
        st.vars[d.node_id] =
            AbsVal{iv_truncate(v, d.type.size()), InitState::Yes};
    }
    for (const auto& el : d.init_list) {
      eval(*el, st, acc);
      acc.rec_exact(1);  // one element store each
    }
  }

  void exec_if(const Stmt& s, AbsState& st, Acc& acc) {
    acc.steps(kStepsPerStmt, 1);
    Interval c = eval(*s.cond, st, acc);
    if (!st.reachable) return;
    bool def0 = st.definite;
    bool pure = is_pure(*s.cond);
    bool t_feasible = !c.is_zero();
    bool f_feasible = !(s.cond->type.is_integer() && !c.contains_zero());
    AbsState stT = st, stF = st;
    if (pure) {
      if (t_feasible) t_feasible = assume(*s.cond, true, &stT);
      if (f_feasible) f_feasible = assume(*s.cond, false, &stF);
    }
    if (!t_feasible && !f_feasible) {  // defensive: keep one path
      t_feasible = true;
      stT = st;
    }
    if (t_feasible && f_feasible) {
      stT.definite = false;
      stF.definite = false;
    }
    Acc at, af;
    if (t_feasible) {
      exec_stmt(*s.then_branch, stT, at);
    } else {
      diag(CheckKind::Unreachable, Severity::Warning, s.then_branch->line, -1,
           "branch can never execute");
    }
    if (s.else_branch) {
      if (f_feasible) {
        exec_stmt(*s.else_branch, stF, af);
      } else {
        diag(CheckKind::Unreachable, Severity::Warning, s.else_branch->line,
             -1, "branch can never execute");
      }
    }
    if (t_feasible && f_feasible) {
      // Every execution reaches the join iff both arms complete (an arm
      // that must-faults removes no completing executions).
      bool t_done = stT.reachable || stT.fault_stop;
      bool f_done = stF.reachable || stF.fault_stop;
      st = st_join(stT, stF);
      if (st.reachable) st.definite = def0 && t_done && f_done;
      acc.append_alt(at, af);
      if ((!stT.reachable || !stF.reachable) && st.reachable)
        acc.min_live = false;
    } else if (t_feasible) {
      st = stT;
      acc.append(at);
      acc.min_live = acc.min_live && at.min_live;
    } else {
      st = stF;
      acc.append(af);
      acc.min_live = acc.min_live && af.min_live;
    }
  }

  // -- loops -----------------------------------------------------------------

  /// Does `s` call exit(), directly or through a user function that may?
  bool body_may_exit(const Stmt* s) const {
    return any_stmt_expr(s, [this](const Expr& x) {
      if (x.kind != ExprKind::Call) return false;
      if (x.name == "exit") return true;
      if (minic::find_intrinsic(x.name)) return false;
      const Function* fn = prog_.find_function(x.name);
      return fn && fn_may_exit_[static_cast<size_t>(fn->func_id)];
    });
  }

  bool body_has_user_call(const Stmt* s) const {
    return any_stmt_expr(s, [](const Expr& x) {
      return x.kind == ExprKind::Call && !minic::find_intrinsic(x.name);
    });
  }

  // -- canonical trip-count extraction ---------------------------------------

  static __int128 ceil128(__int128 num, __int128 den) {
    return (num + den - 1) / den;  // callers guarantee num >= 0, den >= 1
  }

  /// Pure, loop-invariant expression over tracked scalars only: its
  /// entry-state interval stays valid on every iteration.
  bool invariant_iv(const Expr& e, const Stmt* body, const AbsState& entry,
                    Interval* out) {
    if (!is_pure(e)) return false;
    const bool has_call = body_has_user_call(body);
    const bool variant = any_expr(&e, [&](const Expr& x) {
      if (x.kind == ExprKind::Index ||
          (x.kind == ExprKind::Unary && x.un_op == UnaryOp::Deref)) {
        return true;  // memory reads: any store may change them
      }
      if (x.kind != ExprKind::Ident || x.decayed_array) return false;
      int id = lookup(x.name);
      const VarMeta* m = id >= 0 ? meta_of(id) : nullptr;
      return !m || !m->tracked || writes_name(body, x.name) ||
             (m->is_global && has_call);  // a callee may write it
    });
    if (variant) return false;
    *out = pure_eval(e, entry);
    return true;
  }

  /// Trip-count interval for a canonical for loop: iterator recognized
  /// from the step, invariant bound and delta, and a no-wrap proof that
  /// the iterator's truncating store cannot wrap past its bound (a
  /// wrapped iterator loops forever, so without the proof the only sound
  /// upper bound is "unbounded").
  TripInfo extract_trips(const Stmt& s, const AbsState& entry) {
    TripInfo t;
    const std::optional<LoopMatch> m = match_loop(s);
    if (!m) return t;
    const Stmt* body = s.body.get();
    const std::string& iter = m->iter();
    Interval delta = Interval::singleton(1);
    if (m->delta && !invariant_iv(*m->delta, body, entry, &delta)) return t;
    if (m->down) delta = iv_neg(delta);

    int iid = lookup(iter);
    const VarMeta* im = iid >= 0 ? meta_of(iid) : nullptr;
    if (!im || !im->tracked) return t;
    if (im->is_global && body_has_user_call(body)) return t;
    if (writes_name(body, iter)) {
      diag(CheckKind::CanonicalIterWrite, Severity::Warning, s.line, -1,
           "body of canonical loop writes its iterator '" + iter + "'");
      return t;
    }
    auto vit = entry.vars.find(iid);
    if (vit == entry.vars.end() || vit->second.init != InitState::Yes)
      return t;
    const Interval A = vit->second.iv;

    Interval B;
    if (!m->bound || !invariant_iv(*m->bound, body, entry, &B)) return t;
    const BinaryOp op = m->rel;

    const Interval ty = iv_type_range(im->type.size());
    __int128 trips_hi = 0, trips_lo = 0;
    if (delta.lo >= 1) {
      // Increasing; normalize to an exclusive upper limit L: run while
      // i < L.
      __int128 l_lo, l_hi;
      if (op == BinaryOp::Lt) {
        l_lo = B.lo;
        l_hi = B.hi;
      } else if (op == BinaryOp::Le) {
        l_lo = static_cast<__int128>(B.lo) + 1;
        l_hi = static_cast<__int128>(B.hi) + 1;
      } else if (op == BinaryOp::Ne && delta.is_singleton() &&
                 delta.lo == 1 && A.hi <= B.lo) {
        l_lo = B.lo;
        l_hi = B.hi;
      } else {
        return t;
      }
      if (l_hi - 1 + delta.hi > ty.hi) return t;  // final store may wrap
      trips_hi = A.lo >= l_hi ? 0 : ceil128(l_hi - A.lo, delta.lo);
      trips_lo = A.hi >= l_lo ? 0 : ceil128(l_lo - A.hi, delta.hi);
    } else if (delta.hi <= -1) {
      // Decreasing; inclusive lower limit M: run while i >= M.
      __int128 m_lo, m_hi;
      if (op == BinaryOp::Gt) {
        m_lo = static_cast<__int128>(B.lo) + 1;
        m_hi = static_cast<__int128>(B.hi) + 1;
      } else if (op == BinaryOp::Ge) {
        m_lo = B.lo;
        m_hi = B.hi;
      } else if (op == BinaryOp::Ne && delta.is_singleton() &&
                 delta.lo == -1 && A.lo >= B.hi) {
        m_lo = static_cast<__int128>(B.lo) + 1;
        m_hi = static_cast<__int128>(B.hi) + 1;
      } else {
        return t;
      }
      const __int128 d_lo = -static_cast<__int128>(delta.hi);
      const __int128 d_hi = -static_cast<__int128>(delta.lo);
      if (m_lo - d_hi < ty.lo) return t;  // final store may wrap below
      trips_hi = A.hi < m_lo ? 0 : ceil128(A.hi - m_lo + 1, d_lo);
      trips_lo = A.lo < m_hi ? 0 : ceil128(A.lo - m_hi + 1, d_hi);
    } else {
      return t;  // delta may be zero or of mixed sign
    }
    trips_lo = std::max<__int128>(trips_lo, 0);
    trips_hi = std::max<__int128>(trips_hi, trips_lo);
    t.lo = static_cast<uint64_t>(trips_lo);
    t.hi = static_cast<uint64_t>(trips_hi);
    if (t.hi >= kUnbounded) t.hi = kUnbounded - 1;
    return t;
  }

  // -- loop execution: widening fixpoint, then one reporting pass ------------

  void exec_loop(const Stmt& s, AbsState& st, Acc& acc) {
    acc.steps(kStepsPerStmt, 0);
    const bool is_for = s.kind == StmtKind::For;
    const bool is_do = s.kind == StmtKind::DoWhile;
    push_scope();  // for-init declarations scope over the whole loop
    if (s.init) exec_stmt(*s.init, st, acc);
    if (!st.reachable) {
      pop_scope(&st);
      return;
    }

    const Stmt* body = s.body.get();
    const bool body_break = stmt_has_break(body);
    const bool body_return = stmt_has_return(body);
    const bool body_exit = body_may_exit(body);
    const bool early_out = body_break || body_return || body_exit;

    TripInfo trips = extract_trips(s, st);
    if (is_do) trips.lo = std::max<uint64_t>(trips.lo, 1);
    if (early_out) trips.lo = 0;

    const bool cond_pure = s.cond && is_pure(*s.cond);

    // Quiet widening passes to a stable head state (at the condition for
    // for/while, at the body for do-while). Impure conditions still get
    // evaluated for their side effects.
    AbsState head = st;
    {
      const bool saved_emit = emit_;
      emit_ = false;
      for (int pass = 0; pass < kMaxLoopPasses; ++pass) {
        AbsState out = head;
        Acc scratch;
        if (!is_do && s.cond) {
          eval(*s.cond, out, scratch);
          if (out.reachable && cond_pure && !assume(*s.cond, true, &out))
            out.reachable = false;
        }
        if (out.reachable) {
          LoopCtx lc;
          loops_.push_back(&lc);
          out.definite = false;
          exec_stmt(*body, out, scratch);
          loops_.pop_back();
          if (lc.cont_seen) out = st_join(out, lc.cont);
          if (out.reachable) {
            if (is_for && s.step) eval(*s.step, out, scratch);
            if (is_do && s.cond) {
              eval(*s.cond, out, scratch);
              if (out.reachable && cond_pure && !assume(*s.cond, true, &out))
                out.reachable = false;
            }
          }
        }
        AbsState next = st_join(head, out);
        if (pass >= 1) next = st_widen(head, next);
        next.reachable = head.reachable;
        next.fault_stop = head.fault_stop;
        next.definite = head.definite;
        if (next == head) break;
        head = next;
      }
      emit_ = saved_emit;
    }

    // Reporting pass from the stable head: diagnostics fire here, and the
    // per-iteration sub-costs feed the composed bound. The head state is a
    // superset of the first iteration's entry, so a must-fault proved
    // under it holds on the first trip — which provably runs whenever
    // trips.lo >= 1 (or always, for do-while).
    LoopCtx lc;
    Acc cond_acc, body_acc, step_acc;
    AbsState body_in = head;
    AbsState body_out;
    body_out.reachable = false;
    bool body_feasible = true;
    if (!is_do && s.cond) {
      eval(*s.cond, body_in, cond_acc);
      if (!body_in.reachable) body_feasible = false;
      else if (cond_pure) body_feasible = assume(*s.cond, true, &body_in);
    }
    if (body_feasible) {
      body_in.definite = st.definite && (is_do || trips.lo >= 1);
      body_in.reachable = true;
      body_in.fault_stop = false;
      body_out = body_in;
      loops_.push_back(&lc);
      exec_stmt(*body, body_out, body_acc);
      loops_.pop_back();
      if (lc.cont_seen) body_out = st_join(body_out, lc.cont);
      if (body_out.reachable && is_for && s.step)
        eval(*s.step, body_out, step_acc);
      if (body_out.reachable && is_do && s.cond) eval(*s.cond, body_out, cond_acc);
    } else {
      trips.lo = 0;
      trips.hi = 0;
      diag(CheckKind::Unreachable, Severity::Warning, body->line, -1,
           "loop body never executes");
    }
    if (body_feasible && trips.hi == kUnbounded)
      diag(CheckKind::UnboundedLoop, Severity::Warning, s.line, -1,
           "no finite trip-count bound for this loop");
    if (emit_) note_trips(s.loop_id, trips);

    // Cost composition. Record layout per loop execution under default
    // tracing: LoopEnter/LoopExit bracket (2), BodyBegin + BodyEnd per
    // iteration (2), the condition per evaluation.
    const uint64_t thi = trips.hi, tlo = trips.lo;
    uint64_t cond_hi, cond_lo;
    if (is_do) {
      cond_hi = thi;
      cond_lo = tlo;
    } else if (s.cond) {
      cond_hi = sat_add(thi, 1);
      cond_lo = sat_add(tlo, 1);
    } else {
      cond_hi = cond_lo = 0;
    }
    Acc loop;
    loop.max_records = sat_add(
        2, sat_add(sat_mul(cond_hi, cond_acc.max_records),
                   sat_mul(thi, sat_add(2, sat_add(body_acc.max_records,
                                                   step_acc.max_records)))));
    loop.max_steps = sat_add(
        sat_mul(cond_hi, cond_acc.max_steps),
        sat_mul(thi, sat_add(kStepsPerIter, sat_add(body_acc.max_steps,
                                                    step_acc.max_steps))));
    loop.max_out = sat_add(
        sat_mul(cond_hi, cond_acc.max_out),
        sat_mul(thi, sat_add(body_acc.max_out, step_acc.max_out)));
    loop.max_heap = sat_add(
        sat_mul(cond_hi, cond_acc.max_heap),
        sat_mul(thi, sat_add(body_acc.max_heap, step_acc.max_heap)));
    const bool min_cut = early_out || !cond_acc.min_live ||
                         !body_acc.min_live || !step_acc.min_live;
    if (min_cut) {
      // Some run may leave mid-iteration; only the brackets are certain,
      // and exit() can even skip LoopExit.
      loop.min_records =
          (body_exit || !cond_acc.min_live || !body_acc.min_live) ? 1 : 2;
      loop.min_steps = 0;
    } else {
      const uint64_t per_rec =
          sat_add(2, sat_add(body_acc.min_records, step_acc.min_records));
      const uint64_t per_step = std::max<uint64_t>(
          1, sat_add(body_acc.min_steps, step_acc.min_steps));
      loop.min_records =
          sat_add(2, sat_add(sat_mul(cond_lo, cond_acc.min_records),
                             sat_mul(tlo, per_rec)));
      loop.min_steps = sat_add(sat_mul(cond_lo, cond_acc.min_steps),
                               sat_mul(tlo, per_step));
      if (loop.min_records >= kUnbounded) loop.min_records = kUnbounded - 1;
      if (loop.min_steps >= kUnbounded) loop.min_steps = kUnbounded - 1;
    }
    loop.exact = cond_acc.exact && body_acc.exact && step_acc.exact &&
                 tlo == thi && thi != kUnbounded && !early_out &&
                 loop.min_records == loop.max_records;
    acc.append(loop);
    if (body_return || body_exit) acc.min_live = false;

    // Post-loop state: normal exit (condition false) joined with breaks.
    AbsState exit_st;
    bool exit_seen = false;
    if (!is_do) {
      if (s.cond) {
        AbsState ex = head;
        {
          const bool saved_emit = emit_;
          emit_ = false;  // diagnostics already fired in the report pass
          Acc scratch;
          eval(*s.cond, ex, scratch);
          emit_ = saved_emit;
        }
        if (ex.reachable) {
          bool can_false = true;
          if (cond_pure) can_false = assume(*s.cond, false, &ex);
          if (can_false) {
            exit_st = ex;
            exit_seen = true;
          }
        }
      }
      // for(;;) without a condition never exits normally
    } else if (body_out.reachable && s.cond) {
      AbsState ex = body_out;
      bool can_false = true;
      if (cond_pure) can_false = assume(*s.cond, false, &ex);
      if (can_false) {
        exit_st = ex;
        exit_seen = true;
      }
    }
    if (lc.brk_seen) join_into(&exit_st, &exit_seen, lc.brk);
    if (exit_seen) {
      exit_st.reachable = true;
      exit_st.fault_stop = false;
      exit_st.definite =
          st.definite && thi != kUnbounded && !body_return && !body_exit;
      st = exit_st;
    } else {
      // Infinite, or every path through it faults/returns/exits.
      st.reachable = false;
      st.fault_stop = true;
    }
    pop_scope(&st);
  }

  /// Joins one analysed execution's trips into the report. Only the
  /// reporting pass records: its entry state covers every iteration of
  /// the enclosing loops.
  void note_trips(int loop_id, const TripInfo& t) {
    if (loop_id < 0) return;
    std::vector<TripRange>& v = report_.loop_trips;
    if (v.size() <= static_cast<size_t>(loop_id))
      v.resize(static_cast<size_t>(loop_id) + 1);
    TripRange& r = v[static_cast<size_t>(loop_id)];
    r.lo = std::min(r.lo, t.lo);
    r.hi = std::max(r.hi, t.hi);
  }

  // -- interprocedural: context-sensitive inlining ---------------------------

  FnRes analyze_call(const Function& fn, const std::vector<Interval>& args,
                     int call_line, AbsState& st, Acc& acc) {
    FnRes r;
    const size_t fidx = static_cast<size_t>(fn.func_id);
    r.may_exit = fidx < fn_may_exit_.size() && fn_may_exit_[fidx];
    r.ret =
        fn.ret.is_integer() ? iv_type_range(fn.ret.size()) : Interval::top();
    const bool recursive =
        std::find(call_stack_.begin(), call_stack_.end(), fn.func_id) !=
        call_stack_.end();
    if (recursive || call_stack_.size() >= kMaxAnalysisDepth) {
      gave_up_ = true;
      diag(CheckKind::Recursion, Severity::Warning, call_line, -1,
           recursive ? "recursive call to '" + fn.name +
                           "': effects and bounds unknown"
                     : "call nesting too deep to analyze: '" + fn.name +
                           "' summarized as unknown");
      for (auto& [id, v] : st.vars) {
        const VarMeta* m = meta_of(id);
        if (m && m->is_global) {
          v.iv = iv_type_range(m->type.size());
          v.init = InitState::Yes;
        }
      }
      acc.steps(kUnbounded, 0);
      acc.recs(kUnbounded, 0);
      acc.out(kUnbounded);
      acc.heap(kUnbounded);
      acc.min_live = false;  // may never return (or the engines fault on
      st.definite = false;   // frame depth first)
      r.may_exit = true;
      return r;
    }
    const bool def0 = st.definite;
    call_stack_.push_back(fn.func_id);
    stack_cur_ += fn_frame_bytes_[fidx];
    stack_peak_ = std::max(stack_peak_, stack_cur_);
    push_scope();
    for (size_t i = 0; i < fn.params.size(); ++i)
      register_param(fn.params[i],
                     i < args.size() ? args[i] : Interval::top(), &st);
    frames_.push_back(FnFrame{});
    frames_.back().fn = &fn;
    Acc body_acc;
    exec_stmt(*fn.body, st, body_acc);
    FnFrame fr = frames_.back();
    frames_.pop_back();
    if (st.reachable) {  // falling off the end returns 0 on both engines
      const Interval z = Interval::singleton(0);
      fr.ret = fr.ret_seen ? iv_join(fr.ret, z) : z;
      fr.ret_seen = true;
      join_into(&fr.ret_state, &fr.ret_state_seen, st);
    }
    AbsState after;
    if (fr.ret_state_seen) {
      after = fr.ret_state;
      after.reachable = true;
      after.fault_stop = false;
      after.definite = def0;
    } else {
      after = st;  // never returns: every path faults or exits
      after.reachable = false;
      after.fault_stop = true;
    }
    pop_scope(&after);
    call_stack_.pop_back();
    stack_cur_ -= fn_frame_bytes_[fidx];
    st = after;
    acc.append(body_acc);
    if (fr.ret_seen) {
      r.ret = fn.ret.is_integer() ? iv_truncate(fr.ret, fn.ret.size())
                                  : Interval::top();
    }
    return r;
  }

  /// Conservative frame footprint: params plus every declaration in the
  /// function (the engines reuse block stack space, so this bounds the
  /// true peak), each with worst-case alignment slack.
  static uint64_t frame_decl_bytes(const Stmt* s) {
    if (!s) return 0;
    uint64_t b = 0;
    for (const VarDecl& d : s->decls) {
      uint64_t sz = static_cast<uint64_t>(d.type.size());
      if (d.array_len >= 0) sz *= static_cast<uint64_t>(d.array_len);
      b += sz + 4;
    }
    b += frame_decl_bytes(s->init.get());
    b += frame_decl_bytes(s->then_branch.get());
    b += frame_decl_bytes(s->else_branch.get());
    b += frame_decl_bytes(s->body.get());
    for (const auto& c : s->stmts) b += frame_decl_bytes(c.get());
    return b;
  }

  // -- members ---------------------------------------------------------------

  const Program& prog_;
  CheckReport report_;
  bool emit_ = true;          ///< false during quiet fixpoint passes
  bool gave_up_ = false;      ///< some call's analysis was abandoned
  uint64_t work_ = 0;         ///< abstract statement/expression visits
  std::set<std::string> addr_taken_;
  std::unordered_map<int, VarMeta> meta_;   ///< by declaration node_id
  std::vector<std::map<std::string, int>> scopes_;
  std::vector<FnFrame> frames_;
  std::vector<int> call_stack_;             ///< func_ids being inlined
  std::vector<LoopCtx*> loops_;
  std::set<std::pair<int, int>> reported_;  ///< diag dedup (anchor, kind|sev)
  std::vector<bool> fn_may_exit_;           ///< by func_id, transitive
  std::vector<uint64_t> fn_frame_bytes_;    ///< by func_id
  uint64_t stack_cur_ = 0;
  uint64_t stack_peak_ = 0;
};

CheckReport Checker::run() {
  // Program-wide address-taken scan: a scalar whose address is ever taken
  // (under any scope's spelling of the name — conservative) is untracked.
  const auto scan_addr = [this](const Expr& x) {
    if (x.kind == ExprKind::Unary && x.un_op == UnaryOp::AddrOf && x.a &&
        x.a->kind == ExprKind::Ident)
      addr_taken_.insert(x.a->name);
    return false;  // visit every expression
  };
  for (const VarDecl& g : prog_.globals) {
    any_expr(g.init.get(), scan_addr);
    for (const auto& e : g.init_list) any_expr(e.get(), scan_addr);
  }
  for (const auto& f : prog_.funcs) any_stmt_expr(f->body.get(), scan_addr);

  // Transitive may-exit: the call-graph closure of direct exit() calls.
  fn_may_exit_.assign(prog_.funcs.size(), false);
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t i = 0; i < prog_.funcs.size(); ++i) {
      if (!fn_may_exit_[i] && body_may_exit(prog_.funcs[i]->body.get())) {
        fn_may_exit_[i] = true;
        changed = true;
      }
    }
  }

  fn_frame_bytes_.assign(prog_.funcs.size(), 0);
  for (size_t i = 0; i < prog_.funcs.size(); ++i) {
    uint64_t b = 0;
    for (const auto& p : prog_.funcs[i]->params)
      b += static_cast<uint64_t>(p.type.size()) + 4;
    b += frame_decl_bytes(prog_.funcs[i]->body.get());
    fn_frame_bytes_[i] = b;
  }

  AbsState st;
  Acc acc;
  push_scope();  // global scope
  try {
    for (const VarDecl& g : prog_.globals) {
      register_var(g, /*is_global=*/true, &st);
      init_decl(g, st, acc);  // global initializers emit records too
    }
    const Function* main_fn = prog_.find_function("main");
    if (main_fn) {
      acc.rec_exact(2);  // main's own Call/Ret markers
      acc.steps(kStepsPerCall, 1);
      analyze_call(*main_fn, {}, main_fn->line, st, acc);
    }
  } catch (const Bail&) {
    emit_ = true;  // the bail may land mid-quiet-pass
    gave_up_ = true;
    diag(CheckKind::AnalysisLimit, Severity::Warning, 0, -1,
         "analysis work budget exhausted; bounds degraded to unbounded");
    acc.max_steps = acc.max_records = kUnbounded;
    acc.max_out = acc.max_heap = kUnbounded;
    acc.min_steps = acc.min_records = 0;
    acc.exact = false;
  }
  if (acc.max_heap > sim::Memory::kHeapCapacity)
    diag(CheckKind::HeapLimit, Severity::Warning, 0, -1,
         "heap allocations may exceed the simulated capacity (" +
             cost_bound_str(acc.max_heap) + " > " +
             std::to_string(sim::Memory::kHeapCapacity) + " bytes)");
  if (acc.max_out > sim::Memory::kMaxOutputBytes)
    diag(CheckKind::OutputLimit, Severity::Warning, 0, -1,
         "program output may exceed the output cap (" +
             cost_bound_str(acc.max_out) + " > " +
             std::to_string(sim::Memory::kMaxOutputBytes) + " bytes)");
  if (stack_peak_ > sim::Memory::kStackCapacity)
    diag(CheckKind::StackLimit, Severity::Warning, 0, -1,
         "stack frames may exceed the simulated stack capacity (" +
             std::to_string(stack_peak_) + " > " +
             std::to_string(sim::Memory::kStackCapacity) + " bytes)");
  if (gave_up_) report_.loop_trips.clear();
  report_.cost.max_steps = acc.max_steps;
  report_.cost.max_records = acc.max_records;
  report_.cost.min_steps = std::min(acc.min_steps, acc.max_steps);
  report_.cost.min_records = std::min(acc.min_records, acc.max_records);
  report_.cost.exact = acc.exact &&
                       report_.cost.min_records == report_.cost.max_records &&
                       report_.cost.bounded();
  return report_;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.

std::string_view check_kind_name(CheckKind k) {
  switch (k) {
    case CheckKind::DivByZero: return "div-by-zero";
    case CheckKind::AssertFail: return "assert-fail";
    case CheckKind::OutOfBounds: return "out-of-bounds";
    case CheckKind::UseBeforeInit: return "use-before-init";
    case CheckKind::Unreachable: return "unreachable";
    case CheckKind::CanonicalIterWrite: return "canonical-iter-write";
    case CheckKind::UnboundedLoop: return "unbounded-loop";
    case CheckKind::PointerUnchecked: return "pointer-unchecked";
    case CheckKind::Recursion: return "recursion";
    case CheckKind::StackLimit: return "stack-limit";
    case CheckKind::HeapLimit: return "heap-limit";
    case CheckKind::OutputLimit: return "output-limit";
    case CheckKind::IntrinsicMisuse: return "intrinsic-misuse";
    case CheckKind::AnalysisLimit: return "analysis-limit";
  }
  return "unknown";
}

std::string_view severity_name(Severity s) {
  return s == Severity::MustFault ? "must-fault" : "warning";
}

std::string CheckReport::str() const {
  std::string out;
  for (const CheckDiag& d : diags) {
    out += std::string(severity_name(d.severity));
    out += " [";
    out += check_kind_name(d.kind);
    out += "] line " + std::to_string(d.line) + ": " + d.message + "\n";
  }
  out += cost.str();
  out += "\n";
  return out;
}

CheckReport check_program(const minic::Program& prog) {
  return Checker(prog).run();
}

util::Status lint_source(std::string_view source, CheckReport* out) {
  util::DiagList fe;
  std::unique_ptr<minic::Program> prog = minic::parse_and_check(source, &fe);
  if (!prog)
    return util::Status::failure(util::ErrorCode::kInvalidInput, "frontend",
                                 std::move(fe));
  instrument::annotate_loops(prog.get());
  *out = check_program(*prog);
  return util::Status();
}
}  // namespace foray::staticforay
