#include "sim/resolver.h"

#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace foray::sim {

namespace {

using minic::Expr;
using minic::ExprKind;
using minic::Function;
using minic::Program;
using minic::Stmt;
using minic::StmtKind;
using minic::VarDecl;

class Resolver {
 public:
  explicit Resolver(const Program& prog) : prog_(prog) {
    const size_t nodes = static_cast<size_t>(prog.num_nodes) + 1;
    out_.ident.resize(nodes);
    out_.decl_slot.assign(nodes, -1);
    out_.func_slots.assign(prog.funcs.size(), 0);
  }

  VarResolution run() {
    // Globals bind in declaration order; an initializer sees only the
    // globals declared before it (plus itself), exactly like the
    // interpreter's allocation loop.
    for (const VarDecl& d : prog_.globals) {
      const int32_t index = out_.globals++;
      globals_[d.name] = index;
      resolve_init(d);
    }
    for (const auto& fn : prog_.funcs) {
      next_slot_ = 0;
      max_slot_ = 0;
      scopes_.clear();
      scopes_.emplace_back();
      for (const auto& p : fn->params) {
        bind_decl_node(p.node_id, p.name);
      }
      walk_stmt(fn->body.get());
      scopes_.clear();
      FORAY_CHECK(fn->func_id >= 0 &&
                      static_cast<size_t>(fn->func_id) <
                          out_.func_slots.size(),
                  "function ids must be dense");
      out_.func_slots[static_cast<size_t>(fn->func_id)] = max_slot_;
    }
    return std::move(out_);
  }

 private:
  void bind_decl_node(int node_id, const std::string& name) {
    const int32_t slot = next_slot_++;
    if (next_slot_ > max_slot_) max_slot_ = next_slot_;
    if (node_id >= 0) {
      if (static_cast<size_t>(node_id) >= out_.decl_slot.size()) {
        out_.decl_slot.resize(static_cast<size_t>(node_id) + 1, -1);
      }
      out_.decl_slot[static_cast<size_t>(node_id)] = slot;
    }
    FORAY_CHECK(!scopes_.empty(), "declaration outside any scope");
    scopes_.back()[name] = slot;
  }

  void resolve_init(const VarDecl& d) {
    if (d.init) walk_expr(d.init.get());
    for (const auto& e : d.init_list) walk_expr(e.get());
  }

  void walk_stmt(const Stmt* s) {
    if (s == nullptr) return;
    switch (s->kind) {
      case StmtKind::Expr:
      case StmtKind::Return:
        walk_expr(s->expr.get());
        break;
      case StmtKind::Decl:
        for (const VarDecl& d : s->decls) {
          // The declaration registers before its initializer runs.
          bind_decl_node(d.node_id, d.name);
          resolve_init(d);
        }
        break;
      case StmtKind::If:
        walk_expr(s->cond.get());
        walk_branch(s->then_branch.get());
        walk_branch(s->else_branch.get());
        break;
      case StmtKind::While:
      case StmtKind::DoWhile:
      case StmtKind::For:
        // exec_loop opens one scope that holds the for-initializer.
        scopes_.emplace_back();
        walk_stmt(s->init.get());
        walk_expr(s->cond.get());
        walk_expr(s->step.get());
        walk_branch(s->body.get());
        scopes_.pop_back();
        break;
      case StmtKind::Block:
        scopes_.emplace_back();
        for (const auto& st : s->stmts) walk_stmt(st.get());
        scopes_.pop_back();
        break;
      case StmtKind::Break:
      case StmtKind::Continue:
      case StmtKind::Empty:
        break;
    }
  }

  /// A statement that runs without a scope of its own.
  void walk_branch(const Stmt* s) {
    if (s != nullptr && s->kind == StmtKind::Decl) out_.frame_fixed = false;
    walk_stmt(s);
  }

  void walk_expr(const Expr* e) {
    if (e == nullptr) return;
    if (e->kind == ExprKind::Ident) {
      VarResolution::Binding b;
      for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
        auto found = it->find(e->name);
        if (found != it->end()) {
          b.index = found->second;
          b.global = false;
          b.resolved = true;
          break;
        }
      }
      if (!b.resolved) {
        auto g = globals_.find(e->name);
        if (g != globals_.end()) {
          b.index = g->second;
          b.global = true;
          b.resolved = true;
        }
      }
      if (static_cast<size_t>(e->node_id) >= out_.ident.size()) {
        out_.ident.resize(static_cast<size_t>(e->node_id) + 1);
      }
      out_.ident[static_cast<size_t>(e->node_id)] = b;
      return;
    }
    walk_expr(e->a.get());
    walk_expr(e->b.get());
    walk_expr(e->c.get());
    for (const auto& arg : e->args) walk_expr(arg.get());
  }

  const Program& prog_;
  VarResolution out_;
  std::unordered_map<std::string, int32_t> globals_;
  std::vector<std::unordered_map<std::string, int32_t>> scopes_;
  int32_t next_slot_ = 0;
  int32_t max_slot_ = 0;
};

}  // namespace

VarResolution resolve_variables(const minic::Program& prog) {
  return Resolver(prog).run();
}

}  // namespace foray::sim
