#include "instrument/annotator.h"

namespace foray::instrument {

namespace {

using minic::Stmt;
using minic::StmtKind;

class Annotator {
 public:
  explicit Annotator(LoopSiteTable* table) : table_(table) {}

  void walk_function(minic::Function* fn) {
    func_id_ = fn->func_id;
    func_name_ = fn->name;
    depth_ = 0;
    walk(fn->body.get());
  }

 private:
  void walk(Stmt* s) {
    if (s == nullptr) return;
    switch (s->kind) {
      case StmtKind::While:
      case StmtKind::DoWhile:
      case StmtKind::For: {
        LoopSite site;
        site.loop_id = static_cast<int>(table_->sites.size());
        site.kind = s->kind == StmtKind::For    ? LoopKind::For
                    : s->kind == StmtKind::While ? LoopKind::While
                                                 : LoopKind::Do;
        site.line = s->line;
        site.func_id = func_id_;
        site.func_name = func_name_;
        site.lexical_depth = depth_;
        s->loop_id = site.loop_id;
        table_->sites.push_back(std::move(site));
        ++depth_;
        walk(s->init.get());
        walk(s->body.get());
        --depth_;
        break;
      }
      case StmtKind::If:
        walk(s->then_branch.get());
        walk(s->else_branch.get());
        break;
      case StmtKind::Block:
        for (auto& st : s->stmts) walk(st.get());
        break;
      default:
        break;
    }
  }

  LoopSiteTable* table_;
  int func_id_ = -1;
  std::string func_name_;
  int depth_ = 0;
};

}  // namespace

LoopSiteTable annotate_loops(minic::Program* prog) {
  LoopSiteTable table;
  Annotator a(&table);
  for (auto& fn : prog->funcs) a.walk_function(fn.get());
  return table;
}

}  // namespace foray::instrument
