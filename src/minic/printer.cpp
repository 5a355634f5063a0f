#include "minic/printer.h"

#include <sstream>

#include "util/status.h"

namespace foray::minic {

namespace {

const char* bin_op_str(BinaryOp op) {
  switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Mod: return "%";
    case BinaryOp::Shl: return "<<";
    case BinaryOp::Shr: return ">>";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::Eq: return "==";
    case BinaryOp::Ne: return "!=";
    case BinaryOp::BitAnd: return "&";
    case BinaryOp::BitOr: return "|";
    case BinaryOp::BitXor: return "^";
    case BinaryOp::LogAnd: return "&&";
    case BinaryOp::LogOr: return "||";
  }
  return "?";
}

const char* assign_op_str(AssignOp op) {
  switch (op) {
    case AssignOp::Assign: return "=";
    case AssignOp::AddA: return "+=";
    case AssignOp::SubA: return "-=";
    case AssignOp::MulA: return "*=";
    case AssignOp::DivA: return "/=";
    case AssignOp::ModA: return "%=";
    case AssignOp::ShlA: return "<<=";
    case AssignOp::ShrA: return ">>=";
    case AssignOp::AndA: return "&=";
    case AssignOp::OrA: return "|=";
    case AssignOp::XorA: return "^=";
  }
  return "?";
}

std::string escape_string(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\0': out += "\\0"; break;
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      default: out += c;
    }
  }
  return out;
}

class Printer {
 public:
  explicit Printer(const PrintOptions& opts) : opts_(opts) {}

  std::string print(const Program& prog) {
    for (const auto& g : prog.globals) {
      print_var_decl(g);
      out_ << ";\n";
    }
    if (!prog.globals.empty()) out_ << "\n";
    for (const auto& f : prog.funcs) {
      print_function(*f);
      out_ << "\n";
    }
    return out_.str();
  }

  void expr(const Expr& e) { print_expr_prec(e, 0); }

  std::string str() { return out_.str(); }

 private:
  void indent() {
    for (int i = 0; i < level_ * opts_.indent_width; ++i) out_ << ' ';
  }

  void print_var_decl(const VarDecl& d) {
    out_ << d.type.str() << " " << d.name;
    if (d.array_len >= 0) out_ << "[" << d.array_len << "]";
    if (d.init) {
      out_ << " = ";
      expr(*d.init);
    } else if (!d.init_list.empty()) {
      out_ << " = {";
      for (size_t i = 0; i < d.init_list.size(); ++i) {
        if (i > 0) out_ << ", ";
        expr(*d.init_list[i]);
      }
      out_ << "}";
    }
  }

  void print_function(const Function& f) {
    out_ << f.ret.str() << " " << f.name << "(";
    if (f.params.empty()) {
      out_ << "void";
    } else {
      for (size_t i = 0; i < f.params.size(); ++i) {
        if (i > 0) out_ << ", ";
        out_ << f.params[i].type.str() << " " << f.params[i].name;
      }
    }
    out_ << ") ";
    print_stmt(*f.body);
  }

  void print_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Expr:
        indent();
        if (s.expr) expr(*s.expr);
        out_ << ";\n";
        break;
      case StmtKind::Decl:
        indent();
        for (size_t i = 0; i < s.decls.size(); ++i) {
          if (i > 0) {
            out_ << ";\n";
            indent();
          }
          print_var_decl(s.decls[i]);
        }
        out_ << ";\n";
        break;
      case StmtKind::If:
        indent();
        out_ << "if (";
        expr(*s.cond);
        out_ << ")\n";
        print_branch(*s.then_branch);
        if (s.else_branch) {
          indent();
          out_ << "else\n";
          print_branch(*s.else_branch);
        }
        break;
      case StmtKind::While:
        print_loop_head(s, [&] {
          out_ << "while (";
          expr(*s.cond);
          out_ << ")";
        });
        break;
      case StmtKind::DoWhile:
        if (annotating(s)) {
          indent();
          out_ << "{ CHECKPOINT(loop_enter, " << s.loop_id << ");\n";
          ++level_;
        }
        indent();
        out_ << "do\n";
        print_loop_body(s);
        indent();
        out_ << "while (";
        expr(*s.cond);
        out_ << ");\n";
        if (annotating(s)) {
          indent();
          out_ << "CHECKPOINT(loop_exit, " << s.loop_id << "); }\n";
          --level_;
        }
        break;
      case StmtKind::For:
        print_loop_head(s, [&] {
          out_ << "for (";
          print_for_init(s);
          out_ << " ";
          if (s.cond) expr(*s.cond);
          out_ << "; ";
          if (s.step) expr(*s.step);
          out_ << ")";
        });
        break;
      case StmtKind::Block:
        indent();
        out_ << "{\n";
        ++level_;
        for (const auto& st : s.stmts) print_stmt(*st);
        --level_;
        indent();
        out_ << "}\n";
        break;
      case StmtKind::Return:
        indent();
        out_ << "return";
        if (s.expr) {
          out_ << " ";
          expr(*s.expr);
        }
        out_ << ";\n";
        break;
      case StmtKind::Break:
        indent();
        out_ << "break;\n";
        break;
      case StmtKind::Continue:
        indent();
        out_ << "continue;\n";
        break;
      case StmtKind::Empty:
        indent();
        out_ << ";\n";
        break;
    }
  }

  bool annotating(const Stmt& s) const {
    return opts_.annotate_checkpoints && s.loop_id >= 0;
  }

  void print_for_init(const Stmt& s) {
    // For-initializer prints inline, without trailing newline.
    if (s.init == nullptr || s.init->kind == StmtKind::Empty) {
      out_ << ";";
      return;
    }
    if (s.init->kind == StmtKind::Expr) {
      expr(*s.init->expr);
      out_ << ";";
      return;
    }
    FORAY_CHECK(s.init->kind == StmtKind::Decl, "unexpected for-init kind");
    for (size_t i = 0; i < s.init->decls.size(); ++i) {
      if (i > 0) out_ << ", ";
      print_var_decl(s.init->decls[i]);
    }
    out_ << ";";
  }

  template <typename HeadFn>
  void print_loop_head(const Stmt& s, HeadFn head) {
    if (annotating(s)) {
      indent();
      out_ << "{ CHECKPOINT(loop_enter, " << s.loop_id << ");\n";
      ++level_;
    }
    indent();
    head();
    out_ << "\n";
    print_loop_body(s);
    if (annotating(s)) {
      indent();
      out_ << "CHECKPOINT(loop_exit, " << s.loop_id << "); }\n";
      --level_;
    }
  }

  void print_loop_body(const Stmt& s) {
    if (!annotating(s)) {
      print_branch(*s.body);
      return;
    }
    ++level_;
    indent();
    out_ << "{ CHECKPOINT(body_begin, " << s.loop_id << ");\n";
    ++level_;
    print_stmt_or_block_contents(*s.body);
    --level_;
    indent();
    out_ << "CHECKPOINT(body_end, " << s.loop_id << "); }\n";
    --level_;
  }

  void print_stmt_or_block_contents(const Stmt& s) {
    if (s.kind == StmtKind::Block) {
      for (const auto& st : s.stmts) print_stmt(*st);
    } else {
      print_stmt(s);
    }
  }

  void print_branch(const Stmt& s) {
    if (s.kind == StmtKind::Block) {
      print_stmt(s);
    } else {
      ++level_;
      print_stmt(s);
      --level_;
    }
  }

  // Precedence-aware expression printing; parenthesizes conservatively.
  void print_expr_prec(const Expr& e, int parent_prec) {
    switch (e.kind) {
      case ExprKind::IntLit:
        out_ << e.int_val;
        break;
      case ExprKind::FloatLit: {
        std::ostringstream tmp;
        tmp << e.float_val;
        std::string s = tmp.str();
        out_ << s;
        if (s.find('.') == std::string::npos &&
            s.find('e') == std::string::npos) {
          out_ << ".0";
        }
        out_ << "f";
        break;
      }
      case ExprKind::StrLit:
        out_ << '"' << escape_string(e.str_val) << '"';
        break;
      case ExprKind::Ident:
        out_ << e.name;
        break;
      case ExprKind::Unary:
        print_unary(e, parent_prec);
        break;
      case ExprKind::Binary: {
        int prec = 3;  // conservative: always parenthesize nested binaries
        if (parent_prec > 0) out_ << "(";
        print_expr_prec(*e.a, prec);
        out_ << " " << bin_op_str(e.bin_op) << " ";
        print_expr_prec(*e.b, prec);
        if (parent_prec > 0) out_ << ")";
        break;
      }
      case ExprKind::Assign:
        if (parent_prec > 0) out_ << "(";
        print_expr_prec(*e.a, 1);
        out_ << " " << assign_op_str(e.as_op) << " ";
        print_expr_prec(*e.b, 0);
        if (parent_prec > 0) out_ << ")";
        break;
      case ExprKind::Cond:
        if (parent_prec > 0) out_ << "(";
        print_expr_prec(*e.a, 1);
        out_ << " ? ";
        print_expr_prec(*e.b, 0);
        out_ << " : ";
        // The false operand is a conditional-expression: an assignment
        // there needs parentheses, or it reparses as an assignment to
        // the whole conditional.
        print_expr_prec(*e.c, e.c->kind == ExprKind::Assign ? 1 : 0);
        if (parent_prec > 0) out_ << ")";
        break;
      case ExprKind::Call:
        out_ << e.name << "(";
        for (size_t i = 0; i < e.args.size(); ++i) {
          if (i > 0) out_ << ", ";
          print_expr_prec(*e.args[i], 0);
        }
        out_ << ")";
        break;
      case ExprKind::Index:
        print_expr_prec(*e.a, 11);
        out_ << "[";
        print_expr_prec(*e.b, 0);
        out_ << "]";
        break;
      case ExprKind::Cast:
        if (parent_prec > 0) out_ << "(";
        out_ << "(" << e.cast_type.str() << ")";
        print_expr_prec(*e.a, 11);
        if (parent_prec > 0) out_ << ")";
        break;
    }
  }

  void print_unary(const Expr& e, int parent_prec) {
    const bool paren = parent_prec > 0;
    if (paren) out_ << "(";
    switch (e.un_op) {
      case UnaryOp::Neg: out_ << "-"; print_expr_prec(*e.a, 11); break;
      case UnaryOp::Not: out_ << "!"; print_expr_prec(*e.a, 11); break;
      case UnaryOp::BitNot: out_ << "~"; print_expr_prec(*e.a, 11); break;
      case UnaryOp::Deref: out_ << "*"; print_expr_prec(*e.a, 11); break;
      case UnaryOp::AddrOf: out_ << "&"; print_expr_prec(*e.a, 11); break;
      case UnaryOp::PreInc: out_ << "++"; print_expr_prec(*e.a, 11); break;
      case UnaryOp::PreDec: out_ << "--"; print_expr_prec(*e.a, 11); break;
      case UnaryOp::PostInc: print_expr_prec(*e.a, 11); out_ << "++"; break;
      case UnaryOp::PostDec: print_expr_prec(*e.a, 11); out_ << "--"; break;
    }
    if (paren) out_ << ")";
  }

  PrintOptions opts_;
  std::ostringstream out_;
  int level_ = 0;
};

}  // namespace

std::string print_program(const Program& prog, const PrintOptions& opts) {
  Printer p(opts);
  return p.print(prog);
}

std::string print_expr(const Expr& e) {
  Printer p(PrintOptions{});
  p.expr(e);
  return p.str();
}

}  // namespace foray::minic
