#include "minic/parser.h"

#include <algorithm>
#include <string>
#include <utility>

#include "minic/lexer.h"
#include "minic/sema.h"
#include "util/strings.h"

namespace foray::minic {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, util::DiagList* diags)
      : toks_(std::move(tokens)), diags_(diags) {}

  std::unique_ptr<Program> parse() {
    auto prog = std::make_unique<Program>();
    while (!at(Tok::kEof)) {
      if (diags_->size() > 50) break;  // runaway error recovery
      parse_top_level(prog.get());
    }
    prog->num_nodes = next_node_id_;
    for (size_t i = 0; i < prog->funcs.size(); ++i) {
      prog->funcs[i]->func_id = static_cast<int>(i);
    }
    return prog;
  }

 private:
  // -- token plumbing -------------------------------------------------------

  const Token& cur() const { return toks_[pos_]; }
  const Token& peek(int ahead = 1) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  bool at(Tok k) const { return cur().kind == k; }
  Token take() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  bool accept(Tok k) {
    if (!at(k)) return false;
    take();
    return true;
  }
  Token expect(Tok k, const char* ctx) {
    if (at(k)) return take();
    error(std::string("expected ") + std::string(tok_name(k)) + " " + ctx +
          ", got " + std::string(tok_name(cur().kind)) +
          (cur().text.empty() ? "" : " '" + cur().text + "'"));
    return cur();
  }
  void error(const std::string& msg) {
    if (!too_deep_) diags_->add(cur().line, msg);
  }

  // -- nesting bound ----------------------------------------------------------
  //
  // depth_ counts the constructs the parser is currently inside
  // (statements, unary operands, assignment and conditional right-hand
  // sides); heights_ holds each finished expression's height, indexed by
  // node id, so left-deep chains (a+b+c..., a[i][j]...) that the parser
  // builds in a loop are bounded too. Past kMaxNesting the parse reports
  // one diagnostic and skips to end of input, which unwinds every level
  // without further messages.

  void too_deep(int line) {
    if (too_deep_) return;
    diags_->add(line, "nesting deeper than " + std::to_string(kMaxNesting) +
                          " levels");
    too_deep_ = true;
    pos_ = toks_.size() - 1;
  }

  /// One level of parser recursion for as long as it lives.
  class Nest {
   public:
    explicit Nest(Parser* p) : p_(p) {
      if (++p_->depth_ > kMaxNesting) p_->too_deep(p_->cur().line);
    }
    ~Nest() { --p_->depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;
    bool ok() const { return !p_->too_deep_; }

   private:
    Parser* p_;
  };

  int height(const ExprPtr& e) const {
    return e ? heights_[static_cast<size_t>(e->node_id)] : 0;
  }

  /// Records the height of `e`, whose children are complete.
  void seal(const Expr& e) {
    int h = std::max({height(e.a), height(e.b), height(e.c)});
    for (const ExprPtr& arg : e.args) h = std::max(h, height(arg));
    heights_[static_cast<size_t>(e.node_id)] = h + 1;
    if (depth_ + h + 1 > kMaxNesting) too_deep(e.line);
  }

  /// Skip tokens until a likely statement boundary (error recovery).
  void synchronize() {
    while (!at(Tok::kEof) && !at(Tok::kSemi) && !at(Tok::kRBrace)) take();
    accept(Tok::kSemi);
  }

  // -- node factories -------------------------------------------------------

  ExprPtr make_expr(ExprKind k, int line) {
    auto e = std::make_unique<Expr>();
    e->kind = k;
    e->node_id = next_node_id_++;
    e->line = line;
    heights_.resize(static_cast<size_t>(next_node_id_), 1);
    return e;
  }
  StmtPtr make_stmt(StmtKind k, int line) {
    auto s = std::make_unique<Stmt>();
    s->kind = k;
    s->line = line;
    return s;
  }

  // -- types ----------------------------------------------------------------

  bool at_type_keyword() const {
    switch (cur().kind) {
      case Tok::kwVoid:
      case Tok::kwChar:
      case Tok::kwShort:
      case Tok::kwInt:
      case Tok::kwFloat:
      case Tok::kwConst:
        return true;
      default:
        return false;
    }
  }

  /// Parse base type keyword(s); `const` is accepted and ignored.
  Type parse_base_type() {
    while (accept(Tok::kwConst)) {
    }
    Type t;
    switch (cur().kind) {
      case Tok::kwVoid: t.base = BaseType::Void; break;
      case Tok::kwChar: t.base = BaseType::Char; break;
      case Tok::kwShort: t.base = BaseType::Short; break;
      case Tok::kwInt: t.base = BaseType::Int; break;
      case Tok::kwFloat: t.base = BaseType::Float; break;
      default:
        error("expected type name");
        return t;
    }
    take();
    while (accept(Tok::kwConst)) {
    }
    return t;
  }

  /// Parse '*'* pointer suffix onto a base type.
  Type parse_pointer_suffix(Type t) {
    while (accept(Tok::kStar)) {
      t.ptr++;
      while (accept(Tok::kwConst)) {
      }
    }
    return t;
  }

  // -- top level ------------------------------------------------------------

  void parse_top_level(Program* prog) {
    if (!at_type_keyword()) {
      error("expected declaration at top level");
      synchronize();
      return;
    }
    Type base = parse_base_type();
    Type full = parse_pointer_suffix(base);
    Token name = expect(Tok::kIdent, "in top-level declaration");
    if (at(Tok::kLParen)) {
      parse_function(prog, full, name);
    } else {
      parse_global_tail(prog, base, full, name);
    }
  }

  void parse_function(Program* prog, Type ret, const Token& name) {
    auto fn = std::make_unique<Function>();
    fn->name = name.text;
    fn->ret = ret;
    fn->line = name.line;
    expect(Tok::kLParen, "after function name");
    if (at(Tok::kwVoid) && peek().kind == Tok::kRParen) {
      take();
    } else if (!at(Tok::kRParen)) {
      do {
        Param p;
        Type pb = parse_base_type();
        p.type = parse_pointer_suffix(pb);
        Token pn = expect(Tok::kIdent, "in parameter list");
        p.name = pn.text;
        p.line = pn.line;
        p.node_id = next_node_id_++;
        if (accept(Tok::kLBracket)) {
          // Array parameters decay to pointers, as in C.
          if (at(Tok::kIntLit)) take();
          expect(Tok::kRBracket, "in array parameter");
          p.type.ptr++;
        }
        fn->params.push_back(std::move(p));
      } while (accept(Tok::kComma));
    }
    expect(Tok::kRParen, "after parameters");
    if (accept(Tok::kSemi)) return;  // prototype: ignored
    fn->body = parse_block();
    prog->funcs.push_back(std::move(fn));
  }

  void parse_global_tail(Program* prog, Type base, Type first_type,
                         const Token& first_name) {
    VarDecl d = parse_declarator_tail(first_type, first_name);
    prog->globals.push_back(std::move(d));
    while (accept(Tok::kComma)) {
      Type t = parse_pointer_suffix(base);
      Token n = expect(Tok::kIdent, "in declaration");
      prog->globals.push_back(parse_declarator_tail(t, n));
    }
    expect(Tok::kSemi, "after declaration");
  }

  /// Parses the "[N]? (= init)?" part of a declarator.
  VarDecl parse_declarator_tail(Type t, const Token& name) {
    VarDecl d;
    d.name = name.text;
    d.type = t;
    d.line = name.line;
    d.node_id = next_node_id_++;
    if (accept(Tok::kLBracket)) {
      Token len = expect(Tok::kIntLit, "as array length");
      d.array_len = static_cast<int>(len.int_val);
      expect(Tok::kRBracket, "after array length");
    }
    if (accept(Tok::kAssign)) {
      if (accept(Tok::kLBrace)) {
        if (!at(Tok::kRBrace)) {
          do {
            d.init_list.push_back(parse_assignment());
          } while (accept(Tok::kComma) && !at(Tok::kRBrace));
        }
        expect(Tok::kRBrace, "after initializer list");
      } else {
        d.init = parse_assignment();
      }
    }
    return d;
  }

  // -- statements -----------------------------------------------------------

  StmtPtr parse_block() {
    auto s = make_stmt(StmtKind::Block, cur().line);
    expect(Tok::kLBrace, "to open block");
    while (!at(Tok::kRBrace) && !at(Tok::kEof)) {
      if (diags_->size() > 50) break;
      s->stmts.push_back(parse_stmt());
    }
    expect(Tok::kRBrace, "to close block");
    return s;
  }

  StmtPtr parse_decl_stmt() {
    auto s = make_stmt(StmtKind::Decl, cur().line);
    Type base = parse_base_type();
    do {
      Type t = parse_pointer_suffix(base);
      Token n = expect(Tok::kIdent, "in declaration");
      s->decls.push_back(parse_declarator_tail(t, n));
    } while (accept(Tok::kComma));
    expect(Tok::kSemi, "after declaration");
    return s;
  }

  StmtPtr parse_stmt() {
    int line = cur().line;
    Nest nest(this);
    if (!nest.ok()) return make_stmt(StmtKind::Empty, line);
    switch (cur().kind) {
      case Tok::kLBrace:
        return parse_block();
      case Tok::kSemi:
        take();
        return make_stmt(StmtKind::Empty, line);
      case Tok::kwIf: {
        take();
        auto s = make_stmt(StmtKind::If, line);
        expect(Tok::kLParen, "after 'if'");
        s->cond = parse_expr();
        expect(Tok::kRParen, "after if condition");
        s->then_branch = parse_stmt();
        if (accept(Tok::kwElse)) s->else_branch = parse_stmt();
        return s;
      }
      case Tok::kwWhile: {
        take();
        auto s = make_stmt(StmtKind::While, line);
        expect(Tok::kLParen, "after 'while'");
        s->cond = parse_expr();
        expect(Tok::kRParen, "after while condition");
        s->body = parse_stmt();
        return s;
      }
      case Tok::kwDo: {
        take();
        auto s = make_stmt(StmtKind::DoWhile, line);
        s->body = parse_stmt();
        expect(Tok::kwWhile, "after do body");
        expect(Tok::kLParen, "after 'while'");
        s->cond = parse_expr();
        expect(Tok::kRParen, "after do-while condition");
        expect(Tok::kSemi, "after do-while");
        return s;
      }
      case Tok::kwFor: {
        take();
        auto s = make_stmt(StmtKind::For, line);
        expect(Tok::kLParen, "after 'for'");
        if (at(Tok::kSemi)) {
          take();
          s->init = make_stmt(StmtKind::Empty, line);
        } else if (at_type_keyword()) {
          s->init = parse_decl_stmt();
        } else {
          auto init = make_stmt(StmtKind::Expr, cur().line);
          init->expr = parse_expr();
          expect(Tok::kSemi, "after for initializer");
          s->init = std::move(init);
        }
        if (!at(Tok::kSemi)) s->cond = parse_expr();
        expect(Tok::kSemi, "after for condition");
        if (!at(Tok::kRParen)) s->step = parse_expr();
        expect(Tok::kRParen, "after for clauses");
        s->body = parse_stmt();
        return s;
      }
      case Tok::kwReturn: {
        take();
        auto s = make_stmt(StmtKind::Return, line);
        if (!at(Tok::kSemi)) s->expr = parse_expr();
        expect(Tok::kSemi, "after return");
        return s;
      }
      case Tok::kwBreak: {
        take();
        expect(Tok::kSemi, "after break");
        return make_stmt(StmtKind::Break, line);
      }
      case Tok::kwContinue: {
        take();
        expect(Tok::kSemi, "after continue");
        return make_stmt(StmtKind::Continue, line);
      }
      default:
        if (at_type_keyword()) return parse_decl_stmt();
        {
          auto s = make_stmt(StmtKind::Expr, line);
          s->expr = parse_expr();
          expect(Tok::kSemi, "after expression");
          if (diags_->size() > 0 && !at(Tok::kEof) && s->expr == nullptr) {
            synchronize();
          }
          return s;
        }
    }
  }

  // -- expressions ----------------------------------------------------------

  ExprPtr parse_expr() { return parse_assignment(); }

  static bool is_assign_op(Tok k) {
    switch (k) {
      case Tok::kAssign:
      case Tok::kPlusEq:
      case Tok::kMinusEq:
      case Tok::kStarEq:
      case Tok::kSlashEq:
      case Tok::kPercentEq:
      case Tok::kAmpEq:
      case Tok::kPipeEq:
      case Tok::kCaretEq:
      case Tok::kShlEq:
      case Tok::kShrEq:
        return true;
      default:
        return false;
    }
  }

  static AssignOp to_assign_op(Tok k) {
    switch (k) {
      case Tok::kAssign: return AssignOp::Assign;
      case Tok::kPlusEq: return AssignOp::AddA;
      case Tok::kMinusEq: return AssignOp::SubA;
      case Tok::kStarEq: return AssignOp::MulA;
      case Tok::kSlashEq: return AssignOp::DivA;
      case Tok::kPercentEq: return AssignOp::ModA;
      case Tok::kShlEq: return AssignOp::ShlA;
      case Tok::kShrEq: return AssignOp::ShrA;
      case Tok::kAmpEq: return AssignOp::AndA;
      case Tok::kPipeEq: return AssignOp::OrA;
      case Tok::kCaretEq: return AssignOp::XorA;
      default: return AssignOp::Assign;
    }
  }

  ExprPtr parse_assignment() {
    ExprPtr lhs = parse_conditional();
    if (is_assign_op(cur().kind)) {
      Token op = take();
      auto e = make_expr(ExprKind::Assign, op.line);
      e->as_op = to_assign_op(op.kind);
      e->a = std::move(lhs);
      {
        Nest nest(this);
        e->b = parse_assignment();
      }
      seal(*e);
      return e;
    }
    return lhs;
  }

  ExprPtr parse_conditional() {
    ExprPtr cond = parse_binary(0);
    if (at(Tok::kQuestion)) {
      Token q = take();
      auto e = make_expr(ExprKind::Cond, q.line);
      e->a = std::move(cond);
      e->b = parse_expr();
      expect(Tok::kColon, "in conditional expression");
      {
        Nest nest(this);
        e->c = parse_conditional();
      }
      seal(*e);
      return e;
    }
    return cond;
  }

  struct BinOpInfo {
    BinaryOp op;
    int prec;
  };

  static bool binop_info(Tok k, BinOpInfo* out) {
    switch (k) {
      case Tok::kPipePipe: *out = {BinaryOp::LogOr, 1}; return true;
      case Tok::kAmpAmp: *out = {BinaryOp::LogAnd, 2}; return true;
      case Tok::kPipe: *out = {BinaryOp::BitOr, 3}; return true;
      case Tok::kCaret: *out = {BinaryOp::BitXor, 4}; return true;
      case Tok::kAmp: *out = {BinaryOp::BitAnd, 5}; return true;
      case Tok::kEqEq: *out = {BinaryOp::Eq, 6}; return true;
      case Tok::kNe: *out = {BinaryOp::Ne, 6}; return true;
      case Tok::kLt: *out = {BinaryOp::Lt, 7}; return true;
      case Tok::kGt: *out = {BinaryOp::Gt, 7}; return true;
      case Tok::kLe: *out = {BinaryOp::Le, 7}; return true;
      case Tok::kGe: *out = {BinaryOp::Ge, 7}; return true;
      case Tok::kShl: *out = {BinaryOp::Shl, 8}; return true;
      case Tok::kShr: *out = {BinaryOp::Shr, 8}; return true;
      case Tok::kPlus: *out = {BinaryOp::Add, 9}; return true;
      case Tok::kMinus: *out = {BinaryOp::Sub, 9}; return true;
      case Tok::kStar: *out = {BinaryOp::Mul, 10}; return true;
      case Tok::kSlash: *out = {BinaryOp::Div, 10}; return true;
      case Tok::kPercent: *out = {BinaryOp::Mod, 10}; return true;
      default: return false;
    }
  }

  ExprPtr parse_binary(int min_prec) {
    ExprPtr lhs = parse_unary();
    for (;;) {
      BinOpInfo info;
      if (!binop_info(cur().kind, &info) || info.prec < min_prec) return lhs;
      Token op = take();
      ExprPtr rhs = parse_binary(info.prec + 1);
      auto e = make_expr(ExprKind::Binary, op.line);
      e->bin_op = info.op;
      e->a = std::move(lhs);
      e->b = std::move(rhs);
      seal(*e);
      lhs = std::move(e);
    }
  }

  bool at_cast() const {
    if (!at(Tok::kLParen)) return false;
    switch (peek().kind) {
      case Tok::kwVoid:
      case Tok::kwChar:
      case Tok::kwShort:
      case Tok::kwInt:
      case Tok::kwFloat:
      case Tok::kwConst:
        return true;
      default:
        return false;
    }
  }

  ExprPtr parse_unary() {
    int line = cur().line;
    Nest nest(this);
    if (!nest.ok()) return make_expr(ExprKind::IntLit, line);
    if (at_cast()) {
      take();  // '('
      Type t = parse_pointer_suffix(parse_base_type());
      expect(Tok::kRParen, "after cast type");
      auto e = make_expr(ExprKind::Cast, line);
      e->cast_type = t;
      e->a = parse_unary();
      seal(*e);
      return e;
    }
    UnaryOp op;
    switch (cur().kind) {
      case Tok::kMinus: op = UnaryOp::Neg; break;
      case Tok::kBang: op = UnaryOp::Not; break;
      case Tok::kTilde: op = UnaryOp::BitNot; break;
      case Tok::kStar: op = UnaryOp::Deref; break;
      case Tok::kAmp: op = UnaryOp::AddrOf; break;
      case Tok::kPlusPlus: op = UnaryOp::PreInc; break;
      case Tok::kMinusMinus: op = UnaryOp::PreDec; break;
      case Tok::kPlus: {
        take();
        return parse_unary();  // unary plus is a no-op
      }
      default:
        return parse_postfix();
    }
    take();
    auto e = make_expr(ExprKind::Unary, line);
    e->un_op = op;
    e->a = parse_unary();
    seal(*e);
    return e;
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    for (;;) {
      int line = cur().line;
      if (at(Tok::kLParen) && e && e->kind == ExprKind::Ident) {
        take();
        auto call = make_expr(ExprKind::Call, line);
        call->name = e->name;
        if (!at(Tok::kRParen)) {
          do {
            call->args.push_back(parse_assignment());
          } while (accept(Tok::kComma));
        }
        expect(Tok::kRParen, "after call arguments");
        seal(*call);
        e = std::move(call);
      } else if (accept(Tok::kLBracket)) {
        auto idx = make_expr(ExprKind::Index, line);
        idx->a = std::move(e);
        idx->b = parse_expr();
        expect(Tok::kRBracket, "after array index");
        seal(*idx);
        e = std::move(idx);
      } else if (at(Tok::kPlusPlus) || at(Tok::kMinusMinus)) {
        Token op = take();
        auto u = make_expr(ExprKind::Unary, line);
        u->un_op = op.kind == Tok::kPlusPlus ? UnaryOp::PostInc
                                             : UnaryOp::PostDec;
        u->a = std::move(e);
        seal(*u);
        e = std::move(u);
      } else {
        return e;
      }
    }
  }

  ExprPtr parse_primary() {
    int line = cur().line;
    switch (cur().kind) {
      case Tok::kIntLit: {
        Token t = take();
        auto e = make_expr(ExprKind::IntLit, line);
        e->int_val = t.int_val;
        return e;
      }
      case Tok::kCharLit: {
        Token t = take();
        auto e = make_expr(ExprKind::IntLit, line);
        e->int_val = t.int_val;
        return e;
      }
      case Tok::kFloatLit: {
        Token t = take();
        auto e = make_expr(ExprKind::FloatLit, line);
        e->float_val = t.float_val;
        return e;
      }
      case Tok::kStrLit: {
        Token t = take();
        auto e = make_expr(ExprKind::StrLit, line);
        e->str_val = t.str_val;
        return e;
      }
      case Tok::kIdent: {
        Token t = take();
        auto e = make_expr(ExprKind::Ident, line);
        e->name = t.text;
        return e;
      }
      case Tok::kLParen: {
        take();
        ExprPtr e = parse_expr();
        expect(Tok::kRParen, "after parenthesized expression");
        return e;
      }
      default:
        error(std::string("expected expression, got ") +
              std::string(tok_name(cur().kind)));
        take();
        return make_expr(ExprKind::IntLit, line);
    }
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  util::DiagList* diags_;
  int next_node_id_ = 0;
  int depth_ = 0;
  bool too_deep_ = false;
  std::vector<int> heights_;  ///< expression height by node id
};

}  // namespace

std::unique_ptr<Program> parse_program(std::string_view source,
                                       util::DiagList* diags) {
  Lexer lexer(source, diags);
  std::vector<Token> tokens = lexer.lex_all();
  Parser parser(std::move(tokens), diags);
  auto prog = parser.parse();
  prog->source_lines = util::count_lines(source);
  return prog;
}

std::unique_ptr<Program> parse_and_check(std::string_view source,
                                         util::DiagList* diags) {
  auto prog = parse_program(source, diags);
  if (!diags->empty()) return nullptr;
  run_sema(prog.get(), diags);
  if (!diags->empty()) return nullptr;
  return prog;
}

}  // namespace foray::minic
