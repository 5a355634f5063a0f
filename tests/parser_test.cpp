#include <gtest/gtest.h>

#include "foray/pipeline.h"
#include "minic/parser.h"
#include "minic/printer.h"

namespace foray::minic {
namespace {

std::unique_ptr<Program> parse_ok(std::string_view src) {
  util::DiagList diags;
  auto prog = parse_program(src, &diags);
  EXPECT_TRUE(diags.empty()) << diags.str();
  return prog;
}

void expect_parse_error(std::string_view src) {
  util::DiagList diags;
  parse_program(src, &diags);
  EXPECT_FALSE(diags.empty()) << "expected a parse error for: " << src;
}

TEST(Parser, EmptyProgram) {
  auto p = parse_ok("");
  EXPECT_TRUE(p->funcs.empty());
  EXPECT_TRUE(p->globals.empty());
}

TEST(Parser, GlobalScalars) {
  auto p = parse_ok("int a; char b; float c = 1.5f; int d = 3;");
  ASSERT_EQ(p->globals.size(), 4u);
  EXPECT_EQ(p->globals[0].name, "a");
  EXPECT_EQ(p->globals[0].type.base, BaseType::Int);
  EXPECT_EQ(p->globals[2].name, "c");
  ASSERT_NE(p->globals[2].init, nullptr);
  EXPECT_EQ(p->globals[3].init->kind, ExprKind::IntLit);
}

TEST(Parser, GlobalArraysAndPointers) {
  auto p = parse_ok("char q[10000]; int *ptr; int **pp; int tab[4] = "
                    "{1, 2, 3, 4};");
  ASSERT_EQ(p->globals.size(), 4u);
  EXPECT_EQ(p->globals[0].array_len, 10000);
  EXPECT_EQ(p->globals[1].type.ptr, 1);
  EXPECT_EQ(p->globals[2].type.ptr, 2);
  EXPECT_EQ(p->globals[3].init_list.size(), 4u);
}

TEST(Parser, MultipleDeclaratorsShareBaseType) {
  auto p = parse_ok("int a, *b, c[8];");
  ASSERT_EQ(p->globals.size(), 3u);
  EXPECT_EQ(p->globals[0].type.ptr, 0);
  EXPECT_EQ(p->globals[1].type.ptr, 1);
  EXPECT_EQ(p->globals[2].array_len, 8);
}

TEST(Parser, FunctionWithParams) {
  auto p = parse_ok("int foo(int offset, char *p, float xs[]) { return 0; }");
  ASSERT_EQ(p->funcs.size(), 1u);
  const auto& f = *p->funcs[0];
  EXPECT_EQ(f.name, "foo");
  ASSERT_EQ(f.params.size(), 3u);
  EXPECT_EQ(f.params[0].type.ptr, 0);
  EXPECT_EQ(f.params[1].type.ptr, 1);
  // Array parameter decays to pointer.
  EXPECT_EQ(f.params[2].type.ptr, 1);
  EXPECT_EQ(f.params[2].type.base, BaseType::Float);
}

TEST(Parser, VoidParamList) {
  auto p = parse_ok("int main(void) { return 0; }");
  EXPECT_TRUE(p->funcs[0]->params.empty());
}

TEST(Parser, PrototypesAreIgnored) {
  auto p = parse_ok("int foo(int x);\nint main(void) { return 0; }");
  ASSERT_EQ(p->funcs.size(), 1u);
  EXPECT_EQ(p->funcs[0]->name, "main");
}

TEST(Parser, ForLoopWithDecl) {
  auto p = parse_ok("int main(void) { for (int i = 0; i < 10; i++) {} "
                    "return 0; }");
  const Stmt& body = *p->funcs[0]->body;
  ASSERT_EQ(body.kind, StmtKind::Block);
  const Stmt& loop = *body.stmts[0];
  EXPECT_EQ(loop.kind, StmtKind::For);
  EXPECT_EQ(loop.init->kind, StmtKind::Decl);
  ASSERT_NE(loop.cond, nullptr);
  ASSERT_NE(loop.step, nullptr);
}

TEST(Parser, ForLoopEmptyClauses) {
  auto p = parse_ok("int main(void) { for (;;) { break; } return 0; }");
  const Stmt& loop = *p->funcs[0]->body->stmts[0];
  EXPECT_EQ(loop.init->kind, StmtKind::Empty);
  EXPECT_EQ(loop.cond, nullptr);
  EXPECT_EQ(loop.step, nullptr);
}

TEST(Parser, WhileAndDoWhile) {
  auto p = parse_ok(
      "int main(void) { int x = 3; while (x) { x--; } "
      "do { x++; } while (x < 3); return x; }");
  const auto& stmts = p->funcs[0]->body->stmts;
  EXPECT_EQ(stmts[1]->kind, StmtKind::While);
  EXPECT_EQ(stmts[2]->kind, StmtKind::DoWhile);
}

TEST(Parser, IfElseChain) {
  auto p = parse_ok(
      "int main(void) { int x = 1; if (x) x = 2; else if (x > 1) x = 3; "
      "else x = 4; return x; }");
  const Stmt& s = *p->funcs[0]->body->stmts[1];
  EXPECT_EQ(s.kind, StmtKind::If);
  ASSERT_NE(s.else_branch, nullptr);
  EXPECT_EQ(s.else_branch->kind, StmtKind::If);
}

TEST(Parser, PrecedenceMulOverAdd) {
  auto p = parse_ok("int x = 1 + 2 * 3;");
  const Expr& e = *p->globals[0].init;
  ASSERT_EQ(e.kind, ExprKind::Binary);
  EXPECT_EQ(e.bin_op, BinaryOp::Add);
  EXPECT_EQ(e.b->bin_op, BinaryOp::Mul);
}

TEST(Parser, PrecedenceShiftVsRelational) {
  auto p = parse_ok("int x = 1 << 2 < 3;");  // (1<<2) < 3
  const Expr& e = *p->globals[0].init;
  EXPECT_EQ(e.bin_op, BinaryOp::Lt);
  EXPECT_EQ(e.a->bin_op, BinaryOp::Shl);
}

TEST(Parser, AssignmentIsRightAssociative) {
  auto p = parse_ok("int main(void) { int a; int b; a = b = 3; return a; }");
  const Expr& e = *p->funcs[0]->body->stmts[2]->expr;
  ASSERT_EQ(e.kind, ExprKind::Assign);
  EXPECT_EQ(e.b->kind, ExprKind::Assign);
}

TEST(Parser, CompoundAssignOps) {
  auto p = parse_ok("int main(void) { int a = 1; a += 2; a <<= 3; a %= 4; "
                    "return a; }");
  EXPECT_EQ(p->funcs[0]->body->stmts[1]->expr->as_op, AssignOp::AddA);
  EXPECT_EQ(p->funcs[0]->body->stmts[2]->expr->as_op, AssignOp::ShlA);
  EXPECT_EQ(p->funcs[0]->body->stmts[3]->expr->as_op, AssignOp::ModA);
}

TEST(Parser, PointerDerefAndPostIncrement) {
  auto p = parse_ok("int main(void) { char q[4]; char *ptr = q; "
                    "*ptr++ = 1; return 0; }");
  const Expr& e = *p->funcs[0]->body->stmts[2]->expr;
  ASSERT_EQ(e.kind, ExprKind::Assign);
  ASSERT_EQ(e.a->kind, ExprKind::Unary);
  EXPECT_EQ(e.a->un_op, UnaryOp::Deref);
  EXPECT_EQ(e.a->a->un_op, UnaryOp::PostInc);
}

TEST(Parser, TernaryExpression) {
  auto p = parse_ok("int x = 1 ? 2 : 3;");
  EXPECT_EQ(p->globals[0].init->kind, ExprKind::Cond);
}

TEST(Parser, CastExpression) {
  auto p = parse_ok("int main(void) { float f = 1.5f; int x = (int)f; "
                    "char *p = (char*)0; return x; }");
  const Expr& cast1 = *p->funcs[0]->body->stmts[1]->decls[0].init;
  ASSERT_EQ(cast1.kind, ExprKind::Cast);
  EXPECT_EQ(cast1.cast_type.base, BaseType::Int);
  const Expr& cast2 = *p->funcs[0]->body->stmts[2]->decls[0].init;
  EXPECT_EQ(cast2.cast_type.ptr, 1);
}

TEST(Parser, ParenthesizedExprIsNotCast) {
  auto p = parse_ok("int y; int x = (y) + 1;");
  EXPECT_EQ(p->globals[1].init->kind, ExprKind::Binary);
}

TEST(Parser, CallsAndNestedIndex) {
  auto p = parse_ok(
      "int foo(int a, int b) { return a + b; }\n"
      "int g[10];\n"
      "int main(void) { return foo(g[2], g[foo(1, 2)]); }");
  const Expr& call = *p->funcs[1]->body->stmts[0]->expr;
  ASSERT_EQ(call.kind, ExprKind::Call);
  EXPECT_EQ(call.args.size(), 2u);
  EXPECT_EQ(call.args[0]->kind, ExprKind::Index);
}

TEST(Parser, AddressOfOperator) {
  auto p = parse_ok("int main(void) { int x; int *p = &x; return *p; }");
  const Expr& addr = *p->funcs[0]->body->stmts[1]->decls[0].init;
  ASSERT_EQ(addr.kind, ExprKind::Unary);
  EXPECT_EQ(addr.un_op, UnaryOp::AddrOf);
}

TEST(Parser, NodeIdsAreUnique) {
  auto p = parse_ok("int main(void) { int a = 1 + 2; int b = a * 3; "
                    "return a + b; }");
  EXPECT_GT(p->num_nodes, 5);
}

TEST(Parser, FigureOneJpegExcerptParses) {
  // First code excerpt from the paper's Figure 1 (adapted to MiniC decls).
  auto p = parse_ok(
      "int num_components = 3;\n"
      "int last_bitpos[256];\n"
      "int main(void) {\n"
      "  int ci; int coefi;\n"
      "  int *last_bitpos_ptr = last_bitpos;\n"
      "  for (ci = 0; ci < num_components; ci++)\n"
      "    for (coefi = 0; coefi < 64; coefi++)\n"
      "      *last_bitpos_ptr++ = -1;\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(p->funcs.size(), 1u);
}

TEST(Parser, FigureFourExampleParses) {
  // The worked example of the paper's Figure 4(a).
  auto p = parse_ok(
      "char q[10000];\n"
      "int main(void) {\n"
      "  char *ptr = q;\n"
      "  int i; int t1 = 98;\n"
      "  while (t1 < 100) {\n"
      "    t1++;\n"
      "    ptr += 100;\n"
      "    for (i = 40; i > 37; i--) {\n"
      "      *ptr++ = i * i % 256;\n"
      "    }\n"
      "  }\n"
      "  return 0;\n"
      "}\n");
  EXPECT_EQ(p->funcs.size(), 1u);
  EXPECT_EQ(p->globals.size(), 1u);
}

TEST(Parser, ErrorMissingSemicolon) { expect_parse_error("int a"); }

TEST(Parser, ErrorBadArrayLength) { expect_parse_error("int a[x];"); }

TEST(Parser, ErrorUnbalancedParens) {
  expect_parse_error("int main(void) { return (1 + 2; }");
}

TEST(Parser, ErrorGarbageAtTopLevel) { expect_parse_error("42;"); }

/// One minimal program per kind of parse error, and the error's text,
/// which names the token expected and the token found (tok_name).
struct ParseCase {
  const char* source;
  const char* message;
};

constexpr ParseCase kParseCases[] = {
    {"int a", "line 1: expected ';' after declaration, got end of file"},
    {"42;", "line 1: expected declaration at top level"},
    {"int 5;",
     "line 1: expected identifier in top-level declaration, got integer "
     "literal '5'"},
    {"int a[x];",
     "line 1: expected integer literal as array length, got identifier 'x'"},
    {"int g[2] = {1, 2;",
     "line 1: expected '}' after initializer list, got ';' ';'"},
    {"int f(int 1.5) { return 0; }",
     "line 1: expected identifier in parameter list, got float literal "
     "'1.5'"},
    {"int main(void) return 0;",
     "line 1: expected '{' to open block, got 'return' 'return'"},
    {"int main(void) {\n  return (1 + 2;\n}",
     "line 2: expected ')' after parenthesized expression, got ';' ';'"},
    {"int main(void) { return while; }",
     "line 1: expected expression, got 'while'"},
    {"int main(void) { if 1) return 0; return 1; }",
     "line 1: expected '(' after 'if', got integer literal '1'"},
    {"int main(void) { do ; 1; return 0; }",
     "line 1: expected 'while' after do body, got integer literal '1'"},
    {"int main(void) { return 1 ? 2 ; }",
     "line 1: expected ':' in conditional expression, got ';' ';'"},
    {"int main(void) { return 'c' 'd'; }",
     "line 1: expected ';' after return, got char literal"},
    {"int main(void) { return (int) \"s\" \"t\"; }",
     "line 1: expected ';' after return, got string literal"},
    {"int main(void) { return (int 1; }",
     "line 1: expected ')' after cast type, got integer literal '1'"},
    {"int main(void) { for (;;) break }",
     "line 1: expected ';' after break, got '}' '}'"},
};

TEST(Parser, EveryErrorIsAnInvalidInputParseStatus) {
  for (const ParseCase& c : kParseCases) {
    SCOPED_TRACE(c.source);
    core::PipelineResult result;
    const util::Status st = core::frontend_phase(c.source, &result);
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
    EXPECT_EQ(st.phase(), "parse");
    EXPECT_NE(st.message().find(c.message), std::string::npos)
        << st.message();
  }
}

TEST(Parser, BreakAndContinueParse) {
  auto p = parse_ok(
      "int main(void) { int i; for (i = 0; i < 10; i++) { "
      "if (i == 2) continue; if (i == 5) break; } return i; }");
  EXPECT_EQ(p->funcs.size(), 1u);
}

TEST(Parser, CommentsDoNotAffectStructure) {
  auto p = parse_ok("/* header */ int a; // trailing\nint main(void) "
                    "{ return a; /* mid */ }");
  EXPECT_EQ(p->globals.size(), 1u);
  EXPECT_EQ(p->funcs.size(), 1u);
}

TEST(Parser, LogicalOperatorsShortCircuitShape) {
  auto p = parse_ok("int x = 1 || 0 && 0;");  // 1 || (0 && 0)
  const Expr& e = *p->globals[0].init;
  EXPECT_EQ(e.bin_op, BinaryOp::LogOr);
  EXPECT_EQ(e.b->bin_op, BinaryOp::LogAnd);
}

// -- nesting bound ------------------------------------------------------------

/// Programs whose deepest path nests exactly `depth` levels. The return
/// or expression statement is one level, every parenthesis, unary
/// operator and if one more, and a left-deep chain x+x+...+x of n
/// operands is n levels (one per operator plus the last operand).
std::string nested_parens(int depth) {
  const int k = depth - 2;  // return statement + operand
  return "int main(void) {\n  int x = 1;\n  return " +
         std::string(static_cast<size_t>(k), '(') + "x" +
         std::string(static_cast<size_t>(k), ')') + ";\n}\n";
}

std::string nested_ifs(int depth) {
  std::string src = "int main(void) {\n  int x = 1;\n";
  for (int i = 0; i < depth - 2; ++i) src += "if (x) ";  // x; is 2 levels
  return src + "x;\n  return x;\n}\n";
}

std::string added_chain(int depth) {
  std::string src = "int main(void) {\n  int x = 1;\n  return x";
  for (int i = 0; i < depth - 2; ++i) src += "+x";  // + return statement
  return src + ";\n}\n";
}

TEST(Parser, NestingAtTheLimitParses) {
  for (const auto& make : {nested_parens, nested_ifs, added_chain}) {
    util::DiagList diags;
    parse_program(make(kMaxNesting), &diags);
    EXPECT_TRUE(diags.empty()) << diags.str();
  }
}

TEST(Parser, NestingPastTheLimitIsOneParseError) {
  for (int depth : {kMaxNesting + 1, 10'000}) {
    for (const auto& make : {nested_parens, nested_ifs, added_chain}) {
      util::DiagList diags;
      parse_program(make(depth), &diags);
      // One diagnostic at the offending line, not one per open level.
      ASSERT_EQ(diags.size(), 1u) << diags.str();
      EXPECT_EQ(diags.all()[0].line, 3);
      EXPECT_NE(diags.all()[0].message.find("nesting deeper than 1000"),
                std::string::npos)
          << diags.str();
    }
  }
}

}  // namespace
}  // namespace foray::minic
