#include <gtest/gtest.h>

#include "foray/pipeline.h"
#include "minic/parser.h"
#include "minic/sema.h"

namespace foray::minic {
namespace {

void expect_ok(std::string_view src) {
  util::DiagList diags;
  auto p = parse_and_check(src, &diags);
  EXPECT_TRUE(p != nullptr) << diags.str();
}

void expect_error(std::string_view src, std::string_view needle) {
  util::DiagList diags;
  auto p = parse_and_check(src, &diags);
  EXPECT_EQ(p, nullptr) << "expected sema error containing '" << needle
                        << "'";
  EXPECT_NE(diags.str().find(needle), std::string::npos)
      << "diags were: " << diags.str();
}

TEST(Sema, MinimalProgramChecks) { expect_ok("int main(void) { return 0; }"); }

TEST(Sema, MissingMainRejected) {
  expect_error("int foo(void) { return 0; }", "no 'main'");
}

TEST(Sema, UndeclaredIdentifier) {
  expect_error("int main(void) { return x; }", "undeclared identifier");
}

TEST(Sema, UndeclaredFunction) {
  expect_error("int main(void) { return nope(); }", "undeclared function");
}

TEST(Sema, ArityMismatch) {
  expect_error(
      "int foo(int a) { return a; }\nint main(void) { return foo(1, 2); }",
      "wrong number of arguments");
}

TEST(Sema, IntrinsicArityChecked) {
  expect_error("int main(void) { memcpy(0); return 0; }",
               "wrong number of arguments to intrinsic");
}

TEST(Sema, ShadowingIntrinsicRejected) {
  expect_error("int printf(void) { return 0; } int main(void) { return 0; }",
               "shadows an intrinsic");
}

TEST(Sema, DuplicateFunctionRejected) {
  expect_error(
      "int f(void) { return 0; } int f(void) { return 1; } "
      "int main(void) { return 0; }",
      "duplicate function");
}

TEST(Sema, RedeclarationInSameScopeRejected) {
  expect_error("int main(void) { int x; int x; return 0; }",
               "redeclaration");
}

TEST(Sema, ShadowingInInnerScopeAllowed) {
  expect_ok("int main(void) { int x = 1; { int x = 2; } return x; }");
}

TEST(Sema, BreakOutsideLoopRejected) {
  expect_error("int main(void) { break; return 0; }", "outside a loop");
}

TEST(Sema, ContinueOutsideLoopRejected) {
  expect_error("int main(void) { continue; return 0; }", "outside a loop");
}

TEST(Sema, AssignToRvalueRejected) {
  expect_error("int main(void) { 1 = 2; return 0; }", "not an lvalue");
}

TEST(Sema, AssignToArrayRejected) {
  expect_error("int a[4]; int b[4]; int main(void) { a = b; return 0; }",
               "not an lvalue");
}

TEST(Sema, DerefNonPointerRejected) {
  expect_error("int main(void) { int x; return *x; }",
               "dereference non-pointer");
}

TEST(Sema, SubscriptNonPointerRejected) {
  expect_error("int main(void) { int x; return x[0]; }",
               "not a pointer or array");
}

TEST(Sema, PointerPlusPointerRejected) {
  expect_error(
      "int main(void) { int a[2]; int *p = a; int *q = a; "
      "return *(p + q); }",
      "cannot add two pointers");
}

TEST(Sema, AddressOfRvalueRejected) {
  expect_error("int main(void) { int *p = &3; return 0; }",
               "address of an rvalue");
}

TEST(Sema, VoidVariableRejected) {
  expect_error("int main(void) { void v; return 0; }", "void type");
}

TEST(Sema, ReturnValueFromVoidRejected) {
  expect_error("void f(void) { return 3; } int main(void) { return 0; }",
               "void function");
}

TEST(Sema, MissingReturnValueRejected) {
  expect_error("int f(void) { return; } int main(void) { return 0; }",
               "must return a value");
}

/// One minimal program per sema diagnostic, and the diagnostic's text.
struct SemaCase {
  const char* source;
  const char* message;
};

constexpr SemaCase kSemaCases[] = {
    {"int f(void) { return 0; } int f(void) { return 1; }\n"
     "int main(void) { return 0; }",
     "line 1: duplicate function 'f'"},
    {"int puts(void) { return 0; } int main(void) { return 0; }",
     "line 1: function 'puts' shadows an intrinsic"},
    {"int f(void v) { return 0; } int main(void) { return 0; }",
     "line 1: parameter 'v' has void type"},
    {"int f(void) { return 0; }", "program has no 'main' function"},
    {"int main(void) {\n int x; int x; return 0; }",
     "line 2: redeclaration of 'x'"},
    {"int main(int a, int a) { return 0; }", "line 1: redeclaration of 'a'"},
    {"int main(void) { void v; return 0; }",
     "line 1: variable 'v' has void type"},
    {"int g[0]; int main(void) { return 0; }",
     "line 1: array 'g' has zero length"},
    {"int g;\nint g;\nint main(void) { return 0; }",
     "line 2: redeclaration of global 'g'"},
    {"int main(void) {\n  int a[2] = {1, 2, 3};\n  return 0;\n}",
     "line 2: too many initializers for 'a'"},
    {"void f(void) { return 3; } int main(void) { return 0; }",
     "line 1: returning a value from a void function"},
    {"int f(void) { return; } int main(void) { return 0; }",
     "line 1: non-void function must return a value"},
    {"int main(void) { break; return 0; }", "line 1: 'break' outside a loop"},
    {"int main(void) { continue; return 0; }",
     "line 1: 'continue' outside a loop"},
    {"int main(void) { void v = 1; return 0; }",
     "line 1: cannot convert to void in initializer"},
    {"int main(void) { return x; }",
     "line 1: use of undeclared identifier 'x'"},
    {"int main(void) { 1 = 2; return 0; }",
     "line 1: assignment target is not an lvalue"},
    {"int main(void) { int *p = 0; p *= 2; return 0; }",
     "line 1: invalid compound assignment on pointer"},
    {"int main(void) { int x = 0; return x[0]; }",
     "line 1: subscripted value is not a pointer or array"},
    {"int a[4]; int main(void) { return a[1.5]; }",
     "line 1: array index must be an integer"},
    {"int main(void) { int *p = 0; p = -p; return 0; }",
     "line 1: cannot negate a pointer"},
    {"int main(void) { return ~1.5; }",
     "line 1: operand of '~' must be an integer"},
    {"int main(void) { int x = 0; return *x; }",
     "line 1: cannot dereference non-pointer type int"},
    {"int main(void) { void *p = 0; *p; return 0; }",
     "line 1: cannot dereference a void pointer"},
    {"int main(void) { int *p = &3; return 0; }",
     "line 1: cannot take the address of an rvalue"},
    {"int main(void) { return ++3; }",
     "line 1: operand of ++/-- must be an lvalue"},
    {"int main(void) { float f = 1.0; f++; return 0; }",
     "line 1: ++/-- on float is not supported in MiniC"},
    {"int a[2]; int main(void) { int *p = a; return *(p + p); }",
     "line 1: cannot add two pointers"},
    {"int a[2]; char c[2];\n"
     "int main(void) { int *p = a; char *q = c; return p - q; }",
     "line 2: subtracting incompatible pointers"},
    {"int a[2]; int main(void) { int *p = a; return 1 - p; }",
     "line 1: cannot subtract a pointer from an integer"},
    {"int a[2]; int main(void) { int *p = a; return p * 2; }",
     "line 1: invalid pointer operands to '*' or '/'"},
    {"int a[2]; int main(void) { int *p = a; return 8 / p; }",
     "line 1: invalid pointer operands to '*' or '/'"},
    {"int main(void) { return 1.5 % 2; }",
     "line 1: bitwise/mod operands must be integers"},
    {"int main(void) { return 1 << 2.0; }",
     "line 1: bitwise/mod operands must be integers"},
    {"int main(void) { memcpy(0); return 0; }",
     "line 1: wrong number of arguments to intrinsic 'memcpy'"},
    {"int main(void) { return nope(); }",
     "line 1: call to undeclared function 'nope'"},
    {"int f(int a) { return a; } int main(void) { return f(1, 2); }",
     "line 1: wrong number of arguments to 'f': expected 1, got 2"},
};

TEST(Sema, EveryDiagnosticIsAnInvalidInputSemaStatus) {
  for (const SemaCase& c : kSemaCases) {
    SCOPED_TRACE(c.source);
    core::PipelineResult result;
    const util::Status st = core::frontend_phase(c.source, &result);
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
    EXPECT_EQ(st.phase(), "sema");
    EXPECT_NE(st.message().find(c.message), std::string::npos)
        << st.message();
  }
}

TEST(Sema, TypesPropagateThroughExpressions) {
  util::DiagList diags;
  auto p = parse_and_check(
      "int g[8];\n"
      "int main(void) { float f = 1.0f; int x = g[2]; return x; }",
      &diags);
  ASSERT_NE(p, nullptr) << diags.str();
  // g decays to int*; g[2] is int.
  const Stmt& s = *p->funcs[0]->body->stmts[1];
  EXPECT_EQ(s.decls[0].init->type.base, BaseType::Int);
  EXPECT_EQ(s.decls[0].init->type.ptr, 0);
}

TEST(Sema, ArrayDecayMarked) {
  util::DiagList diags;
  auto p = parse_and_check(
      "char q[16]; int main(void) { char *p = q; return 0; }", &diags);
  ASSERT_NE(p, nullptr) << diags.str();
  const Expr& q = *p->funcs[0]->body->stmts[0]->decls[0].init;
  EXPECT_TRUE(q.decayed_array);
  EXPECT_EQ(q.type.ptr, 1);
}

TEST(Sema, NodeFuncAttributionFilled) {
  util::DiagList diags;
  auto prog = parse_program(
      "int g = 3;\n"
      "int foo(void) { return 1; }\n"
      "int main(void) { return foo(); }",
      &diags);
  ASSERT_TRUE(diags.empty()) << diags.str();
  SemaInfo info = run_sema(prog.get(), &diags);
  ASSERT_TRUE(diags.empty()) << diags.str();
  // The global initializer's node belongs to no function (-1).
  EXPECT_EQ(info.node_func[static_cast<size_t>(prog->globals[0].init->node_id)],
            -1);
  // main's return expression belongs to func_id of main (1).
  const Expr& ret = *prog->funcs[1]->body->stmts[0]->expr;
  EXPECT_EQ(info.node_func[static_cast<size_t>(ret.node_id)], 1);
}

TEST(Sema, MemorySitesMarked) {
  util::DiagList diags;
  auto prog = parse_program(
      "int g[4];\n"
      "int main(void) { int x = g[1]; int *p = g; return *p + x; }",
      &diags);
  ASSERT_TRUE(diags.empty());
  SemaInfo info = run_sema(prog.get(), &diags);
  ASSERT_TRUE(diags.empty()) << diags.str();
  int sites = 0;
  for (uint8_t b : info.node_is_memory_site) sites += b;
  // g[1], x (decl target is not an expr node; reads of x / *p / p count).
  EXPECT_GE(sites, 3);
}

}  // namespace
}  // namespace foray::minic
