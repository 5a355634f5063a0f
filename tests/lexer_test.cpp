#include <gtest/gtest.h>

#include "foray/pipeline.h"
#include "minic/lexer.h"

namespace foray::minic {
namespace {

std::vector<Token> lex_ok(std::string_view src) {
  util::DiagList diags;
  Lexer lexer(src, &diags);
  auto toks = lexer.lex_all();
  EXPECT_TRUE(diags.empty()) << diags.str();
  return toks;
}

TEST(Lexer, EmptyInputYieldsEof) {
  auto t = lex_ok("");
  ASSERT_EQ(t.size(), 1u);
  EXPECT_EQ(t[0].kind, Tok::kEof);
}

TEST(Lexer, Keywords) {
  auto t = lex_ok("int char short float void if else for while do "
                  "return break continue const");
  EXPECT_EQ(t[0].kind, Tok::kwInt);
  EXPECT_EQ(t[1].kind, Tok::kwChar);
  EXPECT_EQ(t[2].kind, Tok::kwShort);
  EXPECT_EQ(t[3].kind, Tok::kwFloat);
  EXPECT_EQ(t[4].kind, Tok::kwVoid);
  EXPECT_EQ(t[5].kind, Tok::kwIf);
  EXPECT_EQ(t[6].kind, Tok::kwElse);
  EXPECT_EQ(t[7].kind, Tok::kwFor);
  EXPECT_EQ(t[8].kind, Tok::kwWhile);
  EXPECT_EQ(t[9].kind, Tok::kwDo);
  EXPECT_EQ(t[10].kind, Tok::kwReturn);
  EXPECT_EQ(t[11].kind, Tok::kwBreak);
  EXPECT_EQ(t[12].kind, Tok::kwContinue);
  EXPECT_EQ(t[13].kind, Tok::kwConst);
}

TEST(Lexer, IdentifiersNotKeywords) {
  auto t = lex_ok("form whiled _x x1 int_");
  for (int i = 0; i < 5; ++i) EXPECT_EQ(t[i].kind, Tok::kIdent) << i;
  EXPECT_EQ(t[0].text, "form");
  EXPECT_EQ(t[4].text, "int_");
}

TEST(Lexer, IntLiterals) {
  auto t = lex_ok("0 42 100000 0x1F 0xabc");
  EXPECT_EQ(t[0].int_val, 0);
  EXPECT_EQ(t[1].int_val, 42);
  EXPECT_EQ(t[2].int_val, 100000);
  EXPECT_EQ(t[3].int_val, 0x1F);
  EXPECT_EQ(t[4].int_val, 0xabc);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(t[i].kind, Tok::kIntLit);
}

// Lex a source expected to produce at least one diagnostic; returns the
// diagnostic text for content checks. The offending token must surface
// as Tok::kError, never as a silently-wrong literal.
std::string lex_err(std::string_view src) {
  util::DiagList diags;
  Lexer lexer(src, &diags);
  auto toks = lexer.lex_all();
  EXPECT_FALSE(diags.empty()) << "expected a diagnostic for: " << src;
  bool saw_error = false;
  for (const auto& t : toks) saw_error |= t.kind == Tok::kError;
  EXPECT_TRUE(saw_error) << "expected a kError token for: " << src;
  return diags.str();
}

TEST(Lexer, IntLiteralOverflowIsDiagnosed) {
  // 2^64: strtoull would saturate this to ULLONG_MAX with only errno to
  // show for it. It must be rejected, not silently become a different
  // constant.
  EXPECT_NE(lex_err("18446744073709551616").find("overflows 64 bits"),
            std::string::npos);
  // Same via hex (2^64 as 0x1 followed by sixteen zeros).
  EXPECT_NE(lex_err("0x10000000000000000").find("overflows 64 bits"),
            std::string::npos);
  // A grotesquely long literal, nowhere near representable.
  EXPECT_NE(lex_err("99999999999999999999999999999").find("overflows"),
            std::string::npos);
}

TEST(Lexer, IntLiteralMaxValuesStillLex) {
  // 2^64 - 1 fits in the uint64 parse; it wraps to -1 when stored in the
  // signed token value, matching the simulator's 64-bit wraparound
  // semantics.
  auto t = lex_ok("18446744073709551615 0xFFFFFFFFFFFFFFFF "
                  "9223372036854775807");
  EXPECT_EQ(t[0].kind, Tok::kIntLit);
  EXPECT_EQ(t[0].int_val, -1);
  EXPECT_EQ(t[1].int_val, -1);
  EXPECT_EQ(t[2].int_val, 9223372036854775807LL);
}

TEST(Lexer, BareHexPrefixIsMalformed) {
  // "0x" with no digits: the scanner consumes the prefix, leaving an
  // empty digit string for the converter.
  EXPECT_NE(lex_err("0x").find("malformed integer literal"),
            std::string::npos);
  EXPECT_NE(lex_err("int v = 0x;").find("malformed"), std::string::npos);
}

TEST(Lexer, FloatLiterals) {
  auto t = lex_ok("1.5 0.25 2e3 1.5e-2 3f 2.0f .5");
  EXPECT_EQ(t[0].kind, Tok::kFloatLit);
  EXPECT_DOUBLE_EQ(t[0].float_val, 1.5);
  EXPECT_DOUBLE_EQ(t[1].float_val, 0.25);
  EXPECT_DOUBLE_EQ(t[2].float_val, 2000.0);
  EXPECT_DOUBLE_EQ(t[3].float_val, 0.015);
  EXPECT_EQ(t[4].kind, Tok::kFloatLit);
  EXPECT_DOUBLE_EQ(t[4].float_val, 3.0);
  EXPECT_DOUBLE_EQ(t[5].float_val, 2.0);
  EXPECT_EQ(t[6].kind, Tok::kFloatLit);
  EXPECT_DOUBLE_EQ(t[6].float_val, 0.5);
}

TEST(Lexer, CharLiterals) {
  auto t = lex_ok(R"('a' '\n' '\0' '\'' '\\' '\r' '\t')");
  EXPECT_EQ(t[0].int_val, 'a');
  EXPECT_EQ(t[1].int_val, '\n');
  EXPECT_EQ(t[2].int_val, 0);
  EXPECT_EQ(t[3].int_val, '\'');
  EXPECT_EQ(t[4].int_val, '\\');
  EXPECT_EQ(t[5].int_val, '\r');
  EXPECT_EQ(t[6].int_val, '\t');
}

TEST(Lexer, StringLiterals) {
  auto t = lex_ok(R"("hello" "a\nb" "")");
  EXPECT_EQ(t[0].kind, Tok::kStrLit);
  EXPECT_EQ(t[0].str_val, "hello");
  EXPECT_EQ(t[1].str_val, "a\nb");
  EXPECT_EQ(t[2].str_val, "");
}

TEST(Lexer, OperatorsMaximalMunch) {
  auto t = lex_ok("++ -- += -= *= /= %= <<= >>= &= |= ^= << >> <= >= == != "
                  "&& || < > = + - * / % & | ^ ~ !");
  Tok expect[] = {Tok::kPlusPlus, Tok::kMinusMinus, Tok::kPlusEq,
                  Tok::kMinusEq, Tok::kStarEq, Tok::kSlashEq, Tok::kPercentEq,
                  Tok::kShlEq, Tok::kShrEq, Tok::kAmpEq, Tok::kPipeEq,
                  Tok::kCaretEq, Tok::kShl, Tok::kShr, Tok::kLe, Tok::kGe,
                  Tok::kEqEq, Tok::kNe, Tok::kAmpAmp, Tok::kPipePipe,
                  Tok::kLt, Tok::kGt, Tok::kAssign, Tok::kPlus, Tok::kMinus,
                  Tok::kStar, Tok::kSlash, Tok::kPercent, Tok::kAmp,
                  Tok::kPipe, Tok::kCaret, Tok::kTilde, Tok::kBang};
  for (size_t i = 0; i < std::size(expect); ++i) {
    EXPECT_EQ(t[i].kind, expect[i]) << "token " << i;
  }
}

TEST(Lexer, LineComments) {
  auto t = lex_ok("a // this is ignored ++ --\nb");
  EXPECT_EQ(t[0].text, "a");
  EXPECT_EQ(t[1].text, "b");
  EXPECT_EQ(t[2].kind, Tok::kEof);
}

TEST(Lexer, BlockComments) {
  auto t = lex_ok("a /* stuff\nmore */ b");
  EXPECT_EQ(t[0].text, "a");
  EXPECT_EQ(t[1].text, "b");
  EXPECT_EQ(t[1].line, 2);
}

TEST(Lexer, LineNumbersTracked) {
  auto t = lex_ok("a\nb\n\nc");
  EXPECT_EQ(t[0].line, 1);
  EXPECT_EQ(t[1].line, 2);
  EXPECT_EQ(t[2].line, 4);
}

TEST(Lexer, UnterminatedBlockCommentDiagnosed) {
  util::DiagList diags;
  Lexer lexer("a /* never closed", &diags);
  lexer.lex_all();
  EXPECT_FALSE(diags.empty());
}

TEST(Lexer, UnterminatedStringDiagnosed) {
  util::DiagList diags;
  Lexer lexer("\"abc", &diags);
  auto t = lexer.lex_all();
  EXPECT_FALSE(diags.empty());
}

TEST(Lexer, UnexpectedCharacterDiagnosed) {
  util::DiagList diags;
  Lexer lexer("int $x;", &diags);
  auto t = lexer.lex_all();
  EXPECT_FALSE(diags.empty());
}

TEST(Lexer, PunctuationAll) {
  auto t = lex_ok("( ) { } [ ] , ; ? :");
  Tok expect[] = {Tok::kLParen, Tok::kRParen, Tok::kLBrace, Tok::kRBrace,
                  Tok::kLBracket, Tok::kRBracket, Tok::kComma, Tok::kSemi,
                  Tok::kQuestion, Tok::kColon};
  for (size_t i = 0; i < std::size(expect); ++i) {
    EXPECT_EQ(t[i].kind, expect[i]);
  }
}

TEST(Lexer, TokNameSpellsEveryTokenKind) {
  // Keywords and punctuation print as their spelling in quotes.
  auto t = lex_ok(
      "void char short int float if else for while do return break "
      "continue const ( ) { } [ ] , ; ? : + - * / % & | ^ ~ ! < > <= >= "
      "== != && || << >> = += -= *= /= %= &= |= ^= <<= >>= ++ --");
  ASSERT_EQ(t.size(), 58u);  // 57 tokens and end of file
  for (size_t i = 0; i + 1 < t.size(); ++i) {
    EXPECT_EQ(tok_name(t[i].kind), "'" + t[i].text + "'");
  }
  auto lits = lex_ok("7 1.5 'c' \"s\" name");
  const char* names[] = {"integer literal", "float literal", "char literal",
                         "string literal", "identifier", "end of file"};
  for (size_t i = 0; i < std::size(names); ++i) {
    EXPECT_EQ(tok_name(lits[i].kind), names[i]);
  }
  EXPECT_EQ(tok_name(Tok::kError), "invalid token");
}

/// One minimal program per lexer diagnostic, and the diagnostic's text.
struct LexCase {
  const char* source;
  const char* message;
};

constexpr LexCase kLexCases[] = {
    {"int main(void) { puts(\"a\\qb\"); return 0; }",
     "line 1: unknown escape '\\q'"},
    {"int main(void) { return '\\q'; }", "line 1: unknown escape '\\q'"},
    {"int main(void) { return 0; }\n/* never closed",
     "line 2: unterminated block comment"},
    {"int main(void) { return 0 @ 1; }", "line 1: unexpected character '@'"},
    {"int main(void) { return 0x; }",
     "line 1: malformed integer literal '0x'"},
    {"int main(void) { return 18446744073709551616; }",
     "line 1: integer literal '18446744073709551616' overflows 64 bits"},
    {"int main(void) { return 'a; }", "line 1: unterminated char literal"},
    {"int main(void) { return '", "line 1: unterminated char literal"},
    {"int main(void) { puts(\"abc); }", "line 1: unterminated string literal"},
};

TEST(Lexer, EveryDiagnosticIsAnInvalidInputParseStatus) {
  for (const LexCase& c : kLexCases) {
    SCOPED_TRACE(c.source);
    core::PipelineResult result;
    const util::Status st = core::frontend_phase(c.source, &result);
    EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);
    EXPECT_EQ(st.phase(), "parse");
    EXPECT_NE(st.message().find(c.message), std::string::npos)
        << st.message();
  }
}

TEST(Lexer, RealisticSnippet) {
  auto t = lex_ok(
      "while (currow < numrows)\n"
      "  for (i = rowsperchunk; i > 0; i--) {\n"
      "    result[currow++] = workspace;\n"
      "  }\n");
  EXPECT_EQ(t[0].kind, Tok::kwWhile);
  // Verify the whole stream lexes without error and ends in EOF.
  EXPECT_EQ(t.back().kind, Tok::kEof);
}

}  // namespace
}  // namespace foray::minic
