#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "benchsuite/generator.h"
#include "benchsuite/suite.h"
#include "instrument/annotator.h"
#include "minic/parser.h"
#include "minic/printer.h"
#include "oracle.h"
#include "sim/interpreter.h"

namespace foray::minic {
namespace {

/// Round-trip helper: parse, print, re-parse; returns the reprint.
std::string reprint(std::string_view src) {
  util::DiagList diags;
  auto p = parse_and_check(src, &diags);
  EXPECT_NE(p, nullptr) << diags.str();
  if (!p) return {};
  return print_program(*p);
}

/// Parses, checks and annotates `src`, then runs it on the VM and on the
/// tree-walking oracle (tests/oracle.h); returns the VM's result.
sim::RunResult run_source(const std::string& src, const std::string& label) {
  util::DiagList diags;
  auto p = parse_and_check(src, &diags);
  EXPECT_NE(p, nullptr) << label << "\n" << diags.str() << "\n" << src;
  if (!p) return {};
  instrument::annotate_loops(p.get());
  return oracle::run_both(*p).result;
}

/// The `.mc` files of a source-tree directory, sorted by name.
std::vector<std::string> mc_files(const std::string& rel) {
  std::vector<std::string> out;
  const std::filesystem::path dir =
      std::filesystem::path(FORAY_SOURCE_DIR) / rel;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".mc") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Printer, RoundTripIsStable) {
  // Every input reprints to a fixed point after one pass, and the
  // reprint rechecks and runs exactly like the original.
  std::vector<std::pair<std::string, std::string>> inputs;
  inputs.emplace_back("inline",
                      "char q[10000];\n"
                      "int main(void) {\n"
                      "  char *ptr = q;\n"
                      "  int i;\n"
                      "  int t1 = 98;\n"
                      "  while (t1 < 100) {\n"
                      "    t1++;\n"
                      "    ptr += 100;\n"
                      "    for (i = 40; i > 37; i--) {\n"
                      "      *ptr++ = (i * i) % 256;\n"
                      "    }\n"
                      "  }\n"
                      "  return 0;\n"
                      "}\n");
  for (const auto& b : benchsuite::all_benchmarks()) {
    inputs.emplace_back(b.name, b.source);
  }
  for (const char* dir : {"examples", "tests/programs"}) {
    for (const std::string& path : mc_files(dir)) {
      std::ifstream in(path);
      std::ostringstream text;
      text << in.rdbuf();
      inputs.emplace_back(path, text.str());
    }
  }
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    benchsuite::GeneratorOptions gopts;
    gopts.seed = seed;
    inputs.emplace_back("affine seed " + std::to_string(seed),
                        benchsuite::generate_affine_program(gopts).source);
    benchsuite::StressOptions sopts;
    sopts.seed = seed;
    inputs.emplace_back("stress seed " + std::to_string(seed),
                        benchsuite::generate_stress_program(sopts));
  }
  for (const auto& [label, src] : inputs) {
    const std::string once = reprint(src);
    ASSERT_FALSE(once.empty()) << label;
    EXPECT_EQ(once, reprint(once)) << label;
    const sim::RunResult want = run_source(src, label);
    const sim::RunResult got = run_source(once, label + " (reprinted)");
    EXPECT_TRUE(want.ok()) << label << ": " << want.error();
    EXPECT_EQ(got.error(), want.error()) << label;
    EXPECT_EQ(got.output, want.output) << label;
    EXPECT_EQ(got.exit_code, want.exit_code) << label;
    EXPECT_EQ(got.steps, want.steps) << label;
    EXPECT_EQ(got.accesses, want.accesses) << label;
  }
}

TEST(Printer, PrintedProgramReparsesAndRechecks) {
  const char* src =
      "int tab[4] = {1, 2, 3, 4};\n"
      "float scale = 0.5f;\n"
      "int foo(int a, int *p) { return a + p[0]; }\n"
      "int main(void) {\n"
      "  int acc = 0;\n"
      "  for (int i = 0; i < 4; i++) acc += foo(tab[i], tab);\n"
      "  do { acc--; } while (acc > 100);\n"
      "  return acc > 0 ? acc : -acc;\n"
      "}\n";
  std::string printed = reprint(src);
  util::DiagList diags;
  auto p2 = parse_and_check(printed, &diags);
  EXPECT_NE(p2, nullptr) << diags.str() << "\nprinted was:\n" << printed;
}

TEST(Printer, ExprFormatting) {
  util::DiagList diags;
  auto p = parse_and_check("int x = 1 + 2 * 3;\nint main(void){return x;}",
                           &diags);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(print_expr(*p->globals[0].init), "1 + (2 * 3)");
}

TEST(Printer, StringEscapes) {
  util::DiagList diags;
  auto p = parse_and_check(
      "int main(void) { printf(\"a\\n\\t\\\"b\\\"\"); return 0; }", &diags);
  ASSERT_NE(p, nullptr) << diags.str();
  std::string printed = print_program(*p);
  EXPECT_NE(printed.find("\"a\\n\\t\\\"b\\\"\""), std::string::npos);
  // And the printed text must re-lex correctly.
  util::DiagList diags2;
  EXPECT_NE(parse_and_check(printed, &diags2), nullptr) << diags2.str();
}

TEST(Printer, AnnotatedViewShowsCheckpoints) {
  util::DiagList diags;
  auto p = parse_and_check(
      "int main(void) {\n"
      "  int s = 0;\n"
      "  for (int i = 0; i < 3; i++) s += i;\n"
      "  while (s > 0) s--;\n"
      "  return s;\n"
      "}\n",
      &diags);
  ASSERT_NE(p, nullptr) << diags.str();
  auto table = instrument::annotate_loops(p.get());
  ASSERT_EQ(table.count(), 2);
  PrintOptions opts;
  opts.annotate_checkpoints = true;
  std::string s = print_program(*p, opts);
  EXPECT_NE(s.find("CHECKPOINT(loop_enter, 0)"), std::string::npos);
  EXPECT_NE(s.find("CHECKPOINT(body_begin, 0)"), std::string::npos);
  EXPECT_NE(s.find("CHECKPOINT(body_end, 0)"), std::string::npos);
  EXPECT_NE(s.find("CHECKPOINT(loop_exit, 1)"), std::string::npos);
}

TEST(Printer, UnannotatedViewHasNoCheckpoints) {
  util::DiagList diags;
  auto p = parse_and_check(
      "int main(void) { for (int i = 0; i < 3; i++) {} return 0; }", &diags);
  ASSERT_NE(p, nullptr);
  instrument::annotate_loops(p.get());
  EXPECT_EQ(print_program(*p).find("CHECKPOINT"), std::string::npos);
}

TEST(Printer, DoWhileAnnotation) {
  util::DiagList diags;
  auto p = parse_and_check(
      "int main(void) { int x = 3; do { x--; } while (x); return x; }",
      &diags);
  ASSERT_NE(p, nullptr);
  instrument::annotate_loops(p.get());
  PrintOptions opts;
  opts.annotate_checkpoints = true;
  std::string s = print_program(*p, opts);
  EXPECT_NE(s.find("do"), std::string::npos);
  EXPECT_NE(s.find("CHECKPOINT(loop_enter, 0)"), std::string::npos);
  // The annotated program structure matches the paper's Figure 4(b) shape:
  // enter checkpoint before the loop, body checkpoints inside.
  EXPECT_LT(s.find("CHECKPOINT(loop_enter, 0)"),
            s.find("CHECKPOINT(body_begin, 0)"));
  EXPECT_LT(s.find("CHECKPOINT(body_begin, 0)"),
            s.find("CHECKPOINT(body_end, 0)"));
}

TEST(Printer, CastAndTernaryPrint) {
  util::DiagList diags;
  auto p = parse_and_check(
      "int main(void) { float f = 2.5f; int x = (int)f; "
      "return x > 0 ? x : 0; }",
      &diags);
  ASSERT_NE(p, nullptr);
  std::string s = print_program(*p);
  EXPECT_NE(s.find("(int)"), std::string::npos);
  EXPECT_NE(s.find("?"), std::string::npos);
  util::DiagList diags2;
  EXPECT_NE(parse_and_check(s, &diags2), nullptr) << diags2.str() << s;
}

TEST(Printer, PointerTypesPrint) {
  util::DiagList diags;
  auto p = parse_and_check(
      "int **pp; int main(void) { return 0; }", &diags);
  ASSERT_NE(p, nullptr);
  EXPECT_NE(print_program(*p).find("int** pp"), std::string::npos);
}

}  // namespace
}  // namespace foray::minic
