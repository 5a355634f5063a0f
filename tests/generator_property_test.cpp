// Randomized end-to-end property tests: for programs whose affine
// behavior is known by construction, FORAY-GEN must recover exactly the
// constructed coefficients and trip counts, whatever surface syntax the
// program uses — and the static baselines must see exactly the syntactic
// subsets they are supposed to see.
#include <gtest/gtest.h>

#include <algorithm>

#include "benchsuite/generator.h"
#include "foray/pipeline.h"
#include "minic/parser.h"
#include "oracle.h"
#include "staticforay/pointer_conversion.h"
#include "staticforay/static_analysis.h"
#include "util/hash.h"

namespace foray::benchsuite {
namespace {

core::PipelineOptions lenient() {
  core::PipelineOptions o;
  o.filter.min_exec = 1;
  o.filter.min_locations = 1;
  return o;
}

/// Finds the model reference realizing `nest` (matching trips and
/// byte-granular coefficients); nullptr if absent.
const core::ModelReference* find_match(const core::ForayModel& model,
                                       const ExpectedNest& nest) {
  std::vector<int64_t> want_coefs;
  for (int64_t c : nest.elem_coefs) want_coefs.push_back(c * 4);
  for (const auto& r : model.refs) {
    if (!r.has_write) continue;
    if (r.emitted_trips() != nest.trips) continue;
    if (r.emitted_coefs() != want_coefs) continue;
    return &r;
  }
  return nullptr;
}

class GeneratedRecovery : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratedRecovery, AllNestsExactlyRecovered) {
  GeneratorOptions gopts;
  gopts.seed = GetParam();
  gopts.num_nests = 5;
  GeneratedProgram gen = generate_affine_program(gopts);

  auto res = oracle::run_pipeline(gen.source, lenient());
  ASSERT_TRUE(res.ok()) << res.error() << "\nprogram:\n" << gen.source;

  for (size_t i = 0; i < gen.nests.size(); ++i) {
    const auto& nest = gen.nests[i];
    const core::ModelReference* match = find_match(res.model, nest);
    ASSERT_NE(match, nullptr)
        << "nest " << i << " (style " << static_cast<int>(nest.style)
        << ") not recovered\nprogram:\n" << gen.source;
    EXPECT_FALSE(match->partial()) << "nest " << i;
    EXPECT_EQ(match->exec_count, nest.accesses()) << "nest " << i;
  }
}

TEST_P(GeneratedRecovery, StaticBaselinesSeeTheirSyntacticSubsets) {
  GeneratorOptions gopts;
  gopts.seed = GetParam() * 31 + 7;
  gopts.num_nests = 6;
  GeneratedProgram gen = generate_affine_program(gopts);

  auto res = oracle::run_pipeline(gen.source, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  auto analysis = staticforay::analyze(*res.program);
  auto conv = staticforay::analyze_pointer_conversion(*res.program);

  for (const auto& nest : gen.nests) {
    const core::ModelReference* match = find_match(res.model, nest);
    ASSERT_NE(match, nullptr) << gen.source;
    const int node = minic::node_for_instr_addr(match->instr);
    switch (nest.style) {
      case NestStyle::Subscript:
        EXPECT_TRUE(analysis.ref_is_affine(node))
            << "subscript nest must be statically affine\n" << gen.source;
        break;
      case NestStyle::PointerFor:
        EXPECT_FALSE(analysis.ref_is_affine(node));
        EXPECT_TRUE(conv.ref_is_convertible(node))
            << "canonical-for pointer walk must be Franke-convertible\n"
            << gen.source;
        break;
      case NestStyle::PointerWhile:
        EXPECT_FALSE(analysis.ref_is_affine(node));
        EXPECT_FALSE(conv.ref_is_convertible(node))
            << "while-loop walk must stay statically opaque\n"
            << gen.source;
        break;
    }
  }
}

TEST_P(GeneratedRecovery, RoundTripThroughEmittedModel) {
  GeneratorOptions gopts;
  gopts.seed = GetParam() * 1000 + 3;
  gopts.num_nests = 3;
  GeneratedProgram gen = generate_affine_program(gopts);

  auto res = oracle::run_pipeline(gen.source, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  auto res2 = oracle::run_pipeline(res.foray_source, lenient());
  ASSERT_TRUE(res2.ok()) << res2.error() << "\nemitted:\n" << res.foray_source;

  // Every constructed nest must survive the second extraction.
  for (const auto& nest : gen.nests) {
    EXPECT_NE(find_match(res2.model, nest), nullptr)
        << "lost in round trip\n" << res.foray_source;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratedRecovery,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89, 144, 233),
                         [](const ::testing::TestParamInfo<uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

TEST(Generator, DeterministicForSeed) {
  GeneratorOptions o;
  o.seed = 42;
  auto a = generate_affine_program(o);
  auto b = generate_affine_program(o);
  EXPECT_EQ(a.source, b.source);
  ASSERT_EQ(a.nests.size(), b.nests.size());
  for (size_t i = 0; i < a.nests.size(); ++i) {
    EXPECT_EQ(a.nests[i].elem_coefs, b.nests[i].elem_coefs);
    EXPECT_EQ(a.nests[i].trips, b.nests[i].trips);
  }
}

TEST(Generator, CorpusIsPinnedWhateverTheCompiler) {
  // Every generated test program, stress and affine, for seeds 1-3000,
  // hashed into one fnv1a. A draw whose order the compiler may choose
  // (an operand of a `+` chain, a function argument) moves it; the
  // value is the corpus GCC 12 generated at -O0 and -O3.
  uint64_t h = util::kFnv1aOffset;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    StressOptions s;
    s.seed = seed;
    h = util::fnv1a(generate_stress_program(s), h);
    GeneratorOptions g;
    g.seed = seed;
    h = util::fnv1a(generate_affine_program(g).source, h);
  }
  EXPECT_EQ(util::hex64(h), "bd1b065cab03ee11");
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorOptions a, b;
  a.seed = 1;
  b.seed = 2;
  EXPECT_NE(generate_affine_program(a).source,
            generate_affine_program(b).source);
}

TEST(Generator, SubscriptOnlyModeRestrictsStyles) {
  GeneratorOptions o;
  o.seed = 7;
  o.num_nests = 10;
  o.allow_pointer_for = false;
  o.allow_pointer_while = false;
  auto g = generate_affine_program(o);
  for (const auto& n : g.nests) {
    EXPECT_EQ(n.style, NestStyle::Subscript);
  }
}

TEST(Generator, ProgramsAreWellFormed) {
  for (uint64_t seed : {101u, 202u, 303u}) {
    GeneratorOptions o;
    o.seed = seed;
    o.num_nests = 8;
    auto g = generate_affine_program(o);
    util::DiagList diags;
    auto prog = minic::parse_and_check(g.source, &diags);
    EXPECT_NE(prog, nullptr) << diags.str() << "\n" << g.source;
  }
}

}  // namespace
}  // namespace foray::benchsuite
