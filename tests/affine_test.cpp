#include <gtest/gtest.h>

#include <vector>

#include "foray/affine.h"
#include "util/rng.h"

namespace foray::core {
namespace {

/// Drives an AffineState with a full loop-nest sweep: iterates the
/// iteration space (outermost slowest) and feeds ind = base + sum(c*it),
/// innermost-first coefficient order.
AffineState sweep(const std::vector<int64_t>& coefs_inner_first,
                  const std::vector<int64_t>& trips_inner_first,
                  int64_t base) {
  AffineState st;
  const int n = static_cast<int>(coefs_inner_first.size());
  std::vector<int64_t> it(static_cast<size_t>(n), 0);
  // Odometer over the nest, innermost = index 0 fastest.
  for (;;) {
    int64_t ind = base;
    for (int i = 0; i < n; ++i) ind += coefs_inner_first[i] * it[i];
    observe_access(st, it, ind);
    int i = 0;
    while (i < n) {
      if (++it[i] < trips_inner_first[i]) break;
      it[i] = 0;
      ++i;
    }
    if (i == n) break;
    if (n == 0) break;
  }
  return st;
}

TEST(Affine, FirstObservationInitializes) {
  AffineState st;
  std::vector<int64_t> it = {0, 0};
  observe_access(st, it, 1000);
  EXPECT_TRUE(st.initialized);
  EXPECT_EQ(st.n, 2);
  EXPECT_EQ(st.m, 2);
  EXPECT_EQ(st.const_term, 1000);
  EXPECT_FALSE(st.coef_known(0));
  EXPECT_FALSE(st.coef_known(1));
  EXPECT_TRUE(st.analyzable);
}

TEST(Affine, OneDimensionalExactRecovery) {
  auto st = sweep({4}, {10}, 0x10000000);
  ASSERT_TRUE(st.analyzable);
  EXPECT_EQ(st.const_term, 0x10000000);
  ASSERT_TRUE(st.coef_known(0));
  EXPECT_EQ(st.coef_at(0), 4);
  EXPECT_EQ(st.m, 1);
  EXPECT_EQ(st.mispredictions, 0u);
}

TEST(Affine, TwoDimensionalExactRecovery) {
  // The paper's Figure 4 function: addr = base + 1*i_inner + 103*i_outer.
  auto st = sweep({1, 103}, {3, 2}, 0x7fff5934);
  ASSERT_TRUE(st.analyzable);
  EXPECT_EQ(st.const_term, 0x7fff5934);
  EXPECT_EQ(st.coef_at(0), 1);
  EXPECT_EQ(st.coef_at(1), 103);
  EXPECT_EQ(st.m, 2);
  EXPECT_EQ(st.mispredictions, 0u);
}

TEST(Affine, ThreeDeepNest) {
  auto st = sweep({4, 64, 1024}, {4, 8, 5}, 500);
  ASSERT_TRUE(st.analyzable);
  EXPECT_EQ(st.coef_at(0), 4);
  EXPECT_EQ(st.coef_at(1), 64);
  EXPECT_EQ(st.coef_at(2), 1024);
  EXPECT_EQ(st.m, 3);
}

TEST(Affine, NegativeCoefficients) {
  auto st = sweep({-4, 100}, {5, 3}, 100000);
  ASSERT_TRUE(st.analyzable);
  EXPECT_EQ(st.coef_at(0), -4);
  EXPECT_EQ(st.coef_at(1), 100);
  EXPECT_EQ(st.mispredictions, 0u);
}

TEST(Affine, ZeroCoefficientIsRecovered) {
  // Iterator varies but does not move the address.
  auto st = sweep({0, 8}, {4, 4}, 2000);
  ASSERT_TRUE(st.analyzable);
  EXPECT_EQ(st.coef_at(0), 0);
  EXPECT_EQ(st.coef_at(1), 8);
  // A zero coefficient is "known" but not an effective iterator by
  // itself; the outer one is effective.
  EXPECT_TRUE(st.has_effective_iterator());
}

TEST(Affine, SingleIterationLoopLeavesCoefUnknown) {
  // Inner loop runs once per entry: its coefficient is unobservable.
  auto st = sweep({4, 16}, {1, 5}, 0);
  EXPECT_FALSE(st.coef_known(0));
  EXPECT_TRUE(st.coef_known(1));
  EXPECT_EQ(st.coef_at(1), 16);
  EXPECT_TRUE(st.analyzable);
}

TEST(Affine, ConstantReferenceHasNoIterator) {
  auto st = sweep({0}, {10}, 42);
  EXPECT_FALSE(st.has_effective_iterator());
}

TEST(Affine, PredictUsesKnownCoefficients) {
  AffineState st;
  std::vector<int64_t> it0 = {0};
  observe_access(st, it0, 100);
  std::vector<int64_t> it1 = {1};
  observe_access(st, it1, 104);
  std::vector<int64_t> it5 = {5};
  EXPECT_EQ(st.predict(it5), 120);
}

TEST(Affine, SimultaneousUnknownChangesMarkNonAnalyzable) {
  AffineState st;
  std::vector<int64_t> a = {0, 0};
  observe_access(st, a, 100);
  // Both iterators change before either coefficient was determined.
  std::vector<int64_t> b = {1, 1};
  observe_access(st, b, 200);
  EXPECT_FALSE(st.analyzable);
}

TEST(Affine, SequentialChangesStayAnalyzable) {
  AffineState st;
  std::vector<int64_t> a = {0, 0};
  observe_access(st, a, 100);
  std::vector<int64_t> b = {1, 0};
  observe_access(st, b, 104);  // solves C1 = 4
  std::vector<int64_t> c = {1, 1};
  observe_access(st, c, 204);  // solves C2 = 100
  EXPECT_TRUE(st.analyzable);
  EXPECT_EQ(st.coef_at(0), 4);
  EXPECT_EQ(st.coef_at(1), 100);
  // And predictions hold from here on.
  std::vector<int64_t> d = {2, 3};
  EXPECT_EQ(st.predict(d), 100 + 8 + 300);
}

TEST(Affine, PartialWhenOuterContextShifts) {
  // Figure 7: function with a 10-iteration loop called repeatedly with a
  // data-dependent base. Iterator 0 = the function's loop, iterator 1 =
  // the caller's loop. Bases are irregular.
  AffineState st;
  const int64_t bases[] = {1000, 7777, 3210, 9999};
  for (int64_t x = 0; x < 4; ++x) {
    for (int64_t i = 0; i < 10; ++i) {
      std::vector<int64_t> it = {i, x};
      observe_access(st, it, bases[x] + 4 * i);
    }
  }
  ASSERT_TRUE(st.analyzable);
  EXPECT_TRUE(st.is_partial());
  EXPECT_EQ(st.m, 1);  // only the innermost iterator is predictable
  EXPECT_EQ(st.coef_at(0), 4);
  EXPECT_GT(st.mispredictions, 0u);
  EXPECT_TRUE(st.has_effective_iterator());
}

TEST(Affine, PartialDepthTwoOfThree) {
  // Two inner loops are regular; the outermost call context shifts the
  // base irregularly -> M = 2.
  AffineState st;
  const int64_t bases[] = {5000, 11111, 2222};
  for (int64_t x = 0; x < 3; ++x) {
    for (int64_t j = 0; j < 4; ++j) {
      for (int64_t i = 0; i < 5; ++i) {
        std::vector<int64_t> it = {i, j, x};
        observe_access(st, it, bases[x] + 4 * i + 40 * j);
      }
    }
  }
  ASSERT_TRUE(st.analyzable);
  EXPECT_EQ(st.m, 2);
  EXPECT_EQ(st.coef_at(0), 4);
  EXPECT_EQ(st.coef_at(1), 40);
}

TEST(Affine, MispredictionRefitsConstTerm) {
  AffineState st;
  for (int64_t i = 0; i < 5; ++i) {
    std::vector<int64_t> it = {i};
    observe_access(st, it, 100 + 4 * i);
  }
  // Loop restarts with a new base (outer context not represented).
  for (int64_t i = 0; i < 5; ++i) {
    std::vector<int64_t> it = {i};
    observe_access(st, it, 900 + 4 * i);
  }
  EXPECT_TRUE(st.analyzable);
  EXPECT_EQ(st.coef_at(0), 4);
  EXPECT_EQ(st.const_term, 900);  // re-fitted to the latest base
}

TEST(Affine, NonIntegralSlopeDegradesGracefully) {
  // Address pattern where the delta is not divisible by the iterator
  // delta: i jumps by 2 but address moves by 3.
  AffineState st;
  std::vector<int64_t> a = {0};
  observe_access(st, a, 100);
  std::vector<int64_t> b = {2};
  observe_access(st, b, 103);
  // No crash; coefficient stays unknown and CONST absorbed the change.
  EXPECT_TRUE(st.analyzable);
  EXPECT_FALSE(st.coef_known(0));
}

TEST(Affine, DepthZeroReferences) {
  AffineState st;
  std::vector<int64_t> none;
  observe_access(st, none, 500);
  observe_access(st, none, 500);
  EXPECT_TRUE(st.analyzable);
  EXPECT_FALSE(st.has_effective_iterator());
  observe_access(st, none, 777);  // address changed with no iterators
  EXPECT_EQ(st.const_term, 777);
  EXPECT_GT(st.mispredictions, 0u);
}

TEST(Affine, FinalizeReversesToOutermostFirst) {
  auto st = sweep({1, 103}, {3, 2}, 5000);
  AffineFunction fn = finalize(st);
  ASSERT_EQ(fn.n(), 2);
  EXPECT_EQ(fn.coefs[0], 103);  // outermost first
  EXPECT_EQ(fn.coefs[1], 1);
  EXPECT_EQ(fn.const_term, 5000);
  EXPECT_FALSE(fn.partial());
  std::vector<int64_t> it = {1, 2};  // outer=1, inner=2
  EXPECT_EQ(fn.evaluate(it), 5000 + 103 + 2);
}

TEST(Affine, FinalizeUnknownCoefsBecomeZero) {
  auto st = sweep({4, 16}, {1, 5}, 0);  // inner coef unknown
  AffineFunction fn = finalize(st);
  EXPECT_EQ(fn.coefs[1], 0);
  EXPECT_FALSE(fn.known[1]);
  EXPECT_TRUE(fn.known[0]);
}

// -- property sweep: random full-affine nests are recovered exactly --------

struct SweepParam {
  int depth;
  uint64_t seed;
};

class AffineRecovery : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AffineRecovery, RandomNestExactlyRecovered) {
  util::Rng rng(GetParam().seed);
  const int n = GetParam().depth;
  std::vector<int64_t> coefs, trips;
  for (int i = 0; i < n; ++i) {
    int64_t c = rng.next_in(-64, 64);
    coefs.push_back(c);
    trips.push_back(rng.next_in(2, 6));
  }
  int64_t base = rng.next_in(0x10000000, 0x20000000);
  auto st = sweep(coefs, trips, base);
  ASSERT_TRUE(st.analyzable);
  EXPECT_EQ(st.m, n);
  EXPECT_EQ(st.mispredictions, 0u) << "full affine must never mispredict";
  EXPECT_EQ(st.const_term, base);
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(st.coef_known(i)) << "coef " << i;
    EXPECT_EQ(st.coef_at(i), coefs[static_cast<size_t>(i)]) << "coef " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Depths, AffineRecovery,
    ::testing::Values(SweepParam{1, 11}, SweepParam{1, 12},
                      SweepParam{2, 21}, SweepParam{2, 22},
                      SweepParam{3, 31}, SweepParam{3, 32},
                      SweepParam{4, 41}, SweepParam{4, 42},
                      SweepParam{5, 51}, SweepParam{6, 61}),
    [](const ::testing::TestParamInfo<SweepParam>& pi) {
      return "depth" + std::to_string(pi.param.depth) + "_seed" +
             std::to_string(pi.param.seed);
    });

// -- property sweep: partial recovery at every split point ------------------

class PartialRecovery : public ::testing::TestWithParam<int> {};

TEST_P(PartialRecovery, OuterIrregularityYieldsCorrectM) {
  // 4-deep nest; levels above the split get irregular base shifts.
  const int split = GetParam();  // iterators [0, split) stay regular
  util::Rng rng(1234 + static_cast<uint64_t>(split));
  const int n = 4;
  std::vector<int64_t> coefs = {4, 100, 4000, 90000};
  std::vector<int64_t> trips = {3, 3, 3, 3};
  AffineState st;
  std::vector<int64_t> it(n, 0);
  for (;;) {
    int64_t ind = 0;
    for (int i = 0; i < split; ++i) ind += coefs[i] * it[i];
    // Irregular contribution from outer iterators: a hash, not linear.
    uint64_t outer_key = 0;
    for (int i = split; i < n; ++i) {
      outer_key = outer_key * 31 + static_cast<uint64_t>(it[i]) + 1;
    }
    ind += static_cast<int64_t>((outer_key * 2654435761u) % 1000000) * 8;
    observe_access(st, it, ind);
    int i = 0;
    while (i < n && ++it[i] >= trips[i]) it[i++] = 0;
    if (i == n) break;
  }
  ASSERT_TRUE(st.analyzable);
  EXPECT_EQ(st.m, split);
  for (int i = 0; i < split; ++i) {
    EXPECT_EQ(st.coef_at(i), coefs[static_cast<size_t>(i)]) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Splits, PartialRecovery, ::testing::Values(1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& pi) {
                           std::string name = "m";
                           name += std::to_string(pi.param);
                           return name;
                         });

}  // namespace
}  // namespace foray::core
