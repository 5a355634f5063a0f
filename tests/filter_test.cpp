#include <gtest/gtest.h>

#include "foray/filter.h"

namespace foray::core {
namespace {

/// Builds a RefNode inside a standalone loop node with a synthetic
/// affine history: `execs` accesses with stride 4 over `locations`
/// distinct addresses.
struct Fixture {
  LoopNode node{0, nullptr, true};
  std::unique_ptr<RefNode> ref;

  explicit Fixture(uint64_t execs, uint64_t locations,
                   trace::AccessKind kind = trace::AccessKind::Data) {
    ref = std::make_unique<RefNode>(0x400100, &node);
    ref->kind = kind;
    for (uint64_t e = 0; e < execs; ++e) {
      int64_t it = static_cast<int64_t>(e % locations);
      std::vector<int64_t> iters = {it};
      int64_t addr = 0x10000000 + 4 * it;
      observe_access(ref->affine, iters, addr);
      ref->note_address(static_cast<uint32_t>(addr));
      ++ref->exec_count;
    }
  }
};

TEST(Filter, PaperDefaultsKeepQualifyingRef) {
  Fixture f(100, 50);
  EXPECT_EQ(classify_reference(*f.ref, FilterOptions{}),
            FilterReason::Kept);
}

TEST(Filter, TooFewExecutionsDropped) {
  Fixture f(19, 19);
  FilterOptions o;
  EXPECT_EQ(classify_reference(*f.ref, o), FilterReason::TooFewExecs);
  o.min_exec = 19;
  EXPECT_EQ(classify_reference(*f.ref, o), FilterReason::Kept);
}

TEST(Filter, TooFewLocationsDropped) {
  Fixture f(100, 9);
  FilterOptions o;
  EXPECT_EQ(classify_reference(*f.ref, o), FilterReason::TooFewLocations);
  o.min_locations = 9;
  EXPECT_EQ(classify_reference(*f.ref, o), FilterReason::Kept);
}

TEST(Filter, BoundaryValuesInclusive) {
  Fixture f(20, 10);
  EXPECT_EQ(classify_reference(*f.ref, FilterOptions{}),
            FilterReason::Kept);
}

TEST(Filter, ConstantRefHasNoIterator) {
  // Same address every time: coefficient solves to zero.
  LoopNode node{0, nullptr, true};
  RefNode ref(0x400200, &node);
  for (int e = 0; e < 100; ++e) {
    std::vector<int64_t> iters = {e % 10};
    observe_access(ref.affine, iters, 0x10000000);
    ref.note_address(0x10000000);
    ++ref.exec_count;
  }
  EXPECT_EQ(classify_reference(ref, FilterOptions{}),
            FilterReason::NoIterator);
}

TEST(Filter, SystemReferencesExcluded) {
  Fixture f(100, 50, trace::AccessKind::System);
  EXPECT_EQ(classify_reference(*f.ref, FilterOptions{}),
            FilterReason::SystemReference);
}

TEST(Filter, NonAnalyzableDropped) {
  LoopNode node{0, nullptr, true};
  RefNode ref(0x400300, &node);
  std::vector<int64_t> a = {0, 0};
  observe_access(ref.affine, a, 100);
  std::vector<int64_t> b = {1, 1};  // two unknowns change at once
  observe_access(ref.affine, b, 957);
  ref.exec_count = 100;
  for (uint32_t i = 0; i < 64; ++i) ref.note_address(0x1000 + i);
  EXPECT_EQ(classify_reference(ref, FilterOptions{}),
            FilterReason::NonAnalyzable);
}

TEST(Filter, PartialKept) {
  LoopNode node{0, nullptr, true};
  RefNode ref(0x400400, &node);
  // Inner regular, outer irregular -> partial with M=1.
  const int64_t bases[] = {1000, 7777, 3333, 9111};
  for (int64_t x = 0; x < 4; ++x) {
    for (int64_t i = 0; i < 32; ++i) {
      std::vector<int64_t> iters = {i, x};
      int64_t addr = bases[x] + 4 * i;
      observe_access(ref.affine, iters, addr);
      ref.note_address(static_cast<uint32_t>(addr));
      ++ref.exec_count;
    }
  }
  ASSERT_TRUE(ref.affine.is_partial());
  EXPECT_EQ(classify_reference(ref, FilterOptions{}), FilterReason::Kept);
}

TEST(Filter, ReasonNamesAreStable) {
  EXPECT_STREQ(filter_reason_name(FilterReason::Kept), "kept");
  EXPECT_STREQ(filter_reason_name(FilterReason::TooFewExecs),
               "too-few-execs");
  EXPECT_STREQ(filter_reason_name(FilterReason::SystemReference),
               "system-reference");
}

}  // namespace
}  // namespace foray::core
