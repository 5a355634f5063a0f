#include <gtest/gtest.h>

#include "foray/extractor.h"

namespace foray::core {
namespace {

using trace::AccessKind;
using trace::CheckpointType;
using trace::Record;

void feed(Extractor& ex, const std::vector<Record>& records) {
  for (const auto& r : records) ex.on_chunk(&r, 1);
}

Record enter(int id) { return Record::checkpoint(CheckpointType::LoopEnter, id); }
Record body(int id) { return Record::checkpoint(CheckpointType::BodyBegin, id); }
Record bend(int id) { return Record::checkpoint(CheckpointType::BodyEnd, id); }
Record exitl(int id) { return Record::checkpoint(CheckpointType::LoopExit, id); }
Record acc(uint32_t instr, uint32_t addr) {
  return Record::access(instr, addr, 4, false, AccessKind::Data);
}

TEST(Extractor, EmptyTraceYieldsEmptyTree) {
  Extractor ex;
  EXPECT_EQ(ex.tree().loop_node_count(), 0);
  EXPECT_EQ(ex.tree().ref_node_count(), 0);
}

TEST(Extractor, SingleLoopSingleRef) {
  Extractor ex;
  std::vector<Record> t = {enter(0)};
  for (int i = 0; i < 5; ++i) {
    t.push_back(body(0));
    t.push_back(acc(0x400010, 0x10000000 + 4 * static_cast<uint32_t>(i)));
    t.push_back(bend(0));
  }
  t.push_back(exitl(0));
  feed(ex, t);

  EXPECT_EQ(ex.tree().loop_node_count(), 1);
  EXPECT_EQ(ex.tree().ref_node_count(), 1);
  const LoopNode* loop = ex.tree().root()->children()[0].get();
  EXPECT_EQ(loop->loop_id(), 0);
  EXPECT_EQ(loop->entries, 1u);
  EXPECT_EQ(loop->max_trip, 5);
  const RefNode& ref = *loop->refs()[0];
  EXPECT_EQ(ref.exec_count, 5u);
  EXPECT_EQ(ref.footprint_size(), 5u);
  ASSERT_TRUE(ref.affine.analyzable);
  EXPECT_EQ(ref.affine.coef_at(0), 4);
  EXPECT_EQ(ref.affine.const_term, 0x10000000);
}

TEST(Extractor, NestedLoopsIteratorsPropagate) {
  Extractor ex;
  std::vector<Record> t = {enter(0)};
  for (uint32_t i = 0; i < 2; ++i) {
    t.push_back(body(0));
    t.push_back(enter(1));
    for (uint32_t j = 0; j < 3; ++j) {
      t.push_back(body(1));
      t.push_back(acc(0x400020, 0x7fff0000 + 103 * i + 1 * j));
      t.push_back(bend(1));
    }
    t.push_back(exitl(1));
    t.push_back(bend(0));
  }
  t.push_back(exitl(0));
  feed(ex, t);

  EXPECT_EQ(ex.tree().loop_node_count(), 2);
  const LoopNode* outer = ex.tree().root()->children()[0].get();
  const LoopNode* inner = outer->children()[0].get();
  EXPECT_EQ(inner->entries, 2u);
  EXPECT_EQ(inner->max_trip, 3);
  EXPECT_EQ(outer->max_trip, 2);
  const RefNode& ref = *inner->refs()[0];
  ASSERT_TRUE(ref.affine.analyzable);
  EXPECT_EQ(ref.affine.coef_at(0), 1);    // innermost
  EXPECT_EQ(ref.affine.coef_at(1), 103);  // outer
}

TEST(Extractor, ReentryResetsIterationCounter) {
  Extractor ex;
  std::vector<Record> t;
  // Same loop site entered twice from top level with different trip counts.
  t.push_back(enter(7));
  for (int i = 0; i < 4; ++i) {
    t.push_back(body(7));
    t.push_back(bend(7));
  }
  t.push_back(exitl(7));
  t.push_back(enter(7));
  for (int i = 0; i < 2; ++i) {
    t.push_back(body(7));
    t.push_back(bend(7));
  }
  t.push_back(exitl(7));
  feed(ex, t);

  EXPECT_EQ(ex.tree().loop_node_count(), 1);  // one node, two entries
  const LoopNode* loop = ex.tree().root()->children()[0].get();
  EXPECT_EQ(loop->entries, 2u);
  EXPECT_EQ(loop->max_trip, 4);
  EXPECT_EQ(loop->total_iterations, 6u);
}

TEST(Extractor, DistinctContextsGetDistinctNodes) {
  // The same inner site (a function's loop) under two different outer
  // loops -> two loop nodes, two separate reference nodes ("inlining").
  Extractor ex;
  std::vector<Record> t;
  for (int outer : {0, 1}) {
    t.push_back(enter(outer));
    t.push_back(body(outer));
    t.push_back(enter(9));
    t.push_back(body(9));
    t.push_back(acc(0x400030, 0x20000000));
    t.push_back(bend(9));
    t.push_back(exitl(9));
    t.push_back(bend(outer));
    t.push_back(exitl(outer));
  }
  feed(ex, t);
  EXPECT_EQ(ex.tree().loop_node_count(), 4);  // 0, 0/9, 1, 1/9
  EXPECT_EQ(ex.tree().ref_node_count(), 2);
}

TEST(Extractor, SameInstrDifferentDepthsSeparateRefs) {
  Extractor ex;
  std::vector<Record> t;
  t.push_back(acc(0x400040, 0x10000000));  // at root
  t.push_back(enter(0));
  t.push_back(body(0));
  t.push_back(acc(0x400040, 0x10000004));  // inside loop
  t.push_back(bend(0));
  t.push_back(exitl(0));
  feed(ex, t);
  EXPECT_EQ(ex.tree().ref_node_count(), 2);
  EXPECT_EQ(ex.tree().root()->refs().size(), 1u);
}

TEST(Extractor, MissingExitRecovers) {
  // Three-checkpoint traces (no explicit exit, as in the paper): the
  // next body_begin of an outer loop must pop the stack.
  Extractor ex;
  std::vector<Record> t = {
      enter(0), body(0), enter(1), body(1), acc(0x400050, 0x10000000),
      // no bend(1)/exit(1): inner loop ended silently
      body(0),  // outer iteration 2 begins
      enter(1), body(1), acc(0x400050, 0x10000010),
      body(0),
  };
  feed(ex, t);
  const LoopNode* outer = ex.tree().root()->children()[0].get();
  EXPECT_EQ(outer->cur_iter, 2);
  EXPECT_EQ(ex.tree().loop_node_count(), 2);
}

TEST(Extractor, CallRetRecordsIgnored) {
  Extractor ex;
  std::vector<Record> t = {Record::call(1), enter(0), body(0),
                           acc(0x400060, 0x10000000), Record::ret(1),
                           exitl(0)};
  feed(ex, t);
  EXPECT_EQ(ex.tree().ref_node_count(), 1);
}

TEST(Extractor, CountersTrackStreamVolume) {
  Extractor ex;
  std::vector<Record> t = {enter(0), body(0), acc(0x1, 0x10000000),
                           acc(0x2, 0x10000004), bend(0), exitl(0)};
  feed(ex, t);
  EXPECT_EQ(ex.records_processed(), 6u);
  EXPECT_EQ(ex.accesses_processed(), 2u);
  EXPECT_EQ(ex.checkpoints_processed(), 4u);
}

TEST(Extractor, LinearLookupProducesIdenticalTree) {
  std::vector<Record> t;
  for (int outer = 0; outer < 3; ++outer) {
    t.push_back(enter(outer));
    for (uint32_t i = 0; i < 4; ++i) {
      t.push_back(body(outer));
      t.push_back(acc(0x400100 + static_cast<uint32_t>(outer) * 4,
                      0x10000000 + 8 * i));
      t.push_back(bend(outer));
    }
    t.push_back(exitl(outer));
  }
  Extractor hashed{ExtractorOptions{.hash_index = true}};
  Extractor linear{ExtractorOptions{.hash_index = false}};
  feed(hashed, t);
  feed(linear, t);
  EXPECT_EQ(hashed.tree().loop_node_count(), linear.tree().loop_node_count());
  EXPECT_EQ(hashed.tree().ref_node_count(), linear.tree().ref_node_count());
  for (size_t i = 0; i < 3; ++i) {
    const RefNode& a = *hashed.tree().root()->children()[i]->refs()[0];
    const RefNode& b = *linear.tree().root()->children()[i]->refs()[0];
    EXPECT_EQ(a.affine.const_term, b.affine.const_term);
    ASSERT_EQ(a.affine.n, b.affine.n);
    for (int c = 0; c < a.affine.n; ++c) {
      EXPECT_EQ(a.affine.coef_at(c), b.affine.coef_at(c)) << "coef " << c;
    }
    EXPECT_EQ(a.exec_count, b.exec_count);
  }
}

TEST(Extractor, StateBytesGrowWithTreeNotTrace) {
  // Same loop re-executed many times: analyzer state must not grow.
  Extractor ex;
  std::vector<Record> once = {enter(0)};
  for (uint32_t i = 0; i < 10; ++i) {
    once.push_back(body(0));
    once.push_back(acc(0x400070, 0x10000000 + 4 * (i % 10)));
    once.push_back(bend(0));
  }
  once.push_back(exitl(0));
  feed(ex, once);
  size_t after_one = ex.state_bytes();
  for (int round = 0; round < 50; ++round) feed(ex, once);
  size_t after_many = ex.state_bytes();
  EXPECT_EQ(after_one, after_many);
}

TEST(Extractor, FootprintCapSaturates) {
  Extractor ex{ExtractorOptions{.footprint_cap = 16}};
  std::vector<Record> t = {enter(0)};
  for (uint32_t i = 0; i < 100; ++i) {
    t.push_back(body(0));
    t.push_back(acc(0x400080, 0x10000000 + 4 * i));
    t.push_back(bend(0));
  }
  t.push_back(exitl(0));
  feed(ex, t);
  const RefNode& ref = *ex.tree().root()->children()[0]->refs()[0];
  EXPECT_EQ(ref.footprint_size(), 16u);
  EXPECT_TRUE(ref.footprint_saturated());
}

}  // namespace
}  // namespace foray::core
