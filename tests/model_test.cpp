#include <gtest/gtest.h>

#include "foray/emitter.h"
#include "foray/model.h"
#include "minic/parser.h"

namespace foray::core {
namespace {

using trace::AccessKind;
using trace::CheckpointType;
using trace::Record;

Record enter(int id) { return Record::checkpoint(CheckpointType::LoopEnter, id); }
Record body(int id) { return Record::checkpoint(CheckpointType::BodyBegin, id); }
Record exitl(int id) { return Record::checkpoint(CheckpointType::LoopExit, id); }

/// Builds an extractor holding one 2-deep nest with two references:
/// a write with stride (outer 128, inner 4) and a read with stride
/// (outer -64, inner 8).
Extractor make_two_ref_extraction() {
  Extractor ex;
  ex.on_record(enter(3));
  for (uint32_t i = 0; i < 6; ++i) {
    ex.on_record(body(3));
    ex.on_record(enter(5));
    for (uint32_t j = 0; j < 8; ++j) {
      ex.on_record(body(5));
      ex.on_record(Record::access(0x400100, 0x10000000 + 128 * i + 4 * j, 4,
                                  true, AccessKind::Data));
      ex.on_record(Record::access(0x400104, 0x20000800 - 64 * i + 8 * j, 4,
                                  false, AccessKind::Data));
    }
    ex.on_record(exitl(5));
  }
  ex.on_record(exitl(3));
  return ex;
}

FilterOptions lenient() {
  FilterOptions f;
  f.min_exec = 1;
  f.min_locations = 1;
  return f;
}

TEST(Model, BuildCollectsSurvivors) {
  Extractor ex = make_two_ref_extraction();
  ModelBuildStats stats;
  ForayModel m = build_model(ex, lenient(), &stats);
  ASSERT_EQ(m.refs.size(), 2u);
  EXPECT_EQ(stats.total_refs, 2);
  EXPECT_EQ(stats.kept, 2);
}

TEST(Model, ReferencesCarryContextAndTrips) {
  Extractor ex = make_two_ref_extraction();
  ForayModel m = build_model(ex, lenient());
  for (const auto& r : m.refs) {
    ASSERT_EQ(r.loop_path.size(), 2u);
    EXPECT_EQ(r.loop_path[0], 3);
    EXPECT_EQ(r.loop_path[1], 5);
    EXPECT_EQ(r.trips[0], 6);
    EXPECT_EQ(r.trips[1], 8);
    EXPECT_EQ(r.exec_count, 48u);
  }
}

TEST(Model, CoefficientsOutermostFirst) {
  Extractor ex = make_two_ref_extraction();
  ForayModel m = build_model(ex, lenient());
  const ModelReference* wr = nullptr;
  const ModelReference* rd = nullptr;
  for (const auto& r : m.refs) (r.has_write ? wr : rd) = &r;
  ASSERT_NE(wr, nullptr);
  ASSERT_NE(rd, nullptr);
  EXPECT_EQ(wr->fn.coefs, (std::vector<int64_t>{128, 4}));
  EXPECT_EQ(rd->fn.coefs, (std::vector<int64_t>{-64, 8}));
}

TEST(Model, DistinctLoopsAndContexts) {
  Extractor ex = make_two_ref_extraction();
  ForayModel m = build_model(ex, lenient());
  EXPECT_EQ(m.distinct_loops(), 2);
  EXPECT_EQ(m.loop_contexts(), 2);
  EXPECT_EQ(m.total_accesses(), 96u);
}

TEST(Model, FilterStatsBucketDropped) {
  Extractor ex = make_two_ref_extraction();
  FilterOptions strict;
  strict.min_exec = 1000;  // drops everything
  ModelBuildStats stats;
  ForayModel m = build_model(ex, strict, &stats);
  EXPECT_TRUE(m.refs.empty());
  EXPECT_EQ(stats.dropped_exec, 2);
}

TEST(Emitter, NamesAreUniquePerContext) {
  ForayModel m;
  for (int ctx = 0; ctx < 3; ++ctx) {
    ModelReference r;
    r.instr = 0x400100;
    r.loop_path = {ctx};
    r.trips = {4};
    r.fn.const_term = 0;
    r.fn.coefs = {4};
    r.fn.known = {true};
    r.fn.m = 1;
    m.refs.push_back(r);
  }
  auto names = assign_array_names(m);
  EXPECT_EQ(names[0], "A400100");
  EXPECT_EQ(names[1], "A400100_c2");
  EXPECT_EQ(names[2], "A400100_c3");
}

TEST(Emitter, MinicOutputParses) {
  Extractor ex = make_two_ref_extraction();
  ForayModel m = build_model(ex, lenient());
  std::string src = emit_minic(m);
  util::DiagList diags;
  auto p = minic::parse_and_check(src, &diags);
  EXPECT_NE(p, nullptr) << diags.str() << "\n" << src;
}

TEST(Emitter, NegativeStrideRebasedToValidArray) {
  Extractor ex = make_two_ref_extraction();
  ForayModel m = build_model(ex, lenient());
  std::string src = emit_minic(m);
  // The -64-stride read must rebase so indices stay >= 0; spot the
  // subtraction in the emitted index expression.
  EXPECT_NE(src.find("- 64 * i3"), std::string::npos) << src;
  util::DiagList diags;
  EXPECT_NE(minic::parse_and_check(src, &diags), nullptr) << diags.str();
}

TEST(Emitter, GroupedSharesOneNest) {
  Extractor ex = make_two_ref_extraction();
  ForayModel m = build_model(ex, lenient());
  std::string g = emit_minic(m);
  auto count = [](const std::string& hay, const std::string& needle) {
    int n = 0;
    for (size_t p = hay.find(needle); p != std::string::npos;
         p = hay.find(needle, p + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count(g, "for (int i3"), 1);
}

TEST(Emitter, PaperStyleShowsAbsoluteBase) {
  Extractor ex = make_two_ref_extraction();
  ForayModel m = build_model(ex, lenient());
  std::string s = emit_paper_style(m);
  EXPECT_NE(s.find(std::to_string(0x10000000)), std::string::npos) << s;
  EXPECT_NE(s.find("+4*i5"), std::string::npos);
  EXPECT_NE(s.find("+128*i3"), std::string::npos);
}

TEST(Emitter, DescribeReferenceMentionsPartiality) {
  ModelReference r;
  r.instr = 0x4002a0;
  r.loop_path = {12, 15};
  r.trips = {2, 3};
  r.fn.const_term = 0x7fff5934;
  r.fn.coefs = {103, 1};
  r.fn.known = {true, true};
  r.fn.m = 1;
  r.exec_count = 6;
  r.footprint = 6;
  std::string d = describe_reference(r);
  EXPECT_NE(d.find("partial"), std::string::npos);
  EXPECT_NE(d.find("4002a0"), std::string::npos);
  // Only the innermost M=1 iterator belongs to the partial expression;
  // the excluded outer term must not be displayed.
  EXPECT_NE(d.find("1*i15"), std::string::npos);
  EXPECT_EQ(d.find("103*i12"), std::string::npos);
}

TEST(Emitter, MinicCarriesProvenanceComments) {
  Extractor ex = make_two_ref_extraction();
  ForayModel m = build_model(ex, lenient());
  EXPECT_NE(emit_minic(m).find("// instr="), std::string::npos);
}

}  // namespace
}  // namespace foray::core
