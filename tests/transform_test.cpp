#include <gtest/gtest.h>

#include "benchsuite/suite.h"
#include "foray/emitter.h"
#include "foray/pipeline.h"
#include "minic/parser.h"
#include "oracle.h"
#include "sim/interpreter.h"
#include "spm/spm_sim.h"
#include "spm/transform.h"
#include "trace/sink.h"

namespace foray::spm {
namespace {

core::ModelReference make_ref(std::vector<int64_t> coefs,
                              std::vector<int64_t> trips, bool write) {
  core::ModelReference r;
  r.instr = 0x400200;
  r.fn.const_term = 0x10000000;
  r.fn.coefs = std::move(coefs);
  r.fn.known.assign(r.fn.coefs.size(), true);
  r.fn.m = static_cast<int>(r.fn.coefs.size());
  r.trips = std::move(trips);
  for (size_t i = 0; i < r.trips.size(); ++i) {
    r.loop_path.push_back(static_cast<int>(i));
  }
  r.access_size = 4;
  r.has_write = write;
  r.has_read = !write;
  r.exec_count = 1;
  for (int64_t t : r.trips) {
    r.exec_count *= static_cast<uint64_t>(t);
  }
  r.footprint = r.exec_count;
  return r;
}

Selection select_level(const core::ForayModel& model, int level) {
  auto cands = enumerate_candidates(model);
  Selection sel;
  for (const auto& c : cands) {
    if (c.level == level) {
      sel.chosen.push_back(c);
      sel.bytes_used += c.size_bytes;
    }
  }
  return sel;
}

struct RunOutcome {
  bool ok = false;
  uint64_t data_accesses = 0;
  std::string source;
};

RunOutcome run_transformed(const core::ForayModel& model,
                           const Selection& sel) {
  RunOutcome out;
  out.source = emit_transformed(model, sel);
  util::DiagList diags;
  auto prog = minic::parse_and_check(out.source, &diags);
  EXPECT_NE(prog, nullptr) << diags.str() << "\n" << out.source;
  if (!prog) return out;
  instrument::annotate_loops(prog.get());
  const oracle::Run both = oracle::run_both(*prog);
  const sim::RunResult& run = both.result;
  EXPECT_TRUE(run.ok()) << run.error();
  out.ok = run.ok();
  for (const auto& r : both.records) {
    if (r.type() == trace::RecordType::Access &&
        r.kind() == trace::AccessKind::Data) {
      ++out.data_accesses;
    }
  }
  return out;
}

/// `source` without its leading header comment: the comment lines before
/// the first reference's declaration comment.
std::string below_header(const std::string& source) {
  size_t pos = 0;
  while (source.compare(pos, 3, "// ") == 0 &&
         source.compare(pos, 9, "// instr=") != 0) {
    pos = source.find('\n', pos) + 1;
  }
  return source.substr(pos);
}

TEST(Transform, UnselectedModelMatchesPlainEmission) {
  core::ForayModel model;
  model.refs.push_back(make_ref({0, 4}, {10, 64}, false));
  Selection none;
  RunOutcome out = run_transformed(model, none);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.data_accesses, 640u);
  EXPECT_EQ(out.source.find("spm_"), std::string::npos);

  // With no buffer selected, the transformed program is the model
  // program, byte for byte below its header comment.
  std::vector<core::ForayModel> models = {model};
  for (const auto& bench : benchsuite::all_benchmarks()) {
    auto res = oracle::run_pipeline(bench.source);
    ASSERT_TRUE(res.ok()) << bench.name << ": " << res.error();
    models.push_back(res.model);
  }
  for (const core::ForayModel& m : models) {
    const std::string plain = core::emit_minic(m);
    EXPECT_EQ(below_header(emit_transformed(m, none)), below_header(plain));
    EXPECT_NE(below_header(plain), plain);
  }
}

TEST(Transform, BufferedReadAddsFillTraffic) {
  // Row reused 10 times: level-2 buffer -> one fill of the 256B row.
  core::ForayModel model;
  model.refs.push_back(make_ref({0, 4}, {10, 64}, false));
  Selection sel = select_level(model, 2);
  ASSERT_EQ(sel.chosen.size(), 1u);
  RunOutcome out = run_transformed(model, sel);
  ASSERT_TRUE(out.ok);
  EXPECT_NE(out.source.find("spm_"), std::string::npos);
  // 640 buffer accesses + one fill: 256 reads from main + 256 writes to
  // the buffer.
  EXPECT_EQ(out.data_accesses, 640u + 2u * 256u);
}

TEST(Transform, BufferedWriteAddsWriteback) {
  core::ForayModel model;
  model.refs.push_back(make_ref({0, 4}, {10, 64}, true));
  Selection sel = select_level(model, 2);
  ASSERT_EQ(sel.chosen.size(), 1u);
  RunOutcome out = run_transformed(model, sel);
  ASSERT_TRUE(out.ok);
  // Fill + writeback around the 640 buffered stores.
  EXPECT_EQ(out.data_accesses, 640u + 4u * 256u);
}

TEST(Transform, Level1BufferFillsPerOuterIteration) {
  core::ForayModel model;
  model.refs.push_back(make_ref({0, 4}, {10, 64}, false));
  Selection sel = select_level(model, 1);
  ASSERT_EQ(sel.chosen.size(), 1u);
  RunOutcome out = run_transformed(model, sel);
  ASSERT_TRUE(out.ok);
  // The level-1 buffer is refilled on each of the 10 outer iterations.
  EXPECT_EQ(out.data_accesses, 640u + 10u * 2u * 256u);
}

TEST(Transform, NegativeStrideBufferWorks) {
  core::ForayModel model;
  model.refs.push_back(make_ref({-64, 4}, {8, 16}, false));
  Selection sel = select_level(model, 1);
  ASSERT_EQ(sel.chosen.size(), 1u);
  RunOutcome out = run_transformed(model, sel);
  EXPECT_TRUE(out.ok);
}

TEST(Transform, MixedSelectionKeepsOthersInMainMemory) {
  core::ForayModel model;
  model.refs.push_back(make_ref({0, 4}, {10, 64}, false));   // buffered
  model.refs.push_back(make_ref({4}, {50}, true));           // streaming
  auto cands = enumerate_candidates(model);
  Selection sel;
  for (const auto& c : cands) {
    if (c.ref_index == 0 && c.level == 2) sel.chosen.push_back(c);
  }
  RunOutcome out = run_transformed(model, sel);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.data_accesses, 640u + 2u * 256u + 50u);
  // Exactly one buffer was declared.
  size_t first = out.source.find("char spm_");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(out.source.find("char spm_", first + 1), std::string::npos);
}

TEST(Transform, BenchmarkEndToEnd) {
  // Full Phase I + II + transformed-code emission on a real benchmark;
  // the transformed program must execute cleanly.
  auto res = oracle::run_pipeline(benchsuite::get_benchmark("susan").source);
  ASSERT_TRUE(res.ok()) << res.error();
  auto cands = enumerate_candidates(res.model);
  DseOptions opts;
  opts.spm_capacity = 4096;
  Selection sel = select_buffers(cands, opts);
  ASSERT_FALSE(sel.chosen.empty());
  RunOutcome out = run_transformed(res.model, sel);
  EXPECT_TRUE(out.ok);
}

}  // namespace
}  // namespace foray::spm
