// Cross-module equivalence properties:
//  - the address stream generated from an extracted model reproduces the
//    simulator-recorded addresses of full-affine references exactly;
//  - behavior statistics are consistent with raw trace counts;
//  - the emitted MiniC model generates the model's analytic address
//    stream, access for access and in order.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "benchsuite/generator.h"
#include "benchsuite/suite.h"
#include "foray/emitter.h"
#include "foray/pipeline.h"
#include "foray/stats.h"
#include "minic/parser.h"
#include "oracle.h"
#include "sim/classify_sink.h"
#include "sim/interpreter.h"
#include "spm/address_stream.h"
#include "trace/sink.h"

namespace foray {
namespace {

core::PipelineOptions lenient() {
  core::PipelineOptions o;
  o.filter.min_exec = 1;
  o.filter.min_locations = 1;
  return o;
}

/// Collects the Data-kind access addresses of a program run, per instr.
std::map<uint32_t, std::vector<uint32_t>> trace_addresses(
    std::string_view src) {
  util::DiagList diags;
  auto prog = minic::parse_and_check(src, &diags);
  EXPECT_NE(prog, nullptr) << diags.str();
  std::map<uint32_t, std::vector<uint32_t>> out;
  if (!prog) return out;
  instrument::annotate_loops(prog.get());
  const oracle::Run run = oracle::run_both(*prog);
  EXPECT_TRUE(run.result.ok()) << run.result.error();
  for (const auto& r : run.records) {
    if (r.type() == trace::RecordType::Access &&
        r.kind() == trace::AccessKind::Data) {
      out[r.instr()].push_back(r.addr());
    }
  }
  return out;
}

TEST(Equivalence, ModelStreamReproducesTraceAddressesInOrder) {
  // Deterministic generated programs: every nest is full affine, so the
  // model stream must equal the recorded stream element by element.
  for (uint64_t seed : {3u, 17u, 99u}) {
    benchsuite::GeneratorOptions gopts;
    gopts.seed = seed;
    gopts.num_nests = 4;
    auto gen = benchsuite::generate_affine_program(gopts);

    auto res = oracle::run_pipeline(gen.source, lenient());
    ASSERT_TRUE(res.ok()) << res.error();
    auto recorded = trace_addresses(gen.source);

    int checked = 0;
    for (const auto& ref : res.model.refs) {
      if (!ref.has_write || ref.partial()) continue;
      auto it = recorded.find(ref.instr);
      ASSERT_NE(it, recorded.end());
      std::vector<uint32_t> from_model;
      spm::for_each_address(ref, [&](uint32_t a) {
        from_model.push_back(a);
      });
      ASSERT_EQ(from_model.size(), it->second.size())
          << "instr " << std::hex << ref.instr << "\n" << gen.source;
      EXPECT_EQ(from_model, it->second) << gen.source;
      ++checked;
    }
    EXPECT_GE(checked, 4) << gen.source;
  }
}

/// One Data access as (reference index, byte offset in its array).
using RefOffset = std::pair<int, int64_t>;

/// Collects a program's Data accesses mapped through `regions`: an access
/// inside regions[k] becomes (ref_of[k], offset), one outside all of them
/// (-1, address).
class RefOffsetSink final : public trace::Sink {
 public:
  RefOffsetSink(std::vector<sim::GlobalRegion> regions,
                std::vector<int> ref_of)
      : regions_(std::move(regions)), ref_of_(std::move(ref_of)) {}
  void on_chunk(const trace::Record* r, size_t n) override {
    for (size_t i = 0; i < n; ++i) {
      if (r[i].type() != trace::RecordType::Access ||
          r[i].kind() != trace::AccessKind::Data) {
        continue;
      }
      RefOffset got{-1, r[i].addr()};
      for (size_t k = 0; k < regions_.size(); ++k) {
        if (r[i].addr() - regions_[k].base < regions_[k].size) {
          got = {ref_of_[k], r[i].addr() - regions_[k].base};
          break;
        }
      }
      seen.push_back(got);
    }
  }
  std::vector<RefOffset> seen;

 private:
  std::vector<sim::GlobalRegion> regions_;
  std::vector<int> ref_of_;
};

/// Runs `model`'s emitted program and checks that its Data accesses,
/// mapped to (reference, offset) through sim::global_regions, are the
/// model's address stream spm::for_each_address(model), in order.
void expect_emitted_stream_in_order(const core::ForayModel& model,
                                    const std::string& label) {
  const std::string source = core::emit_minic(model);
  util::DiagList diags;
  auto prog = minic::parse_and_check(source, &diags);
  ASSERT_NE(prog, nullptr) << label << ": " << diags.str();
  instrument::annotate_loops(prog.get());
  const std::vector<std::string> names = core::assign_array_names(model);
  std::vector<sim::GlobalRegion> regions = sim::global_regions(*prog);
  std::vector<int> ref_of;
  for (const sim::GlobalRegion& g : regions) {
    const auto it = std::find(names.begin(), names.end(), g.name);
    ref_of.push_back(it == names.end() ? -1
                                       : static_cast<int>(it - names.begin()));
  }
  sim::RunOptions ropts;
  ropts.replay_view = true;  // loop checkpoints and Data accesses only
  const oracle::Run run = oracle::run_both(*prog, ropts);
  ASSERT_TRUE(run.result.ok()) << label << ": " << run.result.error();
  RefOffsetSink sink(std::move(regions), std::move(ref_of));
  sink.on_chunk(run.records.data(), run.records.size());

  // The stream interleaves each nest's references per iteration, in
  // group_by_nest order; an address is const_term plus the iterator
  // terms, and the array holds it at that sum minus the span's minimum.
  std::vector<int> ref_seq;
  for (const core::NestGroup& g : core::group_by_nest(model)) {
    uint64_t iterations = 1;
    for (int64_t t : g.trips) iterations *= t > 0 ? t : 0;
    for (uint64_t k = 0; k < iterations; ++k) {
      ref_seq.insert(ref_seq.end(), g.refs.begin(), g.refs.end());
    }
  }
  std::vector<RefOffset> expected;
  spm::for_each_address(model, [&](uint32_t addr) {
    ASSERT_LT(expected.size(), ref_seq.size()) << label;
    const int ref = ref_seq[expected.size()];
    const core::ModelReference& r = model.refs[static_cast<size_t>(ref)];
    const auto sum = static_cast<int32_t>(
        addr - static_cast<uint32_t>(r.fn.const_term));
    expected.emplace_back(ref, sum - core::offset_span(r).min_off);
  });
  ASSERT_EQ(expected.size(), ref_seq.size()) << label;
  ASSERT_EQ(sink.seen.size(), expected.size()) << label << "\n" << source;
  const auto diverge =
      std::mismatch(sink.seen.begin(), sink.seen.end(), expected.begin());
  EXPECT_TRUE(diverge.first == sink.seen.end())
      << label << ": access " << diverge.first - sink.seen.begin()
      << " is (ref " << diverge.first->first << ", offset "
      << diverge.first->second << "), the model streams (ref "
      << diverge.second->first << ", offset " << diverge.second->second
      << ")\n"
      << source;
}

TEST(Equivalence, EmittedModelStreamsSameAddressCount) {
  // The emitted model program replays the model's address stream access
  // for access, on the six kernels and a seeded generator family.
  for (const auto& bench : benchsuite::all_benchmarks()) {
    auto res = oracle::run_pipeline(bench.source);
    ASSERT_TRUE(res.ok()) << bench.name << ": " << res.error();
    expect_emitted_stream_in_order(res.model, bench.name);
  }
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    benchsuite::GeneratorOptions gopts;
    gopts.seed = seed;
    auto gen = benchsuite::generate_affine_program(gopts);
    auto res = oracle::run_pipeline(gen.source, lenient());
    ASSERT_TRUE(res.ok()) << "seed " << seed << ": " << res.error();
    expect_emitted_stream_in_order(res.model,
                                   "seed " + std::to_string(seed));
  }
}

TEST(Equivalence, BehaviorTotalsMatchExtractorCounters) {
  for (const char* name : {"gsm", "adpcm"}) {
    auto res = oracle::run_pipeline(
        benchsuite::get_benchmark(name).source);
    ASSERT_TRUE(res.ok()) << res.error();
    auto b = core::compute_behavior(res.extractor->tree(),
                                    core::FilterOptions{});
    EXPECT_EQ(b.total.accesses, res.extractor->accesses_processed())
        << name;
    EXPECT_EQ(static_cast<int>(b.total.refs),
              res.extractor->tree().ref_node_count())
        << name;
  }
}

TEST(Equivalence, ModelAccessesNeverExceedTotal) {
  for (const auto& bench : benchsuite::all_benchmarks()) {
    auto res = oracle::run_pipeline(bench.source);
    ASSERT_TRUE(res.ok()) << bench.name;
    auto b = core::compute_behavior(res.extractor->tree(),
                                    core::FilterOptions{});
    EXPECT_LE(b.model.accesses, b.total.accesses) << bench.name;
    EXPECT_LE(b.model.footprint, b.total.footprint) << bench.name;
    EXPECT_EQ(res.model.total_accesses(), b.model.accesses) << bench.name;
  }
}

TEST(Equivalence, LoopMixCountsOnlyExecutedSites) {
  const char* src =
      "int a[64];\n"
      "void unused(void) { for (int i = 0; i < 4; i++) a[i] = i; "
      "do { a[0]++; } while (0); }\n"
      "int main(void) {\n"
      "  while (a[0] < 8) a[0]++;\n"
      "  return 0;\n"
      "}\n";
  auto res = oracle::run_pipeline(src, lenient());
  ASSERT_TRUE(res.ok()) << res.error();
  auto mix = core::compute_loop_mix(res.extractor->tree(), res.loop_sites,
                                    res.program->source_lines);
  EXPECT_EQ(mix.total, 1);        // only main's while executed
  EXPECT_EQ(mix.while_loops, 1);
  EXPECT_EQ(res.loop_sites.count(), 3);  // three exist statically
}

}  // namespace
}  // namespace foray
