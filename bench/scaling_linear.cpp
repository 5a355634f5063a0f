// E7 — §4 complexity claims: analysis time is linear in the number of
// profiled records, and online analysis uses constant space with respect
// to trace length.
//
// google-benchmark over synthetic traces of growing length but fixed
// loop-tree shape; the per-record cost must stay flat (linear total) and
// the extractor's state must not grow with trace length.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "foray/extractor.h"

namespace {

using foray::core::Extractor;
using foray::core::ExtractorOptions;
using foray::trace::AccessKind;
using foray::trace::CheckpointType;
using foray::trace::Record;

/// One outer iteration of a fixed 8-reference doubly-nested loop body.
void append_round(std::vector<Record>* t, uint32_t round) {
  t->push_back(Record::checkpoint(CheckpointType::BodyBegin, 0));
  t->push_back(Record::checkpoint(CheckpointType::LoopEnter, 1));
  for (uint32_t j = 0; j < 16; ++j) {
    t->push_back(Record::checkpoint(CheckpointType::BodyBegin, 1));
    for (uint32_t r = 0; r < 8; ++r) {
      t->push_back(Record::access(0x400100 + 4 * r,
                                  0x10000000 + (round % 64) * 1024 +
                                      j * 16 + r * 4,
                                  4, r % 2 == 0, AccessKind::Data));
    }
    t->push_back(Record::checkpoint(CheckpointType::BodyEnd, 1));
  }
  t->push_back(Record::checkpoint(CheckpointType::LoopExit, 1));
  t->push_back(Record::checkpoint(CheckpointType::BodyEnd, 0));
}

std::vector<Record> make_trace(int rounds) {
  std::vector<Record> t;
  t.push_back(Record::checkpoint(CheckpointType::LoopEnter, 0));
  for (int i = 0; i < rounds; ++i) {
    append_round(&t, static_cast<uint32_t>(i));
  }
  t.push_back(Record::checkpoint(CheckpointType::LoopExit, 0));
  return t;
}

void BM_AnalysisThroughput(benchmark::State& state) {
  auto trace = make_trace(static_cast<int>(state.range(0)));
  size_t final_state_bytes = 0;
  for (auto _ : state) {
    Extractor ex;
    for (const Record& r : trace) ex.on_chunk(&r, 1);
    benchmark::DoNotOptimize(ex.tree().ref_node_count());
    final_state_bytes = ex.state_bytes();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
  state.counters["records"] = static_cast<double>(trace.size());
  state.counters["state_bytes"] = static_cast<double>(final_state_bytes);
  // Linear-time claim: items_per_second should be constant across trace
  // sizes. Constant-space claim: state_bytes flat across sizes.
}

}  // namespace

BENCHMARK(BM_AnalysisThroughput)->Arg(16)->Arg(64)->Arg(256)->Arg(1024)
    ->Arg(4096);

BENCHMARK_MAIN();
