// E8 — §4 hash-table claim: "the complexity of Algorithms 2 and 3 is
// constant on average if we use hash tables for the searches".
//
// Compares the hash-indexed extractor with the linear-scan ablation on
// traces whose loop bodies contain a growing number of distinct
// references: hash lookup stays flat per record, linear scan degrades
// with the reference count.
#include <benchmark/benchmark.h>

#include <vector>

#include "foray/extractor.h"

namespace {

using foray::core::Extractor;
using foray::core::ExtractorOptions;
using foray::trace::AccessKind;
using foray::trace::CheckpointType;
using foray::trace::Record;

std::vector<Record> make_trace(int refs_per_body, int rounds) {
  std::vector<Record> t;
  t.push_back(Record::checkpoint(CheckpointType::LoopEnter, 0));
  for (int i = 0; i < rounds; ++i) {
    t.push_back(Record::checkpoint(CheckpointType::BodyBegin, 0));
    for (int r = 0; r < refs_per_body; ++r) {
      t.push_back(Record::access(
          0x400000 + 4 * static_cast<uint32_t>(r),
          0x10000000 + static_cast<uint32_t>(i * 4 + r * 4096), 4, false,
          AccessKind::Data));
    }
    t.push_back(Record::checkpoint(CheckpointType::BodyEnd, 0));
  }
  t.push_back(Record::checkpoint(CheckpointType::LoopExit, 0));
  return t;
}

template <bool kHashIndex>
void BM_Lookup(benchmark::State& state) {
  auto trace = make_trace(static_cast<int>(state.range(0)), 256);
  for (auto _ : state) {
    ExtractorOptions opts;
    opts.hash_index = kHashIndex;
    Extractor ex(opts);
    for (const Record& r : trace) ex.on_chunk(&r, 1);
    benchmark::DoNotOptimize(ex.tree().ref_node_count());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(trace.size()));
}

void BM_HashIndex(benchmark::State& state) { BM_Lookup<true>(state); }
void BM_LinearScan(benchmark::State& state) { BM_Lookup<false>(state); }

}  // namespace

BENCHMARK(BM_HashIndex)->Arg(4)->Arg(32)->Arg(256)->Arg(1024);
BENCHMARK(BM_LinearScan)->Arg(4)->Arg(32)->Arg(256)->Arg(1024);

BENCHMARK_MAIN();
