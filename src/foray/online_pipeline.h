// Pipeline-overlapped online profiling: VM producer + Extractor consumer.
//
// The fused online mode (sim::run_program_with<Extractor>) interleaves
// simulation and analysis on one thread, so its throughput is
// 1/(t_sim + t_extract). This module splits the two across threads: the
// calling thread runs the simulator, streaming records through a bounded
// ChunkRing (trace/chunk_ring.h), while one consumer thread runs the
// Extractor — throughput becomes 1/max(t_sim, t_extract), the slower
// side hiding the faster side. The consumer sees the records in trace
// order, so the result is bit-identical to the fused pass (locked by
// tests/pipeline_equivalence_test.cpp).
#pragma once

#include "foray/extractor.h"
#include "minic/ast.h"
#include "sim/interpreter.h"

namespace foray::core {

/// Runs `prog` on the calling thread with `*out` extracting on a consumer
/// thread fed through a chunk ring. The returned RunResult is the
/// simulator's.
sim::RunResult run_profile_pipelined(const minic::Program& prog,
                                     const sim::RunOptions& run_opts,
                                     Extractor* out);

}  // namespace foray::core
