// The MiniC instruction-set simulator (the paper's modified SimpleScalar).
//
// Executes a checked, loop-annotated MiniC program and pushes a trace
// record stream into a trace::Sink:
//   - checkpoint records around every annotated loop (Step 1/2 of
//     Algorithm 1),
//   - one Access record per simulated memory operation, carrying the
//     synthetic instruction address derived from the AST node id,
//   - Call/Ret records at user-function boundaries.
//
// All program variables live in simulated memory (globals / stack / heap),
// so scalar and stack traffic shows up in traces exactly like the paper's
// "references not present explicitly in the source" that Step 4 later
// filters out. Intrinsics model system libraries; their traffic is tagged
// AccessKind::System.
//
// Scalar traffic is most of every trace, and only Step 4 reads it — to
// drop it. The fused Phase I pass therefore asks the engines to elide it
// (RunOptions::elide_below_bases): Scalar accesses and Call/Ret records
// are counted but never emitted, while a guard proves that no elided
// site could have reached the Nloc locations Step 4 keeps, and stops the
// run as soon as it cannot. BodyEnd checkpoints, which change no loop
// iterator, are elided with them. The transform replay's run sees
// checkpoints and Data accesses only (RunOptions::replay_view). Traces
// and the census (foray/pipeline.h) always carry every record.
#pragma once

#include <cstdint>
#include <string>

#include "minic/ast.h"
#include "sim/budget.h"
#include "sim/memory.h"
#include "trace/sink.h"
#include "util/status.h"

namespace foray::sim {

/// Which execution engine runs the program. Both produce bit-identical
/// traces, outputs, and memory images (tests/engine_equivalence_test.cpp
/// enforces it); they differ only in speed.
enum class Engine : uint8_t {
  Ast,       ///< tree-walking reference interpreter (the oracle)
  Bytecode,  ///< flat bytecode + dispatch-loop VM (the fast default)
};

/// Session-wide default engine: Engine::Bytecode, overridable with the
/// FORAY_ENGINE environment variable ("ast" or "bytecode") so the
/// whole test suite can be re-run against any engine without code
/// changes (the CI matrix does exactly that).
Engine default_engine();

/// Upper bound on the frame bases the elision guard remembers per
/// function, whatever Nloc is: the guard's memory does not grow with it.
inline constexpr uint32_t kMaxElisionBases = 16;

struct RunOptions {
  Engine engine = default_engine();
  /// Execution bounds: step guard, record budget, wall-clock deadline
  /// and cancellation token (sim/budget.h). The step guard is checked
  /// per instruction; the rest at trace-chunk boundaries, so a run may
  /// overshoot those budgets by at most one chunk.
  Budget budget;
  /// Records buffered before a bulk on_chunk() flush to the sink. 1
  /// degenerates to record-at-a-time delivery (the throughput-bench
  /// baseline); values above a few thousand stop paying for themselves.
  size_t chunk_records = trace::kDefaultChunkRecords;
  /// The transform replay's view (spm/replay.h): loop checkpoints and
  /// Data accesses only. Scalar and System accesses and Call/Ret records
  /// are dropped before the sink and do not count against the record
  /// budget; the accesses still count in RunResult::accesses. false (the
  /// default) traces every record.
  bool replay_view = false;
  /// Scalar elision, for the fused Phase I pass. When nonzero, Scalar
  /// accesses, Call/Ret records and BodyEnd checkpoints never reach the
  /// sink, but they still count in RunResult::accesses (the accesses)
  /// and against the record budget, which is checked at the same points
  /// as in a full trace. BodyEnd changes no iterator, so the extractor
  /// builds the same tree without it (foray/extractor.h). A Scalar access
  /// hits a global (one address) or a slot at a fixed place in its
  /// activation's frame, so a Scalar site touches at most as many
  /// addresses as its function has distinct frame bases (the stack
  /// pointer at call entry). The guard records those bases and stops the
  /// run with RunResult::elision_stopped once some function reaches
  /// min(elide_below_bases, kMaxElisionBases) of them: an elided site
  /// could then reach that many locations. A program whose locals are
  /// not at fixed frame places (VarResolution::frame_fixed) is traced in
  /// full. 0 = off.
  uint32_t elide_below_bases = 0;
  uint64_t rng_seed = 1;      ///< seed of the simulated rand()
  uint32_t heap_capacity = 1u << 24;
  uint32_t stack_capacity = 1u << 22;
  size_t max_output_bytes = 1u << 24;
  /// Hash the final simulated memory image into RunResult::memory_digest
  /// (used by the engine-equivalence harness; off by default because the
  /// digest walks every mapped byte).
  bool digest_memory = false;
};

struct RunResult {
  util::Status status;    ///< simulator fault diagnostics when not ok()
  int exit_code = 0;
  std::string output;     ///< accumulated printf/puts/putchar text
  uint64_t steps = 0;     ///< evaluation steps executed
  uint64_t accesses = 0;  ///< memory accesses performed (traced or not)
  /// FNV-1a hash of the final memory image (RunOptions::digest_memory).
  uint64_t memory_digest = 0;
  /// The elision guard stopped the run (RunOptions::elide_below_bases)
  /// before it finished; nothing else in the result is meaningful.
  bool elision_stopped = false;

  bool ok() const { return status.ok(); }
  std::string error() const { return status.message(); }
  int error_line() const { return status.first_line(); }
};

/// Executes `prog` (which must have passed sema) from main() on the
/// engine RunOptions::engine names, streaming trace records into `sink`
/// (null: a trace::NullSink). The program AST is not modified.
///
/// Delivery is chunked (RunOptions::chunk_records): one virtual
/// trace::Sink::on_chunk() call per chunk, none per record. The online
/// analyzer (core::Extractor) is attached here like any other sink.
RunResult run_program(const minic::Program& prog, trace::Sink* sink,
                      const RunOptions& opts = {});

}  // namespace foray::sim
