// Transform-replay validation (the Phase II exit check).
//
// Phase II ends with transformed FORAY model code (spm/transform.h) that
// the designer back-annotates into the legacy program — so it must be
// *correct*, not just plausible-looking. This module closes the loop:
// it emits the transformed program for a buffer selection, runs it
// through the full front end and the simulator with a classifying sink
// (sim/classify_sink.h), and locks the SPM / main-memory / transfer
// traffic the program *actually generates* against the analytic counters
// the design-space exploration was solved with (candidate_at,
// evaluate_selection). Any fill, write-back, sliding-window or rebasing
// slip — in the emitter or in the analytic model — becomes a concrete
// counter mismatch.
//
// Geometry note: the emitted program runs each nest of
// core::group_by_nest exactly once with its recorded (maximum) trip
// counts, every reference of the nest in its body, i.e. it is
// rectangular by construction, while ModelReference::exec_count is the
// *profiled* execution count (smaller for data-dependent trips, larger
// for partial references whose outer context re-runs the nest). The
// replay therefore locks the simulation against the analytic counters
// evaluated on the materialized geometry (exec_count := trip product) —
// bit-exact, always. When the model is rectangular (exec counts already
// equal the trip products, true for most kernels), those are verbatim
// the evaluate_selection counters the DSE and the cache comparison used,
// and ReplayReport::rectangular says so. The run delivers only what the
// lock reads (sim::RunOptions::replay_view): each loop instance's
// LoopEnter and LoopExit, for segmenting transfer events, and the Data
// accesses, for classifying them. So the materialized program's view is
// two records per loop instance plus one per Data access, and a record
// budget in ReplayOptions::run counts exactly those.
//
// A replay has two halves. simulate_replay runs the emitted program and
// returns the simulated side (ReplaySimulation): the classified counters,
// and the steps and records a budget would have counted. It reads only
// the emitted source, the selection's buffer order and the run options,
// so a caller may keep it and reuse it for the same program
// (driver::ReplayMemo does). lock_replay derives the analytic side afresh
// and compares the two into the ReplayReport. replay_selection is the
// composition: emit, simulate, lock.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "foray/model.h"
#include "minic/ast.h"
#include "sim/classify_sink.h"
#include "sim/interpreter.h"
#include "spm/dse.h"
#include "spm/energy.h"
#include "spm/transform.h"

namespace foray::spm {

struct ReplayOptions {
  /// Simulator knobs for executing the transformed program; engine
  /// selection is honored, and the run always uses
  /// RunOptions::replay_view: the classifying sink segments transfer
  /// events with the LoopEnter/LoopExit checkpoints and classifies only
  /// Data accesses.
  sim::RunOptions run;
  /// Energy parameters for the analytic evaluation (the capacity and
  /// the energy model).
  DseOptions dse;
};

/// One selected buffer's simulated-vs-analytic ledger.
struct ReplayBuffer {
  size_t ref_index = 0;
  int level = 0;
  bool sliding = false;
  // Simulated (classified) traffic.
  uint64_t sim_spm_accesses = 0;   ///< program accesses served by the SPM
  uint64_t sim_main_accesses = 0;  ///< program accesses that hit main (bug!)
  uint64_t sim_fill_events = 0;
  uint64_t sim_fill_bytes = 0;
  uint64_t sim_writeback_events = 0;
  uint64_t sim_writeback_bytes = 0;
  uint64_t sim_transfer_words = 0;
  // Analytic prediction on the materialized geometry.
  uint64_t ana_spm_accesses = 0;
  uint64_t ana_transfer_words = 0;
};

struct ReplayReport {
  /// Execution outcome: emitting, compiling or running the transformed
  /// program failed. Counter mismatches do NOT fail the status — they
  /// are listed in `mismatches`.
  util::Status status;
  bool ran = false;

  std::vector<ReplayBuffer> buffers;

  // Whole-program simulated counters.
  uint64_t sim_spm_accesses = 0;
  uint64_t sim_main_accesses = 0;
  uint64_t sim_transfer_words = 0;
  /// Data accesses that fell outside every known array (must be 0).
  uint64_t unclassified_accesses = 0;

  // Analytic counters on the materialized (rectangular) geometry — what
  // the simulation is locked against.
  uint64_t ana_spm_accesses = 0;
  uint64_t ana_main_accesses = 0;
  uint64_t ana_transfer_words = 0;

  // evaluate_selection's counters on the profiled model, verbatim.
  uint64_t model_spm_accesses = 0;
  uint64_t model_main_accesses = 0;
  uint64_t model_transfer_words = 0;
  /// True when the profiled model is rectangular, i.e. the analytic
  /// counters above two groups coincide and the simulation is locked
  /// against evaluate_selection's numbers verbatim.
  bool rectangular = false;

  /// One line per divergence between simulated and analytic counters.
  std::vector<std::string> mismatches;

  /// Executed cleanly, every access classified, every counter equal.
  bool matches() const {
    return status.ok() && ran && unclassified_accesses == 0 &&
           mismatches.empty();
  }
};

/// The simulated side of a replay: what the transformed program's run
/// delivered to the classifying sink.
struct ReplaySimulation {
  /// Compiling or running the transformed program failed; nothing below
  /// is meaningful then.
  util::Status status;
  /// Per selected buffer, in Selection::chosen order.
  std::vector<sim::ClassifyingSink::BufferCounters> buffers;
  uint64_t spm_accesses = 0;
  uint64_t main_accesses = 0;
  uint64_t transfer_words = 0;
  uint64_t unclassified_accesses = 0;
  /// Evaluation steps the run took and records of the replay view it
  /// delivered: what the step guard and a record budget counted.
  uint64_t steps = 0;
  uint64_t view_records = 0;
};

/// The classifying sink's address map for `prog`, the transformed
/// program of `selection`: every global, each selected reference's main
/// array paired with its SPM buffer under the reference's position in
/// selection.chosen.
std::vector<sim::ClassifyingSink::Region> replay_regions(
    const core::ForayModel& model, const Selection& selection,
    const minic::Program& prog);

/// The simulated half: parses and annotates `source`, the transformed
/// program emit_transformed(model, selection) returns, and runs it under
/// `run` with RunOptions::replay_view into a classifying sink.
ReplaySimulation simulate_replay(const core::ForayModel& model,
                                 const Selection& selection,
                                 std::string_view source,
                                 const sim::RunOptions& run);

/// The lock: derives the analytic counters of `selection` on the
/// materialized geometry and on the profiled model, and compares the
/// simulated side with them.
ReplayReport lock_replay(const core::ForayModel& model,
                         const Selection& selection, const DseOptions& dse,
                         const ReplaySimulation& simulated);

/// Emits the transformed program for `selection`, executes it, and
/// returns the full simulated-vs-analytic ledger: simulate_replay, then
/// lock_replay.
ReplayReport replay_selection(const core::ForayModel& model,
                              const Selection& selection,
                              const ReplayOptions& opts = {});

/// Deterministic human-readable rendering (CLI `spm --replay`).
std::string describe_replay_report(const ReplayReport& report,
                                   const core::ForayModel& model);

}  // namespace foray::spm
