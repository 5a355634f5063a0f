// The FORAY-GEN pipeline as explicit, individually-invokable phases.
//
// Phase I of the paper's design flow (Algorithm 1):
//   Frontend    parse + sema
//   Instrument  annotate loop sites (Step 1)
//   Profile     run the simulator with trace sinks attached (Steps 2+3)
//   Extract     build the model, apply the Step 4 filter, emit sources
// Each phase is a free function that advances a PipelineResult and records
// its util::Status both in the return value and in `result.status`; a
// failed phase leaves later artifacts untouched. run_pipeline() composes
// them; callers that need finer control (the CLI's annotate/trace
// commands, perfbench's per-layer spans) invoke phases directly.
//
// Phase II — the SPM design flow the model exists to feed — runs in one
// place, driver/sweep.h: every sweep, serve request and `foraygen spm`
// (a one-point sweep) solves its points there. This header keeps the pure
// building blocks it calls: solve_spm (reuse analysis -> buffer candidates
// -> group-knapsack / greedy selection -> energy evaluation, as an
// SpmReport) and the cache comparison (simulate_caches / price_caches).
//
// Profile is the paper's online mode: the extractor is the trace sink
// and no trace is materialized. The two-pass design it replaces (store
// the trace, then replay it into the extractor) lives on only as the
// tests' oracle (tests/transport_harness.h) and in the E9 ablation
// (bench/ablation_online.cpp); both produce identical models.
//
// The online pass also skips the scalar traffic Step 4 would drop: the
// engines elide Scalar accesses and Call/Ret records under a guard that
// proves none of them could be kept (sim::RunOptions::elide_below_bases),
// and when the guard cannot, Profile reruns the program with full
// tracing. The model is the same either way; only the census — the loop
// tree's every reference, scalars included, and the ModelBuildStats
// counted over it — needs the full trace, so callers that report on it
// set PipelineOptions::census.
#pragma once

#include <memory>
#include <string>
#include <string_view>

#include "foray/emitter.h"
#include "foray/extractor.h"
#include "foray/filter.h"
#include "foray/model.h"
#include "foray/stats.h"
#include "instrument/annotator.h"
#include "minic/ast.h"
#include "minic/sema.h"
#include "sim/interpreter.h"
#include "spm/dse.h"
#include "spm/reuse.h"
#include "spm/spm_sim.h"
#include "util/status.h"

namespace foray::core {

struct SpmPhaseOptions {
  spm::ReuseOptions reuse;
  spm::DseOptions dse;  ///< capacity, energy model
  /// Also replay the model's address stream through set-associative LRU
  /// caches of the same capacity (the Banakar-style comparison the SPM
  /// argument rests on): the sweep's inherited cache axis value, priced
  /// into SpmReport::caches by simulate_caches / price_caches.
  bool compare_cache = false;
  uint32_t cache_line_bytes = 32;
  std::vector<int> cache_assocs = {2, 4};
};

struct PipelineOptions {
  /// Simulator knobs, including RunOptions::engine: every product
  /// surface profiles on the bytecode VM; tests and benches set
  /// Engine::Ast to run the tree-walking oracle. Both engines produce
  /// bit-identical traces, so every downstream phase — extraction,
  /// filter, SPM DSE — is engine-agnostic.
  sim::RunOptions run;
  ExtractorOptions extractor;
  FilterOptions filter;  ///< the Step 4 thresholds, Nexec and Nloc
  /// Fill the loop tree with every reference, scalars included, for the
  /// reports that read it (trace statistics, Table III, ModelBuildStats).
  /// false (default) lets the online pass elide scalar traffic; the
  /// model is identical either way.
  bool census = false;
  /// Phase II options, the base a sweep's undeclared axes inherit.
  SpmPhaseOptions spm;
};

/// Phase II output: everything the DSE decided for one SPM capacity.
struct SpmReport {
  uint32_t capacity = 0;  ///< SPM bytes the selection was solved for
  size_t candidate_count = 0;  ///< buffer candidates the DSE chose from
  spm::Selection exact;        ///< group-knapsack DP selection
  spm::Selection greedy;       ///< density heuristic (ablation baseline)
  spm::EnergyReport baseline;  ///< every access served by main memory
  spm::EnergyReport with_spm;  ///< under the exact selection

  /// One cache of the same capacity per requested associativity
  /// (priced by price_caches); empty when the comparison was not
  /// requested.
  struct CacheComparison {
    int assoc = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    double energy_nj = 0.0;
  };
  std::vector<CacheComparison> caches;
};

struct PipelineResult {
  util::Status status;  ///< front-end diagnostics or simulator fault

  // Frontend.
  std::unique_ptr<minic::Program> program;
  minic::SemaInfo sema;
  // Instrument.
  instrument::LoopSiteTable loop_sites;
  // Profile.
  sim::RunResult run;
  std::unique_ptr<Extractor> extractor;  ///< retains the loop tree
  /// Trace volume seen by the analyzer (records); without the census,
  /// the elided records are not in it.
  uint64_t trace_records = 0;
  // Extract.
  bool model_built = false;  ///< extract_phase completed
  ForayModel model;
  /// What the Step 4 filter did to each reference of the loop tree;
  /// covers every reference only under PipelineOptions::census.
  ModelBuildStats build_stats;
  std::string foray_source;       ///< compilable MiniC FORAY model
  std::string foray_paper_style;  ///< Figure 2-style display form

  bool ok() const { return status.ok(); }
  std::string error() const { return status.message(); }
};

// -- the phases --------------------------------------------------------------

/// Parse + sema. Populates program/sema.
util::Status frontend_phase(std::string_view source, PipelineResult* result);

/// Step 1 of Algorithm 1: annotate loop sites. Requires frontend_phase.
util::Status instrument_phase(PipelineResult* result);

/// Steps 2+3: profile on the simulator with the analyzer as its sink; a
/// successful run leaves a filled extractor. Without the census, the run
/// elides scalar traffic, and reruns with full tracing when the elision
/// guard stops it; both attempts share one deadline and cancel token.
/// Requires instrument_phase.
util::Status profile_phase(const PipelineOptions& opts,
                           PipelineResult* result);

/// Step 4 + emission: build + filter the model, emit both renderings.
/// Requires profile_phase.
util::Status extract_phase(const PipelineOptions& opts,
                           PipelineResult* result);

/// Phase II for one configuration: reuse analysis, buffer selection
/// (exact + greedy) and energy evaluation over an immutable model. Pure,
/// so safe to call concurrently on the same model (the sweep driver fans
/// solve groups across a pool this way). The report's caches stay empty:
/// the comparison is simulate_caches / price_caches, whatever
/// opts.compare_cache says. `candidates` optionally supplies a
/// pre-enumerated candidate list (they depend only on the model and
/// opts.reuse, never on capacity/energy/cache, so sweep callers enumerate
/// once and reuse); nullptr enumerates from scratch.
SpmReport solve_spm(const ForayModel& model, const SpmPhaseOptions& opts,
                    const std::vector<spm::BufferCandidate>* candidates =
                        nullptr);

/// One cell of the cache comparison: caches of `capacity` bytes with
/// `line_bytes` lines, one per `assocs` entry (a sweep's capacity and
/// cache axis value).
struct CacheCell {
  uint32_t capacity = 0;
  uint32_t line_bytes = 32;
  std::vector<int> assocs;
};

/// A cell's unpriced counts (energy_nj 0), one per associativity, or the
/// kInvalidInput / phase "spm-solve" failure naming the first geometry
/// that cannot be simulated (spm::cache_geometry_error).
struct CacheCellCounts {
  util::Status status;
  std::vector<SpmReport::CacheComparison> caches;
};

/// The cache comparison of SpmPhaseOptions::compare_cache (or a sweep's
/// cache axis), in its two halves. simulate_caches replays the model's
/// address stream through every cache of every cell in one pass — more
/// when the cells together hold over spm::kMaxCacheLines lines, so the
/// tables stay bounded — and returns one result per cell, in order; a
/// bad cell is simulated not at all and fails alone. The counts depend
/// on the model and the geometry only, so a sweep run or a server
/// simulates each (model, capacity, geometry) once through its
/// driver::CacheMemo, which calls this for the cells it does not keep,
/// and prices the counts per energy model with price_caches, which fills
/// energy_nj.
///
/// Within a pass the caches of one line size form a chain ordered from
/// the fewest sets to the most, and each address walks the chain only
/// until a cache holds its block as the set's MRU way. By LRU inclusion
/// under set refinement (spm/cache_sim.h), that cache and every cache
/// with more sets of the same line size hit without changing their
/// tables, so they are credited in bulk and the counts stay exactly
/// those of simulating each cache alone. Chains never cross line sizes:
/// a coarser line's set does not contain a finer line's blocks.
///
/// The stream is walked folded (spm::for_each_address_folded): an
/// iteration of a loop level that moves no reference of its nest is
/// walked twice, and the second walk's hits, misses and chain stops are
/// booked once more for each of the level's other iterations. By the
/// LRU fixed point (spm/cache_sim.h) this too is exact. The fold depends
/// on the model only, never on the line size, so every chain of a pass
/// shares it.
std::vector<CacheCellCounts> simulate_caches(
    const ForayModel& model, const std::vector<CacheCell>& cells);
void price_caches(const SpmPhaseOptions& opts,
                  std::vector<SpmReport::CacheComparison>* caches);

/// All of Phase I.
PipelineResult run_pipeline(std::string_view source,
                            const PipelineOptions& opts = {});

/// Deterministic human-readable rendering of an SpmReport (chosen buffers
/// with array names, bytes used, predicted nJ saved, greedy comparison).
/// The CLI `spm` command prints it.
std::string describe_spm_report(const SpmReport& report,
                                const ForayModel& model);

}  // namespace foray::core
