// The design-space sweep driver: N programs × a multi-axis DSE grid.
//
// The paper's Phase II is a design-space exploration, and this module is
// where it runs — the only place: every sweep, batch, serve request and
// bench solves its points here, and `foraygen spm` is a one-point sweep
// (its --capacity, inherited --compare-cache and --replay are the grid's
// single values). A SweepSpec declares values along five axes —
//
//   capacity    SPM bytes the group-knapsack is solved for
//   energy      named EnergyModel presets with field overrides
//               (spm/energy.h: "default", "dram-heavy", ...)
//   cache       Banakar-style cache comparison geometry
//               (line bytes × associativity, or off)
//   algorithm   which selection is the point's headline: exact DP or
//               the greedy density heuristic
//   replay      transform-replay validation of the point's exact
//               selection on or off
//
// — and expands them into a deterministic row-major grid of SweepPoints.
// Per program the driver runs Phase I once, enumerates the buffer
// candidates once (they depend only on the model and the reuse filter,
// which no axis varies), and solves Phase II per *solve group* — the
// run of consecutive points sharing (capacity, energy). The solve reads
// neither the cache nor the algorithm axis and the replay check depends
// on the exact selection alone, so those axes only change what each
// point reports from its group's one solve. A P-program grid with C
// capacities and E energy models costs P pipeline runs, P candidate
// enumerations and P·C·E cheap DSE solves. Cache comparisons are
// simulated once per model and (capacity, geometry), whatever the
// energy axis holds: hits and misses do not depend on the energy model,
// so each point only prices the shared counts (CacheMemo, kept per run
// or per server). The cells a program needs that are not kept yet are
// simulated in one pass over its model's address stream. Solve groups
// whose exact selections emit the same transformed program share one
// replay simulation (ReplayMemo).
//
// Both jobs AND the solve groups within one job are fanned across the
// thread pool (core::solve_spm is pure over the immutable model, and a
// job fills its cache counts before it submits its groups), so a
// single-program sweep saturates every worker instead of serializing on
// one. Results land in pre-allocated slots indexed by PointKey, so every
// report is byte-for-byte identical whatever the thread count — the
// determinism contract locked by driver_test / sweep_test.
//
// One execution path: SweepDriver::run_ndjson renders the grid as NDJSON
// *while it runs* — one self-contained JSON object per line, job by job
// in deterministic order — and reduces it to Pareto frontiers (energy
// saved vs SPM bytes used; per program and aggregated across programs),
// retaining only rendered lines and reduction scalars, so a
// million-point grid can stream to disk. Resume, lint-first and serve
// all ride that path. A caller that wants the results in memory attaches
// a SweepReport collector to it (SweepDriver::run does exactly that and
// drops the text); the collector keeps each item, each job's Phase I
// result and the frontiers the stream computed.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "driver/model_cache.h"
#include "foray/pipeline.h"
#include "spm/replay.h"
#include "staticforay/cost.h"
#include "util/status.h"

namespace foray::driver {

/// One program to sweep.
struct SweepJob {
  std::string name;
  std::string source;
};

/// Runs `fn`, turning anything it throws into a classified status, so
/// one broken job or solve fails its own rows and never the sweep: a
/// util::StatusError keeps its status (e.g. an injected sink fault),
/// std::bad_alloc is resource_exhausted in `phase`, and anything else is
/// an internal error, a bug in this library.
template <class Fn>
util::Status guarded(const char* phase, Fn&& fn) {
  try {
    fn();
  } catch (const util::StatusError& e) {
    return e.status();
  } catch (const std::bad_alloc&) {
    return util::Status::failure(util::ErrorCode::kResourceExhausted, phase,
                                 0, "out of memory");
  } catch (const std::exception& e) {
    return util::Status::failure("internal", 0, e.what());
  }
  return {};
}

/// Which selection a grid point reports as its headline.
enum class Algorithm { kExactDp, kGreedy };
const char* algorithm_name(Algorithm a);

/// One value of the energy axis: a resolved model plus the spec string
/// that produced it ("default", "dram-heavy:dram_nj=5.2", ...).
struct EnergyAxisValue {
  std::string name;
  spm::EnergyModel model;
};

/// One value of the cache-comparison axis. `enabled == false` is the
/// explicit "off" value; `assocs` usually holds one associativity per
/// axis value ("32x2"), but the base-inherited value keeps the base
/// options' full list so the pre-sweep `--compare-cache` behavior
/// survives the batch adapter unchanged.
struct CacheAxisValue {
  bool enabled = false;
  uint32_t line_bytes = 32;
  std::vector<int> assocs;
  std::string label = "off";
};

/// The declared sweep: values along every axis. An empty axis means
/// "inherit the base PipelineOptions" and contributes a single point, so
/// a default-constructed spec reproduces the old single-capacity batch.
struct SweepSpec {
  std::vector<uint32_t> capacities;
  std::vector<EnergyAxisValue> energy_models;
  std::vector<CacheAxisValue> caches;
  std::vector<Algorithm> algorithms;
  std::vector<bool> replays;

  /// Parses one comma-separated axis list into the spec. Axis names:
  /// capacity (e.g. "1024,4096"), energy ("default,dram-heavy:dram_nj=5"),
  /// cache ("off,32x2,64x4"), algorithm ("dp,greedy"), replay ("off,on").
  util::Status parse_axis(std::string_view axis, std::string_view values);

  /// Parses a key=value spec file (one axis per line, '#' comments,
  /// blank lines ignored; keys are the parse_axis names). Unknown keys
  /// are errors that name the key and line.
  util::Status parse_file(std::string_view text);
};

/// Coordinates of one grid cell: an index per axis plus the job index.
/// This replaces the old batch report's caller-supplied stride
/// arithmetic with structured, bounds-checked lookup.
struct PointKey {
  size_t job = 0;
  size_t capacity = 0;
  size_t energy = 0;
  size_t cache = 0;
  size_t algorithm = 0;
  size_t replay = 0;
};

/// One fully-resolved grid cell configuration (job-independent).
struct SweepPoint {
  PointKey key;  ///< axis indices; `job` is meaningless here (always 0)
  uint32_t capacity_bytes = 0;
  std::string energy_name;
  spm::EnergyModel energy;
  CacheAxisValue cache;
  Algorithm algorithm = Algorithm::kExactDp;
  bool replay = false;

  /// The SpmPhaseOptions this point resolves: `base` with the axis
  /// values applied on top.
  core::SpmPhaseOptions spm_options(const core::SpmPhaseOptions& base) const;
};

/// The normalized grid: per-axis value lists (inherit markers resolved
/// against the base pipeline options) and their row-major expansion.
/// Axis order capacity > energy > cache > algorithm > replay, last axis
/// fastest — the deterministic item order within one job.
struct SweepGrid {
  std::vector<uint32_t> capacities;
  std::vector<EnergyAxisValue> energy_models;
  std::vector<CacheAxisValue> caches;
  std::vector<Algorithm> algorithms;
  std::vector<bool> replays;
  std::vector<SweepPoint> points;

  size_t points_per_job() const { return points.size(); }
  /// Flat index of a key within one job's block; FORAY_CHECKs every
  /// axis index against its axis size.
  size_t flat_index(const PointKey& key) const;

  static SweepGrid expand(const SweepSpec& spec,
                          const core::PipelineOptions& base);
};

/// The simulated sides (spm::ReplaySimulation) of the transform replays
/// run so far, so that each distinct transformed program is simulated
/// once: per sweep run (SweepDriver keeps one when SweepOptions::
/// replay_memo is null) and per server lifetime (serve_loop). The key is
/// a hash of the emitted source, the selection's buffer order
/// (ref_index, level), the engine and the rng seed: the rest of what can
/// change how a run ends is either fixed (the heap, stack and output
/// caps are sim::Memory constants) or checked against the kept run (the
/// budget, in replay()). The analytic side is derived and compared
/// afresh on every replay, so a kept simulation locks exactly what a
/// fresh one would. Only runs that ended ok are kept, at most
/// kMemoryEntries of them, least recently used evicted first. Thread-safe:
/// solve groups on different workers share one memo, and a replay that
/// finds its key's simulation still running on another worker waits for
/// it instead of running it again.
class ReplayMemo {
 public:
  struct Stats {
    uint64_t hits = 0;         ///< replays answered by a kept simulation
    uint64_t simulations = 0;  ///< replays that ran the program
    uint64_t evictions = 0;    ///< kept simulations dropped
  };

  /// spm::replay_selection(model, selection, opts), byte for byte. A kept
  /// simulation answers only when a fresh run would provably end the same
  /// way: its steps are within the step guard, its view records are
  /// under a record budget (checked per chunk, so this is conservative),
  /// the budget's cancel token has not tripped, and no fault site is
  /// armed. A wall-clock deadline is not consulted: a kept simulation
  /// answers within a deadline a fresh run might miss, as a model-cache
  /// hit does.
  spm::ReplayReport replay(const core::ForayModel& model,
                           const spm::Selection& selection,
                           const spm::ReplayOptions& opts);

  Stats stats() const;

 private:
  /// One key's simulation. A failed run is not kept: the next replay of
  /// the key simulates again.
  struct Slot {
    enum class State { kRunning, kKept, kFailed };
    State state = State::kRunning;
    spm::ReplaySimulation simulated;  ///< when kKept
  };

  /// The simulated side for `key`: kept, waited for, or run here.
  spm::ReplaySimulation simulation(uint64_t key,
                                   const core::ForayModel& model,
                                   const spm::Selection& selection,
                                   std::string_view source,
                                   const sim::RunOptions& run);

  mutable std::mutex mu_;
  std::condition_variable finished_;  ///< some running slot finished
  LruMap<uint64_t, std::shared_ptr<Slot>> slots_{kMemoryEntries};  ///< mu_
  Stats stats_;  ///< mu_; evictions read from slots_
};

/// The unpriced cache counts (core::CacheCellCounts) of the cells
/// simulated so far, so that each (model, cache geometry) is simulated
/// once: per sweep run (SweepDriver keeps one when SweepOptions::
/// cache_memo is null) and per server lifetime (serve_loop). Hits and
/// misses depend on the model and the geometry only, never on the energy
/// model, so an entry is keyed by the job's model key (ModelCache::key:
/// the source and every option that can change the model) plus one
/// cache's capacity, line size and associativity; a cell is answered
/// when every one of its caches is kept. Only cells that simulated ok are
/// kept, at most kMemoryEntries caches, least recently used evicted
/// first. Thread-safe; two jobs that miss the same cell at the same
/// moment both simulate it, to the same counts.
///
/// The entries live in one table allocated with the memo, not in an
/// LruMap: a server's kept counts then never sit among the transient
/// allocations of later requests. LruMap's per-entry nodes did, and
/// pinned the heap: over 40,000 serve_mix requests at --threads 1 the
/// server peaked at 16.0 MiB instead of 13.6.
class CacheMemo {
 public:
  struct Stats {
    uint64_t hits = 0;         ///< cells answered by kept counts
    uint64_t simulations = 0;  ///< cells handed to simulate_caches
    uint64_t evictions = 0;    ///< kept caches dropped
  };

  /// core::simulate_caches(model, cells), byte for byte: kept cells are
  /// answered from the memo, the others are simulated in one call.
  /// `model_key` must determine `model`.
  std::vector<core::CacheCellCounts> counts(
      std::string_view model_key, const core::ForayModel& model,
      const std::vector<core::CacheCell>& cells);

  Stats stats() const;

 private:
  /// One cache's counts; `used` is the tick of its last use, 0 when the
  /// slot is empty.
  struct Entry {
    uint64_t model = 0;  ///< fnv1a of the model key
    uint32_t capacity = 0;
    uint32_t line_bytes = 0;
    int assoc = 0;
    uint64_t used = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  /// The kept entry of one cache of `cell`, now the most recently used;
  /// null on a miss. mu_ held.
  Entry* find(uint64_t model, const core::CacheCell& cell, int assoc);

  mutable std::mutex mu_;
  std::vector<Entry> kept_ = std::vector<Entry>(kMemoryEntries);  ///< mu_
  uint64_t tick_ = 0;  ///< mu_
  Stats stats_;        ///< mu_
};

struct SweepOptions {
  int threads = 1;
  SweepSpec spec;
  /// Phase I configuration (engine, budgets, filter) and the base
  /// Phase II options that empty axes inherit (an undeclared replay axis
  /// is off).
  core::PipelineOptions pipeline;
  /// Optional content-addressed Phase I model cache (not owned; must
  /// outlive the driver). A hit skips profiling and extraction entirely —
  /// the job becomes pure Phase II — and a miss stores the freshly
  /// extracted model for the next run. Output is byte-identical either
  /// way; a corrupt or stale entry is reported on stderr and recomputed.
  ModelCache* model_cache = nullptr;
  /// Where replay-on points keep and reuse their simulations (not owned;
  /// must outlive the driver). Null: each run keeps its own, made only
  /// when some grid point asks for a replay.
  ReplayMemo* replay_memo = nullptr;
  /// Where cache-on points keep and reuse their cells' unpriced counts
  /// (not owned; must outlive the driver). Null: each run keeps its own,
  /// made only when some grid point compares a cache.
  CacheMemo* cache_memo = nullptr;
  /// Run the static checker (staticforay/checker.h) over each program
  /// before its Phase I. A program the checker *proves* will fault is
  /// failed up front with a single per-program diagnostic instead of N
  /// identical per-point failure rows: the NDJSON carries one `lint` row
  /// (plus the program's empty pareto line) in place of the job's point
  /// block, and a collector marks every cell of the job with the same
  /// kInvalidInput / phase "lint" status. Programs the
  /// checker cannot prove faulty — including ones that fail the frontend,
  /// which Phase I classifies on its own — run normally, byte-identical
  /// to lint_first = false.
  bool lint_first = false;
};

/// One (program, grid point) cell.
struct SweepItem {
  std::string program;
  PointKey key;           ///< including the job index
  SweepPoint point;       ///< the resolved configuration
  util::Status status;
  size_t model_refs = 0;
  /// Phase II result (both selections, energy, cache comparisons).
  core::SpmReport spm;
  /// Energy evaluation of the *headline* selection (== spm.with_spm for
  /// the exact DP, recomputed for greedy points).
  spm::EnergyReport energy;
  bool replay_ran = false;
  spm::ReplayReport replay;

  /// The selection the point's algorithm axis names.
  const spm::Selection& selection() const {
    return point.algorithm == Algorithm::kGreedy ? spm.greedy : spm.exact;
  }
};

/// One Pareto-frontier point: the (SPM bytes used, energy saved)
/// trade-off of a grid cell, with the key to look the full item up.
struct ParetoPoint {
  PointKey key;
  uint64_t bytes_used = 0;
  double saved_nj = 0.0;
};

/// What a sweep collects when attached to SweepDriver::run_ndjson: every
/// item, each job's Phase I result and the frontiers the stream wrote.
struct SweepReport {
  SweepGrid grid;
  std::vector<std::string> programs;  ///< job order
  /// Job-major, grid-minor (grid.points order) — the deterministic order.
  std::vector<SweepItem> items;
  /// Each job's Phase I result, in job order: everything run_pipeline
  /// produced, only the model (model_built) on a model-cache hit, or the
  /// lint status of a job the lint-first checker refused.
  std::vector<core::PipelineResult> results;
  /// Per-program Pareto frontiers over each job's successful points:
  /// maximal energy saved for minimal SPM bytes used, sorted by bytes
  /// ascending; dominated and duplicate trade-offs dropped.
  std::vector<std::vector<ParetoPoint>> fronts;
  /// Aggregate frontier: each grid point's bytes/savings summed across
  /// programs (points where any program failed are skipped), then the
  /// same non-domination filter. Key::job is meaningless here.
  std::vector<ParetoPoint> aggregate;

  /// Bounds-checked structured lookup (FORAY_CHECK on any bad index).
  const SweepItem& at(const PointKey& key) const;

  /// Bounds-checked fronts[job]: the job's `pareto` line.
  const std::vector<ParetoPoint>& pareto(size_t job) const;
  /// The aggregate `pareto` line.
  const std::vector<ParetoPoint>& pareto_aggregate() const {
    return aggregate;
  }

  /// Summary table, one row per item.
  std::string table() const;
};

/// What `--resume` recovered from a previous run's NDJSON journal: the
/// verbatim header line (revalidated against the new run's grid) and,
/// per (job, flat point), the verbatim point line plus the two reduction
/// scalars the Pareto/aggregate passes need. Cached lines are re-emitted
/// byte-for-byte; only missing or failed points run again.
struct SweepCheckpoint {
  struct CachedPoint {
    bool have = false;
    std::string line;       ///< verbatim journal line
    uint64_t bytes = 0;     ///< bytes_used (reduction input)
    double saved = 0.0;     ///< saved_nj (reduction input)
  };

  std::string header;                          ///< verbatim journal header
  std::vector<std::string> programs;           ///< by job index
  std::vector<std::vector<CachedPoint>> points;  ///< [job][flat index]

  bool point_cached(size_t job, size_t flat) const {
    return job < points.size() && flat < points[job].size() &&
           points[job][flat].have;
  }
  /// True when every flat point in [begin, end) of `job` is cached.
  bool range_cached(size_t job, size_t begin, size_t end) const {
    for (size_t i = begin; i < end; ++i) {
      if (!point_cached(job, i)) return false;
    }
    return true;
  }
};

/// What the static checker (staticforay/checker.h) concludes about one
/// source, in the form both pre-Phase-I gates read: SweepOptions::
/// lint_first refuses a proven fault, and serve's --static-admission
/// compares the minimum bounds with each request's budget. It depends on
/// the source text alone, so a server memoizes it per source.
struct StaticVerdict {
  /// False: the frontend rejected the source. Both gates let it through,
  /// and Phase I classifies it itself.
  bool frontend_ok = false;
  staticforay::StaticCost cost;
  /// The first must-fault diagnostic as "kind at line N: message"; empty
  /// when the checker proves no fault.
  std::string must_fault;
};

/// Lints `source` and summarizes the report.
StaticVerdict static_verdict(std::string_view source);

/// The cache cells, one per (capacity index, cache axis index) row-major,
/// whose counts job `job` must simulate: those of a cache-enabled grid
/// point `resume` does not already hold.
std::vector<bool> cache_cells_needed(const SweepGrid& grid,
                                     const SweepCheckpoint& resume,
                                     size_t job);

class SweepDriver {
 public:
  explicit SweepDriver(SweepOptions opts = {});

  const SweepGrid& grid() const { return grid_; }

  /// Runs every job across every grid point — the one execution path.
  /// Each point is rendered to its NDJSON line and reduced (Pareto
  /// objective, aggregate sums) the moment it resolves, and finished
  /// jobs' text is written in deterministic job order, byte-identical
  /// whatever the thread count — a million-point grid never holds more
  /// than one SpmReport per worker, plus the rendered text of
  /// out-of-order finished jobs. Blocking; one driver, one call at a
  /// time.
  ///
  /// Returns the first failure: a failed point's status, a validation
  /// failure for a replay-axis point whose simulated counters mismatched
  /// (the whole grid is still swept and written), or kIoError the moment
  /// the output stream itself fails (the sweep is then abandoned; the
  /// partial journal — whole job blocks in order — is a valid --resume
  /// checkpoint).
  ///
  /// With `resume`, points cached in the checkpoint are re-emitted
  /// verbatim instead of re-run; a checkpoint whose header does not
  /// match this grid and job list fails as kInvalidInput up front.
  ///
  /// With `collect`, the run also fills that report (items, results,
  /// frontiers) without changing a byte of `out`. Resume and collect are
  /// exclusive — a cached point has no item (FORAY_CHECK).
  util::Status run_ndjson(const std::vector<SweepJob>& jobs,
                          std::ostream& out,
                          const SweepCheckpoint* resume = nullptr,
                          SweepReport* collect = nullptr) const;

  /// run_ndjson with the text dropped and a collector attached: the
  /// report alone. Per-point failures are on the items.
  SweepReport run(const std::vector<SweepJob>& jobs) const;

  /// Parses a previous run_ndjson journal (possibly truncated mid-line:
  /// a partial tail line is ignored) into a checkpoint. Row validation
  /// happens here: point-key indices and bytes_used must be whole
  /// numbers in range (bytes_used within the point's capacity) and the
  /// row's program must be the header's for its job, else kInvalidInput
  /// with the line number. Job-list validation happens in run_ndjson.
  /// Failed point rows (ok:false) and rows whose replay check mismatched
  /// are deliberately NOT cached, so resuming retries exactly those.
  util::Status parse_resume(std::string_view journal,
                            SweepCheckpoint* out) const;

  /// The six benchsuite kernels as sweep jobs, in the paper's order.
  static std::vector<SweepJob> benchsuite_jobs();

 private:
  SweepOptions opts_;
  SweepGrid grid_;
};

}  // namespace foray::driver
