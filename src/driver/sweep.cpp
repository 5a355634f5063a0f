#include "driver/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <new>
#include <ostream>
#include <streambuf>
#include <utility>

#include "benchsuite/suite.h"
#include "driver/model_cache.h"
#include "spm/replay.h"
#include "staticforay/checker.h"
#include "spm/reuse.h"
#include "spm/spm_sim.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/json.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace foray::driver {

namespace {

util::Status axis_error(std::string message) {
  // A bad axis spec is the user's input, not a library bug.
  return util::Status::failure(util::ErrorCode::kInvalidInput, "sweep-spec",
                               0, std::move(message));
}

bool parse_u32(std::string_view s, uint32_t* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const std::string str(s);
  const unsigned long long v = std::strtoull(str.c_str(), &end, 10);
  if (end != str.c_str() + str.size() || v == 0 || v > UINT32_MAX) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

bool is_pow2(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// True when `f` is a JSON number holding a whole value in [0, limit).
bool whole_below(const util::JsonValue* f, double limit) {
  return f != nullptr && f->is_number() && f->num >= 0 && f->num < limit &&
         f->num == std::floor(f->num);
}

}  // namespace

const char* algorithm_name(Algorithm a) {
  return a == Algorithm::kGreedy ? "greedy" : "dp";
}

util::Status SweepSpec::parse_axis(std::string_view axis,
                                   std::string_view values) {
  const std::string axis_str{axis};
  if (axis == "capacity") {
    capacities.clear();
    for (auto tok : util::split(values, ',')) {
      tok = util::trim(tok);
      uint32_t cap = 0;
      if (!parse_u32(tok, &cap)) {
        return axis_error("bad capacity '" + std::string(tok) +
                          "' (want a positive byte count)");
      }
      capacities.push_back(cap);
    }
    if (capacities.empty()) return axis_error("empty capacity axis");
    return {};
  }
  if (axis == "energy") {
    energy_models.clear();
    for (auto tok : util::split(values, ',')) {
      tok = util::trim(tok);
      EnergyAxisValue v;
      v.name = std::string(tok);
      std::string err;
      if (!spm::parse_energy_model(tok, &v.model, &err)) {
        return axis_error(err);
      }
      energy_models.push_back(std::move(v));
    }
    if (energy_models.empty()) return axis_error("empty energy axis");
    return {};
  }
  if (axis == "cache") {
    caches.clear();
    for (auto tok : util::split(values, ',')) {
      tok = util::trim(tok);
      CacheAxisValue v;
      if (tok == "off") {
        caches.push_back(std::move(v));  // defaults are the off value
        continue;
      }
      const auto parts = util::split(tok, 'x');
      uint32_t line = 0;
      uint32_t assoc = 0;
      if (parts.size() != 2 || !parse_u32(parts[0], &line) ||
          !parse_u32(parts[1], &assoc)) {
        return axis_error("bad cache geometry '" + std::string(tok) +
                          "' (want off or LINExASSOC, e.g. 32x2)");
      }
      if (!is_pow2(line)) {
        return axis_error("cache line bytes in '" + std::string(tok) +
                          "' must be a power of two");
      }
      // Caught here so a hostile value is a named spec error, not a
      // per-point internal error after the int cast.
      if (assoc > 1024) {
        return axis_error("cache associativity in '" + std::string(tok) +
                          "' is out of range (max 1024 ways)");
      }
      v.enabled = true;
      v.line_bytes = line;
      v.assocs = {static_cast<int>(assoc)};
      v.label = std::string(tok);
      caches.push_back(std::move(v));
    }
    if (caches.empty()) return axis_error("empty cache axis");
    return {};
  }
  if (axis == "algorithm") {
    algorithms.clear();
    for (auto tok : util::split(values, ',')) {
      tok = util::trim(tok);
      if (tok == "dp" || tok == "exact") {
        algorithms.push_back(Algorithm::kExactDp);
      } else if (tok == "greedy") {
        algorithms.push_back(Algorithm::kGreedy);
      } else {
        return axis_error("bad algorithm '" + std::string(tok) +
                          "' (want dp or greedy)");
      }
    }
    if (algorithms.empty()) return axis_error("empty algorithm axis");
    return {};
  }
  if (axis == "replay") {
    replays.clear();
    for (auto tok : util::split(values, ',')) {
      tok = util::trim(tok);
      if (tok == "on" || tok == "true") {
        replays.push_back(true);
      } else if (tok == "off" || tok == "false") {
        replays.push_back(false);
      } else {
        return axis_error("bad replay value '" + std::string(tok) +
                          "' (want on or off)");
      }
    }
    if (replays.empty()) return axis_error("empty replay axis");
    return {};
  }
  return axis_error("unknown sweep axis '" + axis_str +
                    "' (axes: capacity energy cache algorithm replay)");
}

util::Status SweepSpec::parse_file(std::string_view text) {
  int line_no = 0;
  for (auto line : util::split(text, '\n')) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    line = util::trim(line);
    if (line.empty()) continue;
    const size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return util::Status::failure(
          util::ErrorCode::kInvalidInput, "sweep-spec", line_no,
          "expected axis = value,... in '" + std::string(line) + "'");
    }
    const std::string_view key = util::trim(line.substr(0, eq));
    const std::string_view values = util::trim(line.substr(eq + 1));
    util::Status st = parse_axis(key, values);
    if (!st.ok()) {
      return util::Status::failure(st.code(), "sweep-spec", line_no,
                                   st.diags().all().front().message);
    }
  }
  return {};
}

core::SpmPhaseOptions SweepPoint::spm_options(
    const core::SpmPhaseOptions& base) const {
  core::SpmPhaseOptions opts = base;
  opts.dse.spm_capacity = capacity_bytes;
  opts.dse.energy = energy;
  opts.compare_cache = cache.enabled;
  if (cache.enabled) {
    opts.cache_line_bytes = cache.line_bytes;
    opts.cache_assocs = cache.assocs;
  }
  return opts;
}

SweepGrid SweepGrid::expand(const SweepSpec& spec,
                            const core::PipelineOptions& base) {
  SweepGrid grid;
  grid.capacities = spec.capacities;
  if (grid.capacities.empty()) {
    grid.capacities.push_back(base.spm.dse.spm_capacity);
  }
  grid.energy_models = spec.energy_models;
  if (grid.energy_models.empty()) {
    // Label the inherited model honestly: "default" only when it really
    // is the default preset, "base" when the caller customized it.
    const spm::EnergyModel& e = base.spm.dse.energy;
    const spm::EnergyModel d;
    const bool is_default =
        e.dram_nj == d.dram_nj && e.spm_1kb_nj == d.spm_1kb_nj &&
        e.spm_doubling_nj == d.spm_doubling_nj &&
        e.cache_overhead == d.cache_overhead &&
        e.cache_way_overhead == d.cache_way_overhead;
    grid.energy_models.push_back({is_default ? "default" : "base", e});
  }
  grid.caches = spec.caches;
  if (grid.caches.empty()) {
    // Inherit the base cache-comparison settings wholesale (possibly
    // several associativities in one point) so pre-sweep callers like
    // `--compare-cache` and the batch adapter behave unchanged.
    CacheAxisValue v;
    v.enabled = base.spm.compare_cache;
    v.line_bytes = base.spm.cache_line_bytes;
    v.assocs = base.spm.cache_assocs;
    v.label = v.enabled ? "base" : "off";
    grid.caches.push_back(std::move(v));
  }
  grid.algorithms = spec.algorithms;
  if (grid.algorithms.empty()) {
    grid.algorithms.push_back(Algorithm::kExactDp);
  }
  grid.replays = spec.replays;
  if (grid.replays.empty()) grid.replays.push_back(false);

  for (size_t cap = 0; cap < grid.capacities.size(); ++cap) {
    for (size_t e = 0; e < grid.energy_models.size(); ++e) {
      for (size_t c = 0; c < grid.caches.size(); ++c) {
        for (size_t a = 0; a < grid.algorithms.size(); ++a) {
          for (size_t r = 0; r < grid.replays.size(); ++r) {
            SweepPoint p;
            p.key = PointKey{0, cap, e, c, a, r};
            p.capacity_bytes = grid.capacities[cap];
            p.energy_name = grid.energy_models[e].name;
            p.energy = grid.energy_models[e].model;
            p.cache = grid.caches[c];
            p.algorithm = grid.algorithms[a];
            p.replay = grid.replays[r];
            grid.points.push_back(std::move(p));
          }
        }
      }
    }
  }
  return grid;
}

size_t SweepGrid::flat_index(const PointKey& key) const {
  FORAY_CHECK(key.capacity < capacities.size(),
              "PointKey capacity index out of range");
  FORAY_CHECK(key.energy < energy_models.size(),
              "PointKey energy index out of range");
  FORAY_CHECK(key.cache < caches.size(),
              "PointKey cache index out of range");
  FORAY_CHECK(key.algorithm < algorithms.size(),
              "PointKey algorithm index out of range");
  FORAY_CHECK(key.replay < replays.size(),
              "PointKey replay index out of range");
  return (((key.capacity * energy_models.size() + key.energy) *
               caches.size() +
           key.cache) *
              algorithms.size() +
          key.algorithm) *
             replays.size() +
         key.replay;
}

std::vector<bool> cache_cells_needed(const SweepGrid& grid,
                                     const SweepCheckpoint& resume,
                                     size_t job) {
  std::vector<bool> needed(grid.capacities.size() * grid.caches.size());
  for (size_t i = 0; i < grid.points.size(); ++i) {
    const SweepPoint& p = grid.points[i];
    if (p.cache.enabled && !resume.point_cached(job, i)) {
      needed[p.key.capacity * grid.caches.size() + p.key.cache] = true;
    }
  }
  return needed;
}

StaticVerdict static_verdict(std::string_view source) {
  StaticVerdict v;
  staticforay::CheckReport rep;
  if (!staticforay::lint_source(source, &rep).ok()) return v;
  v.frontend_ok = true;
  v.cost = rep.cost;
  for (const staticforay::CheckDiag& d : rep.diags) {
    if (d.severity != staticforay::Severity::MustFault) continue;
    v.must_fault = std::string(staticforay::check_kind_name(d.kind)) +
                   " at line " + std::to_string(d.line) + ": " + d.message;
    break;
  }
  return v;
}

// -- replay memo ---------------------------------------------------------------

namespace {

/// The memo key: everything spm::simulate_replay reads. The classifier
/// numbers buffers in Selection::chosen order, so that order is part of
/// the key, not just the set.
uint64_t replay_key(std::string_view source, const spm::Selection& selection,
                    const sim::RunOptions& run) {
  std::string tail(1, '\0');
  for (const spm::BufferCandidate& c : selection.chosen) {
    util::append_format(&tail, "%zu:%d;", c.ref_index, c.level);
  }
  util::append_format(&tail, "|%d,%llu", static_cast<int>(run.engine),
                      static_cast<unsigned long long>(run.rng_seed));
  return util::fnv1a(tail, util::fnv1a(source));
}

/// True when a fresh run under `run` would end as `kept`'s did: ok, with
/// the same counters. The step guard trips past max steps; the record
/// budget is checked at chunk boundaries, at counts no larger than the
/// view records, and trips at max_records or more.
bool ends_alike(const spm::ReplaySimulation& kept,
                const sim::RunOptions& run) {
  const sim::Budget& b = run.budget;
  return kept.steps <= b.effective_max_steps() &&
         (b.max_records == 0 || kept.view_records < b.max_records) &&
         (b.cancel == nullptr || !b.cancel->cancelled());
}

}  // namespace

spm::ReplayReport ReplayMemo::replay(const core::ForayModel& model,
                                     const spm::Selection& selection,
                                     const spm::ReplayOptions& opts) {
  const std::string source = spm::emit_transformed(model, selection);
  spm::ReplaySimulation simulated;
  if (util::fault::enabled()) {
    // An armed site fires by hit count or stalls inside the run, so only
    // a fresh run ends the way the spec says; it is not kept either.
    simulated = spm::simulate_replay(model, selection, source, opts.run);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.simulations;
  } else {
    simulated = simulation(replay_key(source, selection, opts.run), model,
                           selection, source, opts.run);
  }
  return spm::lock_replay(model, selection, opts.dse, simulated);
}

spm::ReplaySimulation ReplayMemo::simulation(
    uint64_t key, const core::ForayModel& model,
    const spm::Selection& selection, std::string_view source,
    const sim::RunOptions& run) {
  std::unique_lock<std::mutex> lock(mu_);
  std::shared_ptr<Slot> slot;
  for (;;) {
    const std::shared_ptr<Slot>* found = slots_.find(key);
    if (found == nullptr || (*found)->state == Slot::State::kFailed) break;
    slot = *found;
    if (slot->state == Slot::State::kRunning) {
      finished_.wait(lock,
                     [&] { return slot->state != Slot::State::kRunning; });
      continue;  // kept, or failed and perhaps taken up by another replay
    }
    if (ends_alike(slot->simulated, run)) {
      ++stats_.hits;
      return slot->simulated;
    }
    // This replay's budget may end a fresh run otherwise: run it alone.
    ++stats_.simulations;
    lock.unlock();
    return spm::simulate_replay(model, selection, source, run);
  }
  // This replay simulates for every later one of the key.
  slot = std::make_shared<Slot>();
  slots_.put(key, slot);
  ++stats_.simulations;
  lock.unlock();
  auto finish = [&](Slot::State state) {
    {
      std::lock_guard<std::mutex> relock(mu_);
      slot->state = state;
    }
    finished_.notify_all();
  };
  spm::ReplaySimulation simulated;
  try {
    simulated = spm::simulate_replay(model, selection, source, run);
  } catch (...) {
    finish(Slot::State::kFailed);
    throw;
  }
  if (simulated.status.ok()) slot->simulated = simulated;
  finish(simulated.status.ok() ? Slot::State::kKept
                               : Slot::State::kFailed);
  return simulated;
}

ReplayMemo::Stats ReplayMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.evictions = slots_.evictions();
  return s;
}

// -- cache memo ----------------------------------------------------------------

CacheMemo::Entry* CacheMemo::find(uint64_t model,
                                  const core::CacheCell& cell, int assoc) {
  for (Entry& e : kept_) {
    if (e.used != 0 && e.model == model && e.capacity == cell.capacity &&
        e.line_bytes == cell.line_bytes && e.assoc == assoc) {
      e.used = ++tick_;
      return &e;
    }
  }
  return nullptr;
}

std::vector<core::CacheCellCounts> CacheMemo::counts(
    std::string_view model_key, const core::ForayModel& model,
    const std::vector<core::CacheCell>& cells) {
  const uint64_t key = util::fnv1a(model_key);
  std::vector<core::CacheCellCounts> out(cells.size());
  std::vector<core::CacheCell> todo;
  std::vector<size_t> where;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < cells.size(); ++i) {
      std::vector<core::SpmReport::CacheComparison>& kept = out[i].caches;
      for (const int assoc : cells[i].assocs) {
        const Entry* e = find(key, cells[i], assoc);
        if (e == nullptr) break;
        kept.push_back({assoc, e->hits, e->misses, 0.0});
      }
      if (kept.size() == cells[i].assocs.size()) {
        ++stats_.hits;
        continue;
      }
      kept.clear();
      todo.push_back(cells[i]);
      where.push_back(i);
    }
    stats_.simulations += todo.size();
  }
  if (todo.empty()) return out;
  std::vector<core::CacheCellCounts> fresh =
      core::simulate_caches(model, todo);
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t k = 0; k < todo.size(); ++k) {
    if (!fresh[k].status.ok()) continue;
    for (const core::SpmReport::CacheComparison& c : fresh[k].caches) {
      Entry* slot = find(key, todo[k], c.assoc);
      if (slot == nullptr) {
        slot = &*std::min_element(
            kept_.begin(), kept_.end(),
            [](const Entry& a, const Entry& b) { return a.used < b.used; });
        if (slot->used != 0) ++stats_.evictions;
      }
      *slot = Entry{key,     todo[k].capacity, todo[k].line_bytes, c.assoc,
                    ++tick_, c.hits,           c.misses};
    }
  }
  for (size_t k = 0; k < todo.size(); ++k) {
    out[where[k]] = std::move(fresh[k]);
  }
  return out;
}

CacheMemo::Stats CacheMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// -- per-job execution --------------------------------------------------------

namespace {

/// Hits and misses of every (capacity, cache axis value) cell a job's
/// outstanding points need, one result per cell, row-major by (capacity
/// index, cache axis index), unpriced; a cell no outstanding point needs
/// stays empty. They depend on the model and the geometry only, never on
/// the energy model, so a job fills them once, after Phase I and before
/// its solve groups run, from the run's CacheMemo, which simulates the
/// cells it does not keep in one simulate_caches pass over the model's
/// address stream. A bad cell keeps its failure, so each point of a bad
/// geometry gets its own classified row.
std::vector<core::CacheCellCounts> job_cache_cells(
    const core::ForayModel& model, const SweepGrid& grid,
    const std::vector<bool>& needed, CacheMemo* memo,
    std::string_view model_key) {
  std::vector<core::CacheCell> todo;
  std::vector<size_t> where;
  for (size_t c = 0; c < needed.size(); ++c) {
    if (!needed[c]) continue;
    const CacheAxisValue& v = grid.caches[c % grid.caches.size()];
    todo.push_back(core::CacheCell{grid.capacities[c / grid.caches.size()],
                                   v.line_bytes, v.assocs});
    where.push_back(c);
  }
  std::vector<core::CacheCellCounts> cells(needed.size());
  if (todo.empty()) return cells;
  std::vector<core::CacheCellCounts> counts =
      memo->counts(model_key, model, todo);
  for (size_t k = 0; k < where.size(); ++k) {
    cells[where[k]] = std::move(counts[k]);
  }
  return cells;
}

/// A cache-on point's comparison: its cell's counts priced under the
/// point's energy model, or the cell's failure.
util::Status price_cell(const core::CacheCellCounts& cell,
                        const core::SpmPhaseOptions& popts,
                        std::vector<core::SpmReport::CacheComparison>* out) {
  if (!cell.status.ok()) return cell.status;
  *out = cell.caches;
  core::price_caches(popts, out);
  return {};
}

/// One contiguous run of grid points sharing a Phase II solve: identical
/// (capacity, energy) coordinates. core::solve_spm reads neither the
/// cache axis nor the algorithm axis, and the replay check depends on the
/// exact selection alone, so cache, algorithm and replay only change what
/// each point reports from the one solve. Grid expansion puts those axes
/// innermost, so each (capacity, energy) block is one run and one pool
/// task.
struct SolveGroup {
  size_t begin = 0;
  size_t end = 0;  ///< one past the last point of the group
};

std::vector<SolveGroup> solve_groups(const SweepGrid& grid) {
  std::vector<SolveGroup> groups;
  for (size_t i = 0; i < grid.points.size(); ++i) {
    const SweepPoint& p = grid.points[i];
    if (!groups.empty()) {
      const SweepPoint& head = grid.points[groups.back().begin];
      if (head.key.capacity == p.key.capacity &&
          head.key.energy == p.key.energy) {
        groups.back().end = i + 1;
        continue;
      }
    }
    groups.push_back(SolveGroup{i, i + 1});
  }
  return groups;
}

/// What a group's outstanding points ask of its solve beyond solve_spm.
struct GroupNeeds {
  bool greedy = false;  ///< a greedy point: evaluate the greedy selection
  bool replay = false;  ///< a replay-on point: run the replay check
};

/// One solve group's Phase II work, done once and shared read-only by
/// its points. Pure over the immutable model, so groups of one job run
/// on different workers. A point's status is the first failure of: the
/// injected fault, its cache cell (cache-on points), the solve, then the
/// replay (replay-on points).
struct GroupSolve {
  util::Status fault;   ///< fault site "spm.solve": fails every point
  util::Status status;  ///< the solve threw: fails every point
  core::SpmReport spm;  ///< without a cache comparison
  spm::EnergyReport greedy_energy;  ///< when GroupNeeds::greedy
  /// When GroupNeeds::replay; its status fails the replay-on points.
  spm::ReplayReport replay;
};

GroupSolve solve_group(const core::ForayModel& model,
                       const core::PipelineOptions& base,
                       const SweepPoint& head, GroupNeeds needs,
                       const std::vector<spm::BufferCandidate>& candidates,
                       uint64_t ordinal, ReplayMemo* memo) {
  GroupSolve out;
  // Fault site "spm.solve": the Phase II solver dies mid-group, an
  // internal error on every point of the group. Keyed by the group's
  // grid position `ordinal` (util/fault.h), so the same groups fail at
  // any thread count.
  if (util::fault::enabled() &&
      util::fault::hit_at("spm.solve", ordinal).fired) {
    out.fault = util::Status::failure(util::ErrorCode::kInternal, "spm-solve",
                                      0, "injected Phase II solver failure");
    return out;
  }
  out.status = guarded("spm-solve", [&] {
    // Cache-on points price the job's shared counts (build_item).
    const core::SpmPhaseOptions popts = head.spm_options(base.spm);
    out.spm = core::solve_spm(model, popts, &candidates);
    if (needs.greedy) {
      out.greedy_energy =
          spm::evaluate_selection(model, out.spm.greedy, popts.dse);
    }
    if (needs.replay) {
      // The replay check is per-selection; a failure to *execute* the
      // transformed program fails the replay-on points, counter
      // mismatches land in out.replay.mismatches. Groups whose selections
      // emit the same program share one simulation through the memo.
      spm::ReplayOptions ropts;
      ropts.run = base.run;
      ropts.dse = popts.dse;
      out.replay = memo->replay(model, out.spm.exact, ropts);
    }
  });
  return out;
}

/// Phase I state of one job, shared read-only by its solve groups.
struct JobState {
  /// The job's Phase I result; on a model-cache hit, only its model.
  core::PipelineResult result;
  /// Phase I outcome: the result's status, or the failure enumerating
  /// the candidates hit. Not ok dooms every grid cell of the job.
  util::Status phase1;
  /// Buffer candidates, enumerated ONCE per job: they depend only on the
  /// model and the reuse filter, never on the swept axes, so every grid
  /// point reuses this list instead of re-enumerating per solve.
  std::vector<spm::BufferCandidate> candidates;
  /// ModelCache::key of the job's source and Phase I options: the model
  /// cache's key and the first half of the cache memo's.
  std::string model_key;
  /// job_cache_cells for the job's outstanding points, filled after
  /// Phase I; every cell holds the failure when the fill threw.
  std::vector<core::CacheCellCounts> cache_cells;
  /// Solve groups still outstanding; the worker that finishes the last
  /// one finalizes the job.
  std::atomic<size_t> remaining{0};
};

void run_phase1(const SweepJob& job, const SweepOptions& opts,
                JobState* js) {
  // Phase I only: every grid point, the first included, is solved by its
  // solve group, so a cold run and a model-cache hit take the same Phase
  // II path — which is what makes warm output byte-identical to cold.

  // Model-cache fast path: a hit makes this job pure Phase II. The
  // candidates are enumerated from the cached model (they depend only on
  // the model and the reuse filter).
  if (opts.model_cache != nullptr) {
    core::ForayModel cached;
    util::Status why;
    if (opts.model_cache->lookup(js->model_key, &cached, &why)) {
      try {
        js->candidates =
            spm::enumerate_candidates(cached, opts.pipeline.spm.reuse);
        js->result.model = std::move(cached);
        js->result.model_built = true;
        return;
      } catch (const std::exception&) {
        // A well-formed entry whose *content* lies (enumeration died on
        // it) is treated exactly like a corrupt one: recompute below,
        // store() overwrites it.
        js->candidates.clear();
      }
    } else if (!why.ok()) {
      std::fprintf(stderr, "foraygen: model cache: %s; recomputing\n",
                   why.message().c_str());
    }
  }

  // One attempt, with anything it throws classified: every failure Phase
  // I can report (a program that does not parse, a tripped budget, a bug)
  // would only reproduce on a rerun; --resume re-runs the failed points.
  const util::Status thrown = guarded("pipeline", [&] {
    js->result = core::run_pipeline(job.source, opts.pipeline);
  });
  if (!thrown.ok()) js->result.status = thrown;
  // Phase I failures doom every grid cell; Phase II failures (including
  // replay execution errors) are per-point, so later cells still get
  // their own attempt.
  js->phase1 = js->result.status;
  if (!js->phase1.ok()) return;
  const core::ForayModel& model = js->result.model;
  js->phase1 = guarded("pipeline", [&] {
    js->candidates =
        spm::enumerate_candidates(model, opts.pipeline.spm.reuse);
  });
  if (!js->phase1.ok()) return;
  if (opts.model_cache != nullptr) {
    // Best-effort: a failed store only costs the next run a recompute.
    opts.model_cache->store(js->model_key, model);
  }
}

/// Builds the SweepItem for grid point `i` from its group's solve.
/// `solve == nullptr` means Phase I failed and js.phase1 is the item's
/// outcome.
SweepItem build_item(const SweepJob& job, size_t job_index,
                     const SweepGrid& grid, size_t i, JobState& js,
                     const GroupSolve* solve,
                     const core::SpmPhaseOptions& base_spm) {
  const SweepPoint& point = grid.points[i];
  SweepItem item;
  item.program = job.name;
  item.key = point.key;
  item.key.job = job_index;
  item.point = point;
  item.status = js.phase1;
  if (solve == nullptr) return item;
  const core::ForayModel& model = js.result.model;
  std::vector<core::SpmReport::CacheComparison> caches;
  item.status = solve->fault;
  if (item.status.ok() && point.cache.enabled) {
    item.status = price_cell(
        js.cache_cells[point.key.capacity * grid.caches.size() +
                       point.key.cache],
        point.spm_options(base_spm), &caches);
  }
  if (item.status.ok()) item.status = solve->status;
  if (item.status.ok() && point.replay) item.status = solve->replay.status;
  if (!item.status.ok()) return item;
  item.model_refs = model.refs.size();
  item.spm = solve->spm;
  item.spm.caches = std::move(caches);
  item.energy = point.algorithm == Algorithm::kGreedy
                    ? solve->greedy_energy
                    : solve->spm.with_spm;
  item.replay_ran = point.replay;
  if (item.replay_ran) item.replay = solve->replay;
  return item;
}

/// Pre-Phase-I static check for SweepOptions::lint_first: a kInvalidInput
/// status (phase "lint") naming the first proven fault when the checker
/// *proves* the program faults, ok for anything else. Frontend failures
/// deliberately pass — Phase I classifies those itself, keeping linted
/// and unlinted runs byte-identical on them.
util::Status lint_job(const SweepJob& job) {
  const StaticVerdict v = static_verdict(job.source);
  if (v.must_fault.empty()) return util::Status();
  return util::Status::failure(
      util::ErrorCode::kInvalidInput, "lint", 0,
      job.name + ": static checker proves a fault: " + v.must_fault);
}

/// The streaming NDJSON row for a lint-refused program: one structured
/// error line standing in for the job's whole point block.
std::string lint_line(const std::string& program, const util::Status& st) {
  util::JsonWriter w;
  w.begin_object();
  w.key("kind").value("lint");
  w.key("program").value(program);
  w.key("ok").value(false);
  util::write_error_fields(w, st);
  w.end_object();
  return w.take();
}

// -- NDJSON rendering ---------------------------------------------------------
// One helper per line kind.

void append_key(util::JsonWriter& w, const PointKey& key) {
  w.begin_object();
  w.key("job").value(static_cast<uint64_t>(key.job));
  w.key("capacity").value(static_cast<uint64_t>(key.capacity));
  w.key("energy").value(static_cast<uint64_t>(key.energy));
  w.key("cache").value(static_cast<uint64_t>(key.cache));
  w.key("algorithm").value(static_cast<uint64_t>(key.algorithm));
  w.key("replay").value(static_cast<uint64_t>(key.replay));
  w.end_object();
}

std::string header_line(const SweepGrid& grid,
                        const std::vector<std::string>& programs) {
  util::JsonWriter w;
  w.begin_object();
  w.key("kind").value("sweep");
  w.key("programs").begin_array();
  for (const auto& p : programs) w.value(p);
  w.end_array();
  w.key("axes").begin_object();
  w.key("capacity_bytes").begin_array();
  for (uint32_t c : grid.capacities) w.value(c);
  w.end_array();
  w.key("energy").begin_array();
  for (const auto& e : grid.energy_models) w.value(e.name);
  w.end_array();
  w.key("cache").begin_array();
  for (const auto& c : grid.caches) w.value(c.label);
  w.end_array();
  w.key("algorithm").begin_array();
  for (Algorithm a : grid.algorithms) w.value(algorithm_name(a));
  w.end_array();
  w.key("replay").begin_array();
  for (bool r : grid.replays) w.value(r);
  w.end_array();
  w.end_object();
  w.key("points_per_program")
      .value(static_cast<uint64_t>(grid.points_per_job()));
  w.end_object();
  return w.take();
}

std::string point_line(const SweepItem& item) {
  util::JsonWriter w;
  w.begin_object();
  w.key("kind").value("point");
  w.key("program").value(item.program);
  w.key("key");
  append_key(w, item.key);
  w.key("capacity_bytes").value(item.point.capacity_bytes);
  w.key("energy").value(item.point.energy_name);
  w.key("cache").value(item.point.cache.label);
  w.key("algorithm").value(algorithm_name(item.point.algorithm));
  w.key("replay").value(item.point.replay);
  w.key("ok").value(item.status.ok());
  if (!item.status.ok()) {
    util::write_error_fields(w, item.status);
    w.end_object();
    return w.take();
  }
  w.key("model_refs").value(static_cast<uint64_t>(item.model_refs));
  w.key("candidates").value(static_cast<uint64_t>(item.spm.candidate_count));
  const spm::Selection& sel = item.selection();
  w.key("buffers_chosen").value(static_cast<uint64_t>(sel.chosen.size()));
  w.key("bytes_used").value(sel.bytes_used);
  w.key("saved_nj").value(sel.saved_nj);
  w.key("exact_saved_nj").value(item.spm.exact.saved_nj);
  w.key("greedy_saved_nj").value(item.spm.greedy.saved_nj);
  w.key("baseline_nj").value(item.energy.baseline_nj);
  w.key("total_nj").value(item.energy.total_nj);
  w.key("savings_pct").value(item.energy.savings_pct());
  w.key("spm_accesses").value(item.energy.spm_accesses);
  w.key("dram_accesses").value(item.energy.dram_accesses);
  w.key("transfer_words").value(item.energy.transfer_words);
  if (!item.spm.caches.empty()) {
    w.key("caches").begin_array();
    for (const auto& c : item.spm.caches) {
      w.begin_object();
      w.key("line_bytes").value(item.point.cache.line_bytes);
      w.key("assoc").value(c.assoc);
      w.key("hits").value(c.hits);
      w.key("misses").value(c.misses);
      w.key("energy_nj").value(c.energy_nj);
      w.end_object();
    }
    w.end_array();
  }
  if (item.replay_ran) {
    const auto& r = item.replay;
    w.key("replay_check").begin_object();
    w.key("ok").value(r.matches());
    w.key("rectangular").value(r.rectangular);
    w.key("sim_spm_accesses").value(r.sim_spm_accesses);
    w.key("sim_main_accesses").value(r.sim_main_accesses);
    w.key("sim_transfer_words").value(r.sim_transfer_words);
    w.key("analytic_spm_accesses").value(r.ana_spm_accesses);
    w.key("analytic_main_accesses").value(r.ana_main_accesses);
    w.key("analytic_transfer_words").value(r.ana_transfer_words);
    if (!r.mismatches.empty()) {
      w.key("mismatches").begin_array();
      for (const auto& m : r.mismatches) w.value(m);
      w.end_array();
    }
    w.end_object();
  }
  w.end_object();
  return w.take();
}

std::string pareto_line(std::string_view scope, std::string_view program,
                        const std::vector<ParetoPoint>& points) {
  util::JsonWriter w;
  w.begin_object();
  w.key("kind").value("pareto");
  w.key("scope").value(scope);
  if (!program.empty()) w.key("program").value(program);
  w.key("points").begin_array();
  for (const auto& p : points) {
    w.begin_object();
    w.key("key");
    append_key(w, p.key);
    w.key("bytes_used").value(p.bytes_used);
    w.key("saved_nj").value(p.saved_nj);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

// -- Pareto extraction --------------------------------------------------------

struct Objective {
  size_t flat = 0;  ///< grid point index
  uint64_t bytes = 0;
  double saved = 0.0;
};

/// Non-dominated subset: maximize saved, minimize bytes. Sorted by bytes
/// ascending; ties and duplicates resolve to the first point in grid
/// order, so the frontier is deterministic.
std::vector<Objective> frontier(std::vector<Objective> pts) {
  std::sort(pts.begin(), pts.end(), [](const Objective& a,
                                       const Objective& b) {
    if (a.bytes != b.bytes) return a.bytes < b.bytes;
    if (a.saved != b.saved) return a.saved > b.saved;
    return a.flat < b.flat;
  });
  std::vector<Objective> front;
  double best = -1.0;
  for (const auto& p : pts) {
    if (p.saved > best) {
      front.push_back(p);
      best = p.saved;
    }
  }
  return front;
}

std::vector<ParetoPoint> to_pareto_points(const SweepGrid& grid,
                                          size_t job,
                                          std::vector<Objective> objs) {
  std::vector<ParetoPoint> out;
  for (const auto& o : frontier(std::move(objs))) {
    ParetoPoint p;
    p.key = grid.points[o.flat].key;
    p.key.job = job;
    p.bytes_used = o.bytes;
    p.saved_nj = o.saved;
    out.push_back(p);
  }
  return out;
}

/// Per-grid-point accumulator for the aggregate frontier.
struct AggCell {
  bool all_ok = true;
  size_t jobs_seen = 0;
  uint64_t bytes = 0;
  double saved = 0.0;
};

std::vector<ParetoPoint> aggregate_pareto(const SweepGrid& grid,
                                          const std::vector<AggCell>& agg) {
  std::vector<Objective> objs;
  for (size_t i = 0; i < grid.points.size(); ++i) {
    if (!agg[i].all_ok || agg[i].jobs_seen == 0) continue;
    objs.push_back(Objective{i, agg[i].bytes, agg[i].saved});
  }
  return to_pareto_points(grid, 0, std::move(objs));
}

// -- the executor -------------------------------------------------------------

/// The one way a sweep runs: Phase I per job, then the job's solve groups
/// fanned across the same pool — a single-program sweep saturates every
/// worker with grid points instead of serializing on one. Workers submit
/// their groups as they finish Phase I, so jobs and points interleave
/// freely; ThreadPool::wait_idle accounts for worker-submitted tasks,
/// making it a complete barrier.
///
/// Each point is rendered to its NDJSON line and reduced (Pareto
/// objective, aggregate inputs, failure) the moment it resolves, into a
/// per-(job, point) slot that workers write without a lock. The worker
/// that finishes a job's last group assembles the job's slots into one
/// text block, published out of order; write() drains the blocks in job
/// order. Points cached in the resume checkpoint pre-fill their slots and
/// never run again, and a fully cached job skips Phase I. A job the
/// lint-first checker refuses gets one `lint` row in place of its point
/// block. An attached collector also keeps every item, each job's Phase
/// I result and every frontier.
class SweepExec {
 public:
  SweepExec(const std::vector<SweepJob>& jobs, const SweepOptions& opts,
            const SweepGrid& grid, const SweepCheckpoint& resume,
            SweepReport* collect)
      : jobs_(jobs),
        opts_(opts),
        grid_(grid),
        resume_(resume),
        collect_(collect),
        per_job_(grid.points_per_job()),
        groups_(solve_groups(grid)),
        slots_(jobs.size(), std::vector<NdPoint>(per_job_)),
        blocks_(jobs.size()),
        memo_(opts.replay_memo),
        cache_memo_(opts.cache_memo),
        pool_(static_cast<size_t>(opts.threads)) {
    if (memo_ == nullptr && std::find(grid.replays.begin(), grid.replays.end(),
                                      true) != grid.replays.end()) {
      own_memo_ = std::make_unique<ReplayMemo>();
      memo_ = own_memo_.get();
    }
    if (cache_memo_ == nullptr &&
        std::any_of(grid.caches.begin(), grid.caches.end(),
                    [](const CacheAxisValue& c) { return c.enabled; })) {
      own_cache_memo_ = std::make_unique<CacheMemo>();
      cache_memo_ = own_cache_memo_.get();
    }
    for (size_t j = 0; j < jobs_.size(); ++j) {
      states_.push_back(std::make_unique<JobState>());
      for (size_t i = 0; i < per_job_; ++i) {
        if (!resume_.point_cached(j, i)) continue;
        const SweepCheckpoint::CachedPoint& c = resume_.points[j][i];
        NdPoint& p = slots_[j][i];
        p.line = c.line;
        p.ok = true;
        p.bytes = c.bytes;
        p.saved = c.saved;
      }
    }
    for (size_t j = 0; j < jobs_.size(); ++j) {
      pool_.submit([this, j] { job_task(j); });
    }
  }
  // Pool tasks hold `this`.
  SweepExec(const SweepExec&) = delete;
  SweepExec& operator=(const SweepExec&) = delete;

  /// Writes every job's block to `out` in job order, then the aggregate
  /// frontier, and returns what SweepDriver::run_ndjson documents.
  util::Status write(std::ostream& out) {
    std::vector<AggCell> agg(per_job_);
    util::Status first_failure;
    util::Status sink_failure;
    for (size_t j = 0; j < jobs_.size(); ++j) {
      Block block;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return blocks_[j].ready; });
        block = std::move(blocks_[j]);
      }
      // Fault site "sweep.sink.io" stands in for a real write failure
      // (EIO, ENOSPC); either way the journal so far holds only whole job
      // blocks in deterministic order — exactly what --resume accepts —
      // so abandon the sweep instead of writing a torn line.
      if (util::fault::enabled() &&
          util::fault::should_fail("sweep.sink.io")) {
        sink_failure = util::Status::failure(
            util::ErrorCode::kIoError, "sweep-sink", 0,
            "injected NDJSON sink write failure");
        break;
      }
      if (!(out << block.text)) {
        sink_failure =
            util::Status::failure(util::ErrorCode::kIoError, "sweep-sink",
                                  0, "NDJSON sink write failed");
        break;
      }
      // The published block orders the job's slot writes before this
      // read.
      for (size_t i = 0; i < per_job_; ++i) {
        const NdPoint& p = slots_[j][i];
        AggCell& cell = agg[i];
        ++cell.jobs_seen;
        if (p.ok) {
          cell.bytes += p.bytes;
          cell.saved += p.saved;
        } else {
          cell.all_ok = false;
        }
      }
      if (first_failure.ok()) first_failure = block.first_failure;
    }
    // Always a full barrier, even on the sink-failure early exit: workers
    // still write the slots, blocks and collector.
    pool_.wait_idle();
    if (!sink_failure.ok()) return sink_failure;
    std::vector<ParetoPoint> aggregate = aggregate_pareto(grid_, agg);
    out << pareto_line("aggregate", "", aggregate) << '\n';
    if (collect_ != nullptr) collect_->aggregate = std::move(aggregate);
    return first_failure;
  }

 private:
  /// One point's rendered line and reduction inputs.
  struct NdPoint {
    std::string line;
    bool ok = false;
    uint64_t bytes = 0;
    double saved = 0.0;
    util::Status failure;
  };
  /// One finished job's text, in point order.
  struct Block {
    bool ready = false;
    std::string text;
    util::Status first_failure;
  };

  void job_task(size_t j) {
    if (resume_.range_cached(j, 0, per_job_)) {
      // Every point of this job rides in from the checkpoint: no Phase I,
      // no solves, no items.
      finish_job(j, {});
      return;
    }
    if (opts_.lint_first) {
      const util::Status lint = lint_job(jobs_[j]);
      if (!lint.ok()) {
        refuse_job(j, lint);
        return;
      }
    }
    JobState& js = *states_[j];
    js.model_key = ModelCache::key(jobs_[j].source, opts_.pipeline);
    run_phase1(jobs_[j], opts_, &js);
    if (!js.phase1.ok()) {
      for (size_t i = 0; i < per_job_; ++i) {
        if (resume_.point_cached(j, i)) continue;
        deliver(j, i,
                build_item(jobs_[j], j, grid_, i, js, nullptr,
                           opts_.pipeline.spm));
      }
      finish_job(j, std::move(js.result));
      return;
    }
    size_t needed = 0;
    for (const SolveGroup& g : groups_) {
      if (!resume_.range_cached(j, g.begin, g.end)) ++needed;
    }
    js.remaining.store(needed, std::memory_order_relaxed);
    const util::Status thrown = guarded("spm-solve", [&] {
      js.cache_cells =
          job_cache_cells(js.result.model, grid_,
                          cache_cells_needed(grid_, resume_, j), cache_memo_,
                          js.model_key);
    });
    if (!thrown.ok()) {
      js.cache_cells.assign(grid_.capacities.size() * grid_.caches.size(),
                            core::CacheCellCounts{thrown, {}});
    }
    for (const SolveGroup& g : groups_) {
      if (resume_.range_cached(j, g.begin, g.end)) continue;
      pool_.submit([this, j, &g] { group_task(j, g); });
    }
  }

  void group_task(size_t j, const SolveGroup& g) {
    JobState& js = *states_[j];
    GroupNeeds needs;
    for (size_t i = g.begin; i < g.end; ++i) {
      if (resume_.point_cached(j, i)) continue;
      needs.greedy |= grid_.points[i].algorithm == Algorithm::kGreedy;
      needs.replay |= grid_.points[i].replay;
    }
    const core::ForayModel& model = js.result.model;
    const uint64_t ordinal =
        j * groups_.size() + static_cast<size_t>(&g - groups_.data());
    const GroupSolve solve =
        solve_group(model, opts_.pipeline, grid_.points[g.begin], needs,
                    js.candidates, ordinal, memo_);
    for (size_t i = g.begin; i < g.end; ++i) {
      if (resume_.point_cached(j, i)) continue;
      deliver(j, i,
              build_item(jobs_[j], j, grid_, i, js, &solve,
                         opts_.pipeline.spm));
    }
    if (js.remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finish_job(j, std::move(js.result));
    }
  }

  /// Renders and reduces one resolved point; safe for concurrent calls on
  /// distinct (job, point) slots.
  void deliver(size_t j, size_t i, SweepItem&& item) {
    NdPoint& p = slots_[j][i];
    p.line = point_line(item);
    if (!item.status.ok()) {
      p.failure = item.status;
    } else {
      p.ok = true;
      const spm::Selection& sel = item.selection();
      p.bytes = sel.bytes_used;
      p.saved = sel.saved_nj;
      // A replay counter mismatch is a validation failure even though the
      // point itself solved.
      if (item.replay_ran && !item.replay.matches()) {
        p.failure = util::Status::failure(
            "replay", 0,
            item.program + " @" + std::to_string(item.point.capacity_bytes) +
                "B: transform-replay mismatch");
      }
    }
    if (collect_ != nullptr) {
      collect_->items[j * per_job_ + i] = std::move(item);
    }
  }

  /// Runs once per job, after all of its points were delivered (or came
  /// from the checkpoint): assembles the block and the job's frontier.
  void finish_job(size_t j, core::PipelineResult result) {
    Block block;
    std::vector<Objective> objs;
    for (size_t i = 0; i < per_job_; ++i) {
      NdPoint& p = slots_[j][i];
      block.text += p.line;
      block.text += '\n';
      p.line.clear();
      p.line.shrink_to_fit();
      if (p.ok) objs.push_back(Objective{i, p.bytes, p.saved});
      if (block.first_failure.ok() && !p.failure.ok()) {
        block.first_failure = p.failure;
      }
    }
    std::vector<ParetoPoint> front =
        to_pareto_points(grid_, j, std::move(objs));
    block.text += pareto_line("program", jobs_[j].name, front);
    block.text += '\n';
    if (collect_ != nullptr) {
      collect_->results[j] = std::move(result);
      collect_->fronts[j] = std::move(front);
    }
    publish(j, std::move(block));
  }

  /// A lint-refused job: one `lint` row plus the program's (empty) pareto
  /// line stand in for the whole point block. Its slots stay not-ok, so
  /// the aggregate skips every point; a collector marks every cell and
  /// the job's result with the lint status.
  void refuse_job(size_t j, const util::Status& st) {
    Block block;
    block.text = lint_line(jobs_[j].name, st);
    block.text += '\n';
    block.text += pareto_line("program", jobs_[j].name, {});
    block.text += '\n';
    block.first_failure = st;
    if (collect_ != nullptr) {
      for (size_t i = 0; i < per_job_; ++i) {
        SweepItem& item = collect_->items[j * per_job_ + i];
        item.program = jobs_[j].name;
        item.key = grid_.points[i].key;
        item.key.job = j;
        item.point = grid_.points[i];
        item.status = st;
      }
      collect_->results[j].status = st;
    }
    publish(j, std::move(block));
  }

  void publish(size_t j, Block block) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      block.ready = true;
      blocks_[j] = std::move(block);
    }
    cv_.notify_all();
  }

  const std::vector<SweepJob>& jobs_;
  const SweepOptions& opts_;
  const SweepGrid& grid_;
  const SweepCheckpoint& resume_;
  SweepReport* const collect_;
  const size_t per_job_;
  const std::vector<SolveGroup> groups_;
  std::vector<std::unique_ptr<JobState>> states_;
  std::vector<std::vector<NdPoint>> slots_;
  std::vector<Block> blocks_;
  std::mutex mu_;
  std::condition_variable cv_;
  /// SweepOptions::replay_memo, else own_memo_ when a point replays.
  ReplayMemo* memo_;
  std::unique_ptr<ReplayMemo> own_memo_;
  /// SweepOptions::cache_memo, else own_cache_memo_ when a point
  /// compares a cache.
  CacheMemo* cache_memo_;
  std::unique_ptr<CacheMemo> own_cache_memo_;
  util::ThreadPool pool_;  ///< last member: joined before state dies
};

/// Swallows everything: the stream run() collects a report from.
class DiscardBuf : public std::streambuf {
 protected:
  int_type overflow(int_type ch) override { return traits_type::not_eof(ch); }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

}  // namespace

// -- report -------------------------------------------------------------------

const SweepItem& SweepReport::at(const PointKey& key) const {
  FORAY_CHECK(key.job < programs.size(), "PointKey job index out of range");
  const size_t idx =
      key.job * grid.points_per_job() + grid.flat_index(key);
  FORAY_CHECK(idx < items.size(), "sweep grid index out of range");
  return items[idx];
}

const std::vector<ParetoPoint>& SweepReport::pareto(size_t job) const {
  FORAY_CHECK(job < fronts.size(), "pareto job index out of range");
  return fronts[job];
}

std::string SweepReport::table() const {
  util::TablePrinter tp({"program", "SPM", "energy", "cache", "algo",
                         "refs", "buffers", "bytes used", "saved nJ",
                         "energy vs DRAM", "replay"});
  for (const auto& item : items) {
    const std::string cap = std::to_string(item.point.capacity_bytes) + "B";
    if (!item.status.ok()) {
      tp.add_row({item.program, cap, item.point.energy_name,
                  item.point.cache.label,
                  algorithm_name(item.point.algorithm), "-", "-", "-", "-",
                  "FAILED", "-"});
      continue;
    }
    const spm::Selection& sel = item.selection();
    char saved[32], pct[32];
    std::snprintf(saved, sizeof saved, "%.1f", sel.saved_nj);
    std::snprintf(pct, sizeof pct, "%.1f%%",
                  item.energy.baseline_nj > 0.0
                      ? 100.0 * item.energy.total_nj /
                            item.energy.baseline_nj
                      : 100.0);
    tp.add_row({item.program, cap, item.point.energy_name,
                item.point.cache.label,
                algorithm_name(item.point.algorithm),
                std::to_string(item.model_refs),
                std::to_string(sel.chosen.size()),
                std::to_string(sel.bytes_used), saved, pct,
                !item.replay_ran          ? "-"
                : item.replay.matches()   ? "ok"
                                          : "MISMATCH"});
  }
  return tp.str();
}

// -- driver -------------------------------------------------------------------

SweepDriver::SweepDriver(SweepOptions opts) : opts_(std::move(opts)) {
  if (opts_.threads < 1) opts_.threads = 1;
  grid_ = SweepGrid::expand(opts_.spec, opts_.pipeline);
}

SweepReport SweepDriver::run(const std::vector<SweepJob>& jobs) const {
  DiscardBuf discard;
  std::ostream sink(&discard);
  SweepReport report;
  (void)run_ndjson(jobs, sink, nullptr, &report);
  return report;
}

util::Status SweepDriver::run_ndjson(const std::vector<SweepJob>& jobs,
                                     std::ostream& out,
                                     const SweepCheckpoint* resume,
                                     SweepReport* collect) const {
  FORAY_CHECK(resume == nullptr || collect == nullptr,
              "a sweep collector cannot be combined with a resume "
              "checkpoint: cached points have no item");
  std::vector<std::string> names;
  for (const auto& job : jobs) names.push_back(job.name);
  const std::string header = header_line(grid_, names);
  if (resume != nullptr && resume->header != header) {
    // Header equality is the grid/job-list fingerprint: a journal from a
    // different spec, program set or job order must not be stitched into
    // this run.
    return util::Status::failure(
        util::ErrorCode::kInvalidInput, "sweep-resume", 0,
        "resume journal header does not match this sweep's grid and "
        "job list");
  }
  if (collect != nullptr) {
    *collect = SweepReport{};
    collect->grid = grid_;
    collect->programs = names;
    collect->items.resize(jobs.size() * grid_.points_per_job());
    collect->results.resize(jobs.size());
    collect->fronts.resize(jobs.size());
  }
  out << header << '\n';
  const SweepCheckpoint none;
  SweepExec exec(jobs, opts_, grid_, resume != nullptr ? *resume : none,
                 collect);
  return exec.write(out);
}

util::Status SweepDriver::parse_resume(std::string_view journal,
                                       SweepCheckpoint* out) const {
  *out = SweepCheckpoint{};
  const size_t per_job = grid_.points_per_job();
  const auto bad = [](int line_no, const std::string& msg) {
    return util::Status::failure(util::ErrorCode::kInvalidInput,
                                 "sweep-resume", line_no, msg);
  };
  int line_no = 0;
  const std::vector<std::string_view> lines = util::split(journal, '\n');
  for (size_t li = 0; li < lines.size(); ++li) {
    const std::string_view line = lines[li];
    ++line_no;
    if (util::trim(line).empty()) continue;
    util::JsonValue v;
    std::string err;
    if (!util::parse_json(line, &v, &err)) {
      // A torn final line is the expected shape of a journal cut off by
      // a crash or sink failure; anything torn *before* the end is a
      // corrupt journal, not a checkpoint.
      if (li + 1 >= lines.size() ||
          (li + 2 == lines.size() && util::trim(lines[li + 1]).empty())) {
        break;
      }
      return bad(line_no, "corrupt journal line: " + err);
    }
    const util::JsonValue* kind = v.find("kind");
    if (kind == nullptr || !kind->is_string()) {
      return bad(line_no, "journal line has no kind");
    }
    if (kind->str == "sweep") {
      if (!out->header.empty()) {
        return bad(line_no, "journal has more than one header line");
      }
      out->header = std::string(line);
      const util::JsonValue* programs = v.find("programs");
      if (programs == nullptr || !programs->is_array()) {
        return bad(line_no, "journal header has no programs array");
      }
      for (const util::JsonValue& p : programs->items) {
        if (!p.is_string()) {
          return bad(line_no, "journal header programs must be strings");
        }
        out->programs.push_back(p.str);
      }
      out->points.resize(out->programs.size());
      for (auto& pts : out->points) pts.resize(per_job);
      continue;
    }
    if (kind->str != "point") continue;  // pareto lines are recomputed
    if (out->header.empty()) {
      return bad(line_no, "journal point line before the header");
    }
    const util::JsonValue* key = v.find("key");
    if (key == nullptr || !key->is_object()) {
      return bad(line_no, "point line has no key object");
    }
    // Key indices are checked before the cast: casting a fractional,
    // negative or huge double to size_t is wrong or undefined.
    PointKey k;
    const auto index_of = [&](const char* name, size_t limit, size_t* dst) {
      const util::JsonValue* f = key->find(name);
      if (!whole_below(f, static_cast<double>(limit))) return false;
      *dst = static_cast<size_t>(f->num);
      return true;
    };
    if (!index_of("job", out->programs.size(), &k.job)) {
      return bad(line_no, "point key job is not a job index of the header");
    }
    if (!index_of("capacity", grid_.capacities.size(), &k.capacity) ||
        !index_of("energy", grid_.energy_models.size(), &k.energy) ||
        !index_of("cache", grid_.caches.size(), &k.cache) ||
        !index_of("algorithm", grid_.algorithms.size(), &k.algorithm) ||
        !index_of("replay", grid_.replays.size(), &k.replay)) {
      return bad(line_no, "point key does not fit this sweep's grid");
    }
    const util::JsonValue* program = v.find("program");
    if (program == nullptr || !program->is_string() ||
        program->str != out->programs[k.job]) {
      return bad(line_no,
                 "point line's program is not the header's program for "
                 "its job");
    }
    const size_t flat = grid_.flat_index(k);
    const util::JsonValue* ok = v.find("ok");
    if (ok == nullptr || !ok->is_bool()) {
      return bad(line_no, "point line has no ok flag");
    }
    // Only clean successes are worth caching: failed rows are what
    // --resume exists to retry, and a replay-check mismatch is a failed
    // validation even though the solve succeeded.
    if (!ok->b) continue;
    const util::JsonValue* replay_check = v.find("replay_check");
    if (replay_check != nullptr) {
      const util::JsonValue* rok = replay_check->find("ok");
      if (rok == nullptr || !rok->is_bool() || !rok->b) continue;
    }
    const util::JsonValue* bytes = v.find("bytes_used");
    const util::JsonValue* saved = v.find("saved_nj");
    // A selection never uses more than its point's capacity.
    const double capacity = grid_.points[flat].capacity_bytes;
    if (!whole_below(bytes, capacity + 1.0) || saved == nullptr ||
        !saved->is_number()) {
      return bad(line_no,
                 "point line lacks a whole bytes_used within its capacity "
                 "or a saved_nj");
    }
    SweepCheckpoint::CachedPoint& c = out->points[k.job][flat];
    c.have = true;
    c.line = std::string(line);
    c.bytes = static_cast<uint64_t>(bytes->num);
    c.saved = saved->num;
  }
  if (out->header.empty()) {
    return bad(0, "journal has no sweep header line");
  }
  return {};
}

std::vector<SweepJob> SweepDriver::benchsuite_jobs() {
  std::vector<SweepJob> jobs;
  for (const auto& b : benchsuite::all_benchmarks()) {
    jobs.push_back(SweepJob{b.name, b.source});
  }
  return jobs;
}

}  // namespace foray::driver
