// One program's journey through the phase pipeline.
//
// A Session owns the source text, the options and every phase artifact
// for a single MiniC program, so the CLI, the bench binaries and the
// batch driver all share one code path instead of each hand-rolling
// run_pipeline + spm calls. Sessions are single-threaded objects; the
// sweep driver gives each worker its own.
#pragma once

#include <string>

#include "foray/pipeline.h"
#include "util/status.h"

namespace foray::driver {

struct SessionOptions {
  /// Full phase configuration (engine, profiling mode, filter, Phase II).
  core::PipelineOptions pipeline;
};

class Session {
 public:
  Session(std::string name, std::string source, SessionOptions opts = {});

  const std::string& name() const { return name_; }
  const SessionOptions& options() const { return opts_; }

  /// Runs every phase (Frontend..Extract, plus SpmPhase when
  /// options().pipeline.with_spm). Idempotent: later calls return the
  /// stored status without re-running. Internal errors (FORAY_CHECK) are
  /// converted into a failed Status rather than escaping, so one broken
  /// session never takes down a batch.
  const util::Status& run();

  /// Installs a previously-extracted model (a model-cache hit) instead of
  /// running Phase I. The session becomes ran() with an ok status and
  /// model_built, so resolve() works immediately; the simulator-side
  /// artifacts (run counters, trace, extractor) stay empty — from_cache()
  /// tells reporting code apart. Only legal before run().
  void adopt_model(core::ForayModel model);
  bool from_cache() const { return adopted_; }

  bool ran() const { return ran_; }
  const util::Status& status() const { return result_.status; }
  const core::PipelineResult& result() const { return result_; }

  /// Moves the result out, for callers whose artifacts outlive the
  /// session (bench_util). The session stays ran() but holds an empty
  /// result afterwards.
  core::PipelineResult take_result() { return std::move(result_); }

  /// Re-solves only the SpmPhase under arbitrary Phase II options —
  /// capacity, energy model, cache comparison, all of SpmPhaseOptions —
  /// reusing the Phase I artifacts (model extraction dominates the cost;
  /// the DSE is cheap). This is the per-point workhorse for capacity
  /// sweeps: one run() then one resolve() per configuration. The buffer
  /// candidates are memoized across resolves — they depend only on the
  /// model and opts.reuse, so back-to-back re-solves that vary capacity,
  /// energy or cache skip re-enumeration entirely. Requires a run() that
  /// built the model; a previous resolve's failure is cleared first, so
  /// status() afterwards reflects this point alone. Returns the
  /// refreshed report, which also replaces result().spm.
  ///
  /// `with_replay` additionally re-runs the transform-replay check for
  /// the new exact selection; the overload without it follows the
  /// session's pipeline options.
  const core::SpmReport& resolve(const core::SpmPhaseOptions& opts);
  const core::SpmReport& resolve(const core::SpmPhaseOptions& opts,
                                 bool with_replay);

  /// Capacity-only convenience: resolve() with only dse.spm_capacity
  /// changed.
  const core::SpmReport& rerun_spm(uint32_t capacity_bytes);

  /// Deterministic text report of the current SpmReport (empty when the
  /// SpmPhase has not run).
  std::string spm_report_text() const;

 private:
  std::string name_;
  std::string source_;
  SessionOptions opts_;
  core::PipelineResult result_;
  bool ran_ = false;
  bool adopted_ = false;  ///< model came from the cache, not a pipeline run
  /// Buffer candidates memoized across resolve() calls, with the reuse
  /// filter they were enumerated under (the only Phase II options they
  /// depend on besides the — immutable — model).
  std::vector<spm::BufferCandidate> candidates_;
  spm::ReuseOptions candidates_reuse_;
  bool candidates_valid_ = false;
};

}  // namespace foray::driver
