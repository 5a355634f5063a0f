// One program's journey through the Phase I pipeline.
//
// A Session owns the source text, the options and every Phase I artifact
// for a single MiniC program, so the sweep driver and the bench binaries
// share one code path for running it and classifying its failures.
// Phase II does not happen here: the sweep driver (driver/sweep.h) solves
// every grid point over the session's model — `foraygen spm` included, as
// a one-point sweep. Sessions are single-threaded objects; the sweep
// driver gives each job its own.
#pragma once

#include <string>

#include "foray/pipeline.h"
#include "util/status.h"

namespace foray::driver {

struct SessionOptions {
  /// Phase I configuration (engine, profiling mode, filter).
  core::PipelineOptions pipeline;
};

class Session {
 public:
  Session(std::string name, std::string source, SessionOptions opts = {});

  const std::string& name() const { return name_; }
  const SessionOptions& options() const { return opts_; }

  /// Runs every Phase I phase (Frontend..Extract). Idempotent: later
  /// calls return the stored status without re-running. Internal errors
  /// (FORAY_CHECK) are converted into a failed Status rather than
  /// escaping, so one broken session never takes down a batch.
  const util::Status& run();

  /// Installs a previously-extracted model (a model-cache hit) instead of
  /// running Phase I. The session becomes ran() with an ok status and
  /// model_built; the simulator-side artifacts (run counters, trace,
  /// extractor) stay empty. Only legal before run().
  void adopt_model(core::ForayModel model);

  bool ran() const { return ran_; }
  const util::Status& status() const { return result_.status; }
  const core::PipelineResult& result() const { return result_; }

  /// Moves the result out, for callers whose artifacts outlive the
  /// session (bench_util). The session stays ran() but holds an empty
  /// result afterwards.
  core::PipelineResult take_result() { return std::move(result_); }

 private:
  std::string name_;
  std::string source_;
  SessionOptions opts_;
  core::PipelineResult result_;
  bool ran_ = false;
};

}  // namespace foray::driver
