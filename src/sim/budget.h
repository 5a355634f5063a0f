// Execution budgets for simulated programs.
//
// User programs are not terminating-by-construction: a service that
// simulates them must be able to bound every run in steps, trace volume
// and wall-clock time, and to cancel it cooperatively. The budget is
// enforced at two frequencies chosen so the hot loops stay check-free:
//
//   max_steps            every instruction — but as a register-cached
//                        counter compare both engines already paid for
//   records / deadline / checked once per trace chunk's worth of
//   cancellation token    records by the shared TraceEmitter
//                         (sim/exec_common.h), elided records included
//
// Chunk-boundary checking means a run can overshoot a record or time
// budget by at most one chunk (RunOptions::chunk_records, default 1024
// records) — the documented "budget plus one chunk" contract. A program
// that emits no records (a pure spin loop) is caught by max_steps, which
// is why the step guard keeps a finite default.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace foray::sim {

/// Cooperative cancellation: the owner flips it, the engines observe it
/// at chunk boundaries and fault the run with ErrorCode::kCancelled.
/// Shared (thread-safe) between the controller and any number of runs.
class CancelToken {
 public:
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

struct Budget {
  /// Evaluation-step guard — the backstop that bounds even record-free
  /// spin loops. Trips as kResourceExhausted.
  uint64_t max_steps = 500'000'000;
  /// Trace records emitted (post-filter, counting records the fused
  /// pass elides) before the run faults as kResourceExhausted;
  /// 0 = unlimited.
  uint64_t max_records = 0;
  /// Wall-clock seconds from engine start before the run faults as
  /// kDeadlineExceeded; 0 = no deadline. Each simulation (including a
  /// replay re-run) starts its own clock, unless `clock_start` is set.
  double timeout_seconds = 0.0;
  /// When set, the deadline counts from here instead of from engine
  /// start: a phase that may simulate twice (Phase I's elision fallback)
  /// sets it once so the timeout bounds the phase, not each attempt.
  std::chrono::steady_clock::time_point clock_start{};
  /// Optional cancellation token; trips as kCancelled.
  std::shared_ptr<CancelToken> cancel;

  bool has_deadline() const { return timeout_seconds > 0.0; }
  /// The step guard the engines compare against; 0 means unlimited.
  uint64_t effective_max_steps() const {
    return max_steps == 0 ? UINT64_MAX : max_steps;
  }
  /// True when any chunk-boundary check (records/deadline/cancel) is
  /// active — the emitter skips all budget work otherwise.
  bool chunk_checked() const {
    return max_records != 0 || has_deadline() || cancel != nullptr;
  }
};

}  // namespace foray::sim
