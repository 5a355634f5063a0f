// The benchmark's three workloads. Each drives the production entry
// points — driver::SweepDriver::run_ndjson in process, or the
// `foraygen serve` binary as a child over pipes — in a closed loop with
// one client: an operation starts only after the previous one ended.
//
//   cold_sweep  one op = the six benchsuite kernels x capacity
//               {1024,4096,16384}, fresh SweepDriver, no model cache
//   warm_dse    one op = the six kernels x a 960-point grid (8 capacities
//               x 5 energy presets x cache {off,32x2} x {dp,greedy})
//               against an in-memory ModelCache filled in set-up
//   serve_mix   one op = one request to `foraygen serve --threads 2
//               --static-admission`, from a stream the seed shuffles:
//               benchsuite hits, fresh generated sources, replay points,
//               refusals
//
// For the traced run every workload also re-drives its operation at one
// thread, calling each layer's public function itself inside a span.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "tracer.h"

namespace perfbench {

/// Worker threads of every measured operation. The box this was sized
/// on has 4 hardware threads whose effective parallelism neighbours
/// move between ~1.25x and ~3.2x; two workers stay inside that range.
constexpr int kThreads = 2;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  std::string foraygen;  ///< the foraygen binary (serve_mix)
  std::string self;      ///< this binary (reference subprocesses)
  std::string out_dir;   ///< logs, run records and span files
};

/// Work counted at layer boundaries during one traced operation, keyed
/// by per-layer metric name.
using Counters = std::map<std::string, double>;

struct OpResult {
  double wall_s = 0.0;
  /// CPU time, all threads, of the process doing the work during the op:
  /// this one for cold_sweep and warm_dse, the server for serve_mix.
  double cpu_s = 0.0;
  bool ok = true;  ///< output check passed
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds inputs, fills caches, starts and primes servers and computes
  /// reference outputs. False when set-up itself failed.
  virtual bool setup() = 0;
  /// One operation at kThreads through the production path, checked.
  virtual OpResult run_op(uint64_t i) = 0;
  /// Ends the run: output checks that were deferred past the measured
  /// window, and shutdown. Returns the operations found wrong there.
  virtual uint64_t finish() { return 0; }
  /// Peak resident set of the process doing the work, MiB (after finish).
  virtual double peak_rss_mb() = 0;
  /// CPU time used so far by a child the workload keeps running (the
  /// serve_mix server); children already waited for are not counted here.
  virtual double server_cpu_s() { return 0.0; }

  // -- traced run ---------------------------------------------------------

  /// Operation `i` through the production path at one thread, checked.
  virtual OpResult run_op_single(uint64_t i) = 0;
  /// Operation `i` re-driven layer call by layer call, one span each.
  virtual void trace_op(uint64_t i, Tracer& t, Counters& c) = 0;
  /// Phase I of the programs the last trace_op profiled, split into the
  /// calls the fused path hides (compile, run into a materialized trace,
  /// extraction alone). Runs outside the operation's span.
  virtual void probe_op(Tracer& t) = 0;
};

/// Null when `cfg.workload` names no workload.
std::unique_ptr<Workload> make_workload(const RunConfig& cfg);

/// The reference subprocess: writes `workload`'s reference NDJSON at
/// `seed` to stdout. Returns the process exit code.
int emit_reference(const std::string& workload, uint64_t seed);

}  // namespace perfbench
