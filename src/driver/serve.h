// `foraygen serve`: a long-lived sweep service over NDJSON.
//
// One request per input line, one NDJSON response stream per request:
//
//   request  {"id":1,"axes":{"capacity":"1024,4096"},"program":"adpcm"}
//   ack      {"kind":"request","id":1,"programs":["adpcm"],"points":2}
//   body     the ordinary sweep NDJSON (header, point, pareto lines —
//            byte-identical to `foraygen sweep --ndjson` over the same
//            spec and jobs)
//   done     {"kind":"done","id":1,"ok":true}
//
// Request fields (all optional except `axes` may be empty):
//   id       number or string, echoed on the ack and done rows; rows for
//            an id-less request carry the input line number instead
//   axes     object: axis name -> comma-separated values, exactly the
//            strings `foraygen sweep --axis` accepts
//   program  one benchsuite kernel by name; "source" (+"name") sweeps an
//            inline MiniC program instead; absent = the whole benchsuite
//   threads  worker threads for this request, clamped to the server's
//            --threads
//   budget   {"max_steps":N,"max_records":N,"timeout_seconds":S} — per-
//            request execution bounds layered over the server defaults
// Any other field is refused as `unknown request field "<name>"`; there
// is no engine field, profiling always runs the bytecode VM.
//
// A malformed request never kills the loop: it produces a single done
// row with ok:false and the classified error. A request line longer than
// kMaxRequestBytes is refused the same way (invalid_input, phase
// "serve") without being buffered. Admission control bounds
// each request's grid (`ServeOptions::max_points`); a request over the
// cap is refused as resource_exhausted before any work runs. Every
// request gets its own sim::CancelToken, wired to the output stream: the
// moment a response write fails (client went away) the token trips and
// in-flight simulations die cooperatively at the next chunk boundary.
//
// Phase I models are reused across requests through the shared
// ModelCache — the whole point of serving: request 2 for the same
// program under the same profile options is pure Phase II. Transform
// replays are reused the same way through one ReplayMemo for the
// server's life: each distinct transformed program is simulated once,
// and a repeat replay costs emission plus the analytic lock. So are
// cache comparisons, through one CacheMemo: each (model, cache
// geometry) is simulated once, and a repeat only prices the kept counts
// under its energy model. Each of these keeps at most kMemoryEntries
// entries, least recently used evicted first.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string_view>

#include "driver/model_cache.h"
#include "driver/sweep.h"
#include "foray/pipeline.h"
#include "util/status.h"

namespace foray::driver {

/// The longest request line serve reads (the newline excluded). Longer
/// lines are skipped through their newline and answered with an error
/// row, so one request cannot make the server buffer without bound.
inline constexpr size_t kMaxRequestBytes = size_t{1} << 20;

struct ServeOptions {
  /// Worker-thread ceiling; each request may ask for fewer.
  int threads = 1;
  /// Server-side Phase I/II defaults (filter, budgets); requests
  /// layer axes and budget overrides on top.
  core::PipelineOptions pipeline;
  /// Per-request grid-size cap (jobs x points); 0 = unlimited.
  uint64_t max_points = 4096;
  /// Shared across requests (not owned; may be null for no caching).
  ModelCache* model_cache = nullptr;
  /// Shared across requests (not owned). Null: serve_loop keeps its own
  /// for its whole life.
  ReplayMemo* replay_memo = nullptr;
  /// Shared across requests (not owned), like replay_memo: each (model,
  /// cache geometry) a request compares is simulated once per server.
  CacheMemo* cache_memo = nullptr;
  /// Static cost-bound admission (`--static-admission`): run the
  /// staticforay checker over each requested program and refuse the
  /// request — resource_exhausted, phase "lint-admission", before any
  /// Phase I work or response row — when a program's *minimum* static
  /// step or record bound already exceeds the request's effective budget
  /// (server defaults + the request's "budget" overrides). Programs the
  /// frontend rejects are not refused here: the normal sweep path
  /// classifies them, so admitted requests stream byte-identical
  /// responses whether this flag is on or off. A server lints each
  /// distinct source once and keeps at most kMemoryEntries verdicts
  /// (StaticVerdictMemo); every request's own budget is still checked
  /// against the kept bounds.
  bool static_admission = false;
};

/// The static verdicts of the sources a server has linted, keyed by the
/// source hash ModelCache::key trusts: at most kMemoryEntries of them,
/// least recently used evicted first. serve_loop keeps one for its whole
/// life.
class StaticVerdictMemo {
 public:
  /// The verdict for `source`, linting it only when it is not kept.
  const StaticVerdict& verdict(std::string_view source);
  size_t size() const { return verdicts_.size(); }
  /// Sources linted so far (misses).
  uint64_t lints() const { return lints_; }

 private:
  LruMap<uint64_t, StaticVerdict> verdicts_{kMemoryEntries};
  uint64_t lints_ = 0;
};

/// Runs the request loop until `in` reaches EOF (ok) or `out` stops
/// accepting bytes (kIoError, phase "serve" — the client disconnected).
/// Per-request failures are reported on their done rows, never returned.
util::Status serve_loop(std::istream& in, std::ostream& out,
                        const ServeOptions& opts);

}  // namespace foray::driver
