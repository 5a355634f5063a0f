// Named fault-injection points.
//
// Robustness claims ("a sink I/O error yields a clean io_error row and a
// resumable journal") are only testable if the failure can actually be
// made to happen. This registry provides named sites compiled into the
// production binary but costing a single relaxed atomic load when no
// fault is armed; tests (fault::configure) and the CLI's --fault flag
// arm them.
//
// A spec is a comma- or semicolon-separated list of site triggers:
//
//   site[:skip=N][:count=M][:param=P]
//
//   skip   fire only after the site has been hit N times (default 0)
//   count  fire at most M times, then disarm (default unlimited)
//   param  integer payload the site interprets (e.g. sleep millis)
//
// e.g. --fault sweep.sink.io:skip=2:count=1 fails the third sink write
// and nothing else. Unknown site names are configuration errors —
// a typo must not silently inject nothing.
//
// Most sites count hits in arrival order, which is deterministic only
// while one thread reaches them in a fixed order. "sim.slow" is
// consulted at every budget check of every simulated program, so when
// several workers simulate at once, which check takes a trigger depends
// on scheduling: it is deterministic at one thread only. A keyed site
// is consulted with hit_at() and the ordinal of its event in an order
// the caller fixes, so skip and count name the same events at any
// thread count. "spm.solve" is keyed by the solve group's grid
// position: its ordinal counts a sweep's solve groups job-major, then
// by capacity, then by energy index — the order a one-thread sweep
// solves them. Groups that never solve (their job failed Phase I, or
// the resume journal holds all their points) keep their ordinals. Each
// sweep counts from 0, and so does each request of a server.
//
// Sites are consulted at chunk/solve frequency, never per record or per
// instruction, so arming a fault does not change hot-loop codegen.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace foray::util::fault {

/// The outcome of consulting a site: whether the fault fires now, and
/// the armed trigger's integer payload.
struct Hit {
  bool fired = false;
  uint64_t param = 0;
};

/// True when any site is armed (one relaxed atomic load — the only cost
/// paid on unfaulted runs). Callers gate their hit() calls on this.
bool enabled();

/// Consults a site, consuming one trigger when it fires. Thread-safe.
/// FORAY_CHECKs that `site` names a registered site.
Hit hit(std::string_view site);

inline bool should_fail(std::string_view site) { return hit(site).fired; }

/// Consults a keyed site for the event numbered `ordinal`: fires when
/// skip <= ordinal < skip + count (ordinal >= skip when count is
/// unlimited). Consumes nothing, so the answer depends on the ordinal
/// alone, never on which thread asks first. Thread-safe. FORAY_CHECKs
/// that `site` names a registered site.
Hit hit_at(std::string_view site, uint64_t ordinal);

/// Every registered site name, in a stable order — the fault-injection
/// test iterates this to prove each site has coverage.
std::vector<std::string> all_sites();

/// Arms sites from a spec string (see the header comment). Replaces any
/// previous configuration. Returns invalid_input on bad syntax or an
/// unknown site name.
Status configure(std::string_view spec);

/// Disarms every site (tests call this in teardown).
void reset();

}  // namespace foray::util::fault
