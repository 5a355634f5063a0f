// Interval arithmetic and saturating static cost bounds for the MiniC
// checker (staticforay/checker.h).
//
// Interval models the engines' value semantics soundly: expression
// temporaries are exact int64 (sim/value.h), narrowing to the declared
// width happens only where the engines convert (stores, casts, compound
// assignment, parameter binding). Every operation here returns a
// superset of the concretely reachable values; top() — the full int64
// range — is always a sound answer, so precision is best-effort and
// correctness never depends on it.
//
// StaticCost carries whole-program bounds on executed steps and emitted
// trace records, in saturating uint64 arithmetic where kUnbounded (the
// max value) means "no finite bound". Upper bounds dominate both engines;
// lower bounds hold for runs that complete without faulting. Records are
// counted as the record budget counts them, the elided ones of the fused
// pass included; only sim::RunOptions::replay_view, which the transform
// replay sets on its own generated program, counts fewer (its loop entry
// and exit checkpoints and Data accesses, no Scalar or System access,
// Call/Ret or body checkpoint), so these bounds stay upper bounds there.
// That is exactly the reading serve admission needs ("this request
// cannot finish inside its record budget").
#pragma once

#include <cstdint>
#include <string>

namespace foray::staticforay {

/// Saturation point for cost arithmetic: "unbounded" / no finite bound.
inline constexpr uint64_t kUnbounded = ~0ull;

uint64_t sat_add(uint64_t a, uint64_t b);
uint64_t sat_mul(uint64_t a, uint64_t b);

// ---------------------------------------------------------------------------
// Intervals over int64 (inclusive ends). There is no empty interval:
// unreachability is tracked by the checker's abstract state, not here.

struct Interval {
  int64_t lo = 0;
  int64_t hi = 0;

  static Interval top();
  static Interval singleton(int64_t v) { return {v, v}; }
  static Interval range(int64_t l, int64_t h) { return {l, h}; }

  bool is_top() const;
  bool is_singleton() const { return lo == hi; }
  bool contains(int64_t v) const { return lo <= v && v <= hi; }
  bool contains_zero() const { return contains(0); }
  /// Exactly [0, 0] — the "provably zero" test behind must-fault
  /// division diagnostics.
  bool is_zero() const { return lo == 0 && hi == 0; }
  bool nonneg() const { return lo >= 0; }

  bool operator==(const Interval& o) const { return lo == o.lo && hi == o.hi; }

  std::string str() const;
};

/// Least upper bound (convex hull).
Interval iv_join(const Interval& a, const Interval& b);
/// Standard widening: any end that grew jumps straight to the int64
/// extreme, guaranteeing loop-head fixpoints terminate in O(1) passes.
Interval iv_widen(const Interval& prev, const Interval& next);
/// Intersection. Returns false (and leaves *out* untouched) when empty.
bool iv_meet(const Interval& a, const Interval& b, Interval* out);

// Sound transfer functions for the engines' int64 operator semantics.
// Division/modulo assume the caller has separately handled the zero
// divisor (the engines fault before producing a value).
Interval iv_add(const Interval& a, const Interval& b);
Interval iv_sub(const Interval& a, const Interval& b);
Interval iv_mul(const Interval& a, const Interval& b);
Interval iv_div(const Interval& a, const Interval& b);
Interval iv_mod(const Interval& a, const Interval& b);
Interval iv_neg(const Interval& a);
Interval iv_bitnot(const Interval& a);
Interval iv_bitand(const Interval& a, const Interval& b);
Interval iv_bitor(const Interval& a, const Interval& b);
Interval iv_bitxor(const Interval& a, const Interval& b);
/// a << (b & 63) and a >> (b & 63), as both engines evaluate them.
Interval iv_shl(const Interval& a, const Interval& b);
Interval iv_shr(const Interval& a, const Interval& b);
Interval iv_abs(const Interval& a);

/// The engines' convert_value() narrowing for a store/cast to an integer
/// type of `size_bytes` (1 = char, 2 = short, 4 = int). Values already
/// inside the type's range pass through unchanged; anything else may wrap
/// and yields the full type range.
Interval iv_truncate(const Interval& v, int size_bytes);
/// The full value range of an integer type of `size_bytes`.
Interval iv_type_range(int size_bytes);

// ---------------------------------------------------------------------------
// Static cost bounds.

/// Bounds on a program fragment's executed simulator steps and emitted
/// trace records. `max_*` dominate both engines on every execution;
/// `min_*` under-approximate any fault-free completed run with default
/// tracing options. `exact` is set when control flow is fully determined
/// and min == max for records (step counts are engine-dependent, so they
/// are never exact).
struct StaticCost {
  uint64_t max_steps = 0;
  uint64_t max_records = 0;
  uint64_t min_steps = 0;
  uint64_t min_records = 0;
  bool exact = true;

  bool bounded() const {
    return max_steps != kUnbounded && max_records != kUnbounded;
  }
  std::string str() const;
};

/// Renders a bound for messages/JSON: digits, or "unbounded".
std::string cost_bound_str(uint64_t v);

}  // namespace foray::staticforay
