#include "staticforay/cost.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace foray::staticforay {

namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

/// Clamps a __int128 back into int64.
int64_t clamp128(__int128 v) {
  if (v < static_cast<__int128>(kMin)) return kMin;
  if (v > static_cast<__int128>(kMax)) return kMax;
  return static_cast<int64_t>(v);
}

/// True when the exact value fits int64 (no clamping needed).
bool fits64(__int128 v) {
  return v >= static_cast<__int128>(kMin) && v <= static_cast<__int128>(kMax);
}

}  // namespace

uint64_t sat_add(uint64_t a, uint64_t b) {
  uint64_t s = a + b;
  return s < a ? kUnbounded : s;
}

uint64_t sat_mul(uint64_t a, uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a == kUnbounded || b == kUnbounded) return kUnbounded;
  if (a > kUnbounded / b) return kUnbounded;
  return a * b;
}

Interval Interval::top() { return {kMin, kMax}; }

bool Interval::is_top() const { return lo == kMin && hi == kMax; }

std::string Interval::str() const {
  if (is_top()) return "[-inf, inf]";
  std::string s = "[";
  s += std::to_string(lo);
  s += ", ";
  s += std::to_string(hi);
  s += ']';
  return s;
}

Interval iv_join(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval iv_widen(const Interval& prev, const Interval& next) {
  Interval w = prev;
  if (next.lo < prev.lo) w.lo = kMin;
  if (next.hi > prev.hi) w.hi = kMax;
  return w;
}

bool iv_meet(const Interval& a, const Interval& b, Interval* out) {
  int64_t lo = std::max(a.lo, b.lo);
  int64_t hi = std::min(a.hi, b.hi);
  if (lo > hi) return false;
  *out = {lo, hi};
  return true;
}

Interval iv_add(const Interval& a, const Interval& b) {
  __int128 lo = static_cast<__int128>(a.lo) + b.lo;
  __int128 hi = static_cast<__int128>(a.hi) + b.hi;
  // Engine addition wraps in int64; if the exact result range does not
  // fit, any int64 value is possible.
  if (!fits64(lo) || !fits64(hi)) return Interval::top();
  return {static_cast<int64_t>(lo), static_cast<int64_t>(hi)};
}

Interval iv_sub(const Interval& a, const Interval& b) {
  __int128 lo = static_cast<__int128>(a.lo) - b.hi;
  __int128 hi = static_cast<__int128>(a.hi) - b.lo;
  if (!fits64(lo) || !fits64(hi)) return Interval::top();
  return {static_cast<int64_t>(lo), static_cast<int64_t>(hi)};
}

Interval iv_mul(const Interval& a, const Interval& b) {
  __int128 c[4] = {static_cast<__int128>(a.lo) * b.lo,
                   static_cast<__int128>(a.lo) * b.hi,
                   static_cast<__int128>(a.hi) * b.lo,
                   static_cast<__int128>(a.hi) * b.hi};
  __int128 lo = c[0], hi = c[0];
  for (__int128 v : c) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!fits64(lo) || !fits64(hi)) return Interval::top();
  return {static_cast<int64_t>(lo), static_cast<int64_t>(hi)};
}

Interval iv_div(const Interval& a, const Interval& b) {
  // Candidate divisors: the ends of b plus the smallest-magnitude values
  // it contains (where quotients are most extreme), excluding zero.
  int64_t divs[4];
  int n = 0;
  auto add_div = [&](int64_t d) {
    if (d != 0 && d >= b.lo && d <= b.hi) divs[n++] = d;
  };
  add_div(b.lo);
  add_div(b.hi);
  add_div(1);
  add_div(-1);
  if (n == 0) return Interval::top();  // divisor provably 0: faults anyway
  __int128 lo = 0, hi = 0;
  bool first = true;
  for (int i = 0; i < n; ++i) {
    for (int64_t num : {a.lo, a.hi}) {
      __int128 q = static_cast<__int128>(num) / divs[i];
      if (first || q < lo) lo = q;
      if (first || q > hi) hi = q;
      first = false;
    }
  }
  // a may contain 0 between its ends; quotient 0 is then reachable.
  if (a.contains_zero()) {
    lo = std::min<__int128>(lo, 0);
    hi = std::max<__int128>(hi, 0);
  }
  if (!fits64(lo) || !fits64(hi)) return Interval::top();  // INT64_MIN / -1
  return {static_cast<int64_t>(lo), static_cast<int64_t>(hi)};
}

Interval iv_mod(const Interval& a, const Interval& b) {
  // |a % b| < max(|b|) and the sign follows the dividend (C++ semantics).
  __int128 m = std::max<__int128>(
      b.lo == kMin ? -static_cast<__int128>(kMin) : std::abs(b.lo),
      b.hi == kMin ? -static_cast<__int128>(kMin) : std::abs(b.hi));
  if (m == 0) return Interval::top();  // provably faults; value unused
  int64_t bound = clamp128(m - 1);
  int64_t lo = a.lo < 0 ? -bound : 0;
  int64_t hi = a.hi > 0 ? bound : 0;
  // |a % b| <= |a| as well.
  lo = std::max(lo, a.lo == kMin ? kMin : -std::max(std::abs(a.lo),
                                                    std::abs(a.hi)));
  if (a.lo >= 0) hi = std::min(hi, a.hi);
  return {lo, hi};
}

Interval iv_neg(const Interval& a) {
  if (a.lo == kMin) return Interval::top();  // -INT64_MIN wraps
  return {-a.hi, -a.lo};
}

Interval iv_bitnot(const Interval& a) {
  // ~x == -1 - x, exact and never overflowing.
  return {-1 - a.hi, -1 - a.lo};
}

Interval iv_bitand(const Interval& a, const Interval& b) {
  if (a.nonneg() || b.nonneg()) {
    // AND with a value in [0, X] yields a value in [0, X]; when both are
    // non-negative the tighter of the two ends applies.
    int64_t hi = kMax;
    if (a.nonneg()) hi = std::min(hi, a.hi);
    if (b.nonneg()) hi = std::min(hi, b.hi);
    return {0, hi};
  }
  if (a.hi < 0 && b.hi < 0) {
    // negative & negative: x&y = x + y - (x|y) >= x + y + 1.
    __int128 lo = static_cast<__int128>(a.lo) + b.lo + 1;
    return {clamp128(lo), std::min(a.hi, b.hi)};
  }
  return Interval::top();
}

Interval iv_bitor(const Interval& a, const Interval& b) {
  if (a.nonneg() && b.nonneg()) {
    // x|y <= x + y for non-negative operands; x|y >= max(x, y).
    __int128 hi = static_cast<__int128>(a.hi) + b.hi;
    return {std::max(a.lo, b.lo), clamp128(hi)};
  }
  return Interval::top();
}

Interval iv_bitxor(const Interval& a, const Interval& b) {
  if (a.nonneg() && b.nonneg()) {
    __int128 hi = static_cast<__int128>(a.hi) + b.hi;
    return {0, clamp128(hi)};
  }
  return Interval::top();
}

Interval iv_shl(const Interval& a, const Interval& b) {
  // The engines shift by (b & 63); a non-singleton or out-of-range shift
  // count makes the result effectively arbitrary.
  if (!b.is_singleton() || b.lo < 0 || b.lo > 62) return Interval::top();
  int s = static_cast<int>(b.lo);
  if (a.lo < 0) return Interval::top();
  if (s > 0 && a.hi > (kMax >> s)) return Interval::top();
  return {a.lo << s, a.hi << s};
}

Interval iv_shr(const Interval& a, const Interval& b) {
  if (b.is_singleton() && b.lo >= 0 && b.lo <= 63) {
    int s = static_cast<int>(b.lo);
    return {a.lo >> s, a.hi >> s};  // arithmetic shift is monotone
  }
  // Unknown shift amount in [0, 63]: the result stays between the
  // all-shifted (-1 or 0) and unshifted extremes.
  if (a.lo >= 0) return {0, a.hi};
  if (a.hi < 0) return {a.lo, -1};
  return {a.lo, a.hi};
}

Interval iv_abs(const Interval& a) {
  if (a.lo == kMin) return Interval::top();  // llabs(INT64_MIN) wraps
  int64_t lo = a.contains_zero() ? 0 : std::min(std::abs(a.lo),
                                                std::abs(a.hi));
  int64_t hi = std::max(std::abs(a.lo), std::abs(a.hi));
  return {lo, hi};
}

Interval iv_type_range(int size_bytes) {
  switch (size_bytes) {
    case 1: return {-128, 127};
    case 2: return {-32768, 32767};
    case 4: return {std::numeric_limits<int32_t>::min(),
                    std::numeric_limits<int32_t>::max()};
    default: return Interval::top();
  }
}

Interval iv_truncate(const Interval& v, int size_bytes) {
  Interval r = iv_type_range(size_bytes);
  if (v.lo >= r.lo && v.hi <= r.hi) return v;
  return r;
}

// ---------------------------------------------------------------------------

std::string cost_bound_str(uint64_t v) {
  return v == kUnbounded ? "unbounded" : std::to_string(v);
}

std::string StaticCost::str() const {
  std::string s = "steps<=" + cost_bound_str(max_steps) +
                  " records<=" + cost_bound_str(max_records);
  if (exact) s += " (exact records)";
  return s;
}

}  // namespace foray::staticforay
