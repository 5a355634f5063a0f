// Address-stream generation from a FORAY model.
//
// Replays a model reference's (emitted) loop nest in lexicographic order
// and produces the exact address sequence its affine function describes.
// The cache comparison consumes a model's stream folded
// (for_each_address_folded); tests use the streams to check that an
// extracted model reproduces the simulator-observed addresses.
//
// The visitors are templates: the callback is a deduced functor invoked
// directly inside the odometer sweep, so a lambda over CacheSim::access
// (or a counter) inlines into the loop — the streams replay at memory
// bandwidth instead of paying a std::function indirection per address.
// Each reference carries its running address and adds one precomputed
// step per odometer advance, so no address is re-evaluated from its
// affine function.
#pragma once

#include <cstdint>
#include <vector>

#include "foray/model.h"

namespace foray::spm {

namespace internal {

/// What advancing loop L of a nest — and resetting every loop inside it —
/// adds to one reference's address: coef_L - sum over k > L of
/// coef_k * (trip_k - 1). Unsigned, so the running address wraps exactly
/// where a direct 64-bit evaluation would and its low 32 bits agree.
inline std::vector<uint64_t> odometer_steps(
    const std::vector<int64_t>& trips, const std::vector<int64_t>& coefs) {
  std::vector<uint64_t> step(trips.size());
  uint64_t rewind = 0;
  for (size_t l = trips.size(); l-- > 0;) {
    const auto coef = static_cast<uint64_t>(coefs[l]);
    step[l] = coef - rewind;
    rewind += coef * (static_cast<uint64_t>(trips[l]) - 1);
  }
  return step;
}

/// One loop nest walked by refs = addr.size() references, interleaved.
struct Nest {
  std::vector<int64_t> trips;  ///< walked trips, outermost first
  std::vector<uint64_t> addr;  ///< each reference's first address
  std::vector<uint64_t> steps;  ///< steps[L * refs + r]: odometer_steps
  /// Per level, how many more times the consumer books the level's second
  /// walked iteration (its trip was cut to 2); empty or 0: no fold.
  std::vector<uint64_t> extra;
};

/// The nests of `model`, one per core::group_by_nest() group and in its
/// order, so the stream interleaves as the emitted program runs. With
/// `fold`, each level of trip t > 2 whose coefficient is 0 for every
/// reference of its nest is walked twice and carries extra t - 2.
std::vector<Nest> model_nests(const core::ForayModel& model, bool fold);

/// Odometer sweep over one nest. Per iteration, innermost loop fastest,
/// each reference emits fn(its address) in order; between iterations
/// every address moves by its step for the loop that advanced instead of
/// being re-evaluated. At a folded level, mark() comes right before its
/// second walked iteration and repeat(extra) right after it. Returns the
/// iteration count walked.
template <class Fn, class Mark, class Repeat>
uint64_t sweep(const Nest& nest, Fn&& fn, Mark&& mark, Repeat&& repeat) {
  const std::vector<int64_t>& trips = nest.trips;
  for (int64_t t : trips) {
    if (t <= 0) return 0;
  }
  std::vector<uint64_t> addr = nest.addr;
  const size_t n = trips.size();
  const size_t refs = addr.size();
  const auto emit = [&] {
    for (uint64_t a : addr) fn(static_cast<uint32_t>(a));
  };
  if (n == 0) {
    emit();
    return 1;
  }
  const auto extra = [&nest](size_t l) -> uint64_t {
    return nest.extra.empty() ? 0 : nest.extra[l];
  };
  const int64_t inner_trip = trips[n - 1];
  const uint64_t inner_extra = extra(n - 1);
  const uint64_t* inner = &nest.steps[(n - 1) * refs];
  std::vector<int64_t> it(n - 1, 0);
  uint64_t count = 0;
  for (;;) {
    if (inner_extra != 0) {
      // A folded innermost level moves no address: emit, emit again.
      emit();
      mark();
      emit();
      repeat(inner_extra);
    } else {
      for (int64_t k = 1;; ++k) {
        emit();
        if (k == inner_trip) break;
        for (size_t r = 0; r < refs; ++r) addr[r] += inner[r];
      }
    }
    count += static_cast<uint64_t>(inner_trip);
    // Carry into the innermost outer loop that has iterations left,
    // closing the second walk of every folded level carried out of.
    size_t i = n - 1;
    for (;;) {
      if (i == 0) return count;
      --i;
      if (++it[i] < trips[i]) break;
      it[i] = 0;
      if (const uint64_t e = extra(i); e != 0) repeat(e);
    }
    if (it[i] == 1 && extra(i) != 0) mark();
    const uint64_t* step = &nest.steps[i * refs];
    for (size_t r = 0; r < refs; ++r) addr[r] += step[r];
  }
}

}  // namespace internal

/// Invokes `fn(addr)` for every access of `ref`'s emitted nest, in
/// iteration order (outermost slowest). Returns the number of addresses
/// produced (product of emitted trips).
template <class Fn>
uint64_t for_each_address(const core::ModelReference& ref, Fn&& fn) {
  internal::Nest nest;
  nest.trips = ref.emitted_trips();
  nest.addr = {static_cast<uint64_t>(ref.fn.const_term)};
  nest.steps = internal::odometer_steps(nest.trips, ref.emitted_coefs());
  return internal::sweep(nest, fn, [] {}, [](uint64_t) {});
}

/// Interleaved stream over all references of a model that share a nest:
/// per innermost iteration, each reference of the group emits one
/// address, mirroring how the emitted program executes. Nests follow one
/// another in order of first appearance. Returns the total accesses
/// produced.
template <class Fn>
uint64_t for_each_address(const core::ForayModel& model, Fn&& fn) {
  uint64_t total = 0;
  for (const internal::Nest& nest : internal::model_nests(model, false)) {
    total += nest.addr.size() *
             internal::sweep(nest, fn, [] {}, [](uint64_t) {});
  }
  return total;
}

/// for_each_address(model, fn) with every repeated iteration folded.
///
/// Take one iteration X of a loop level that moves no reference of its
/// nest (every coefficient 0) and has trip t > 2: all t runs of X emit the
/// same addresses. This walk runs X twice, calling mark() before the
/// second run and repeat(t - 2) after it, and skips the other t - 2 runs;
/// the consumer books what it saw between the two calls t - 2 more times.
/// Folds nest: a folded level inside X folds within each run of X, so
/// marks and repeats pair up like brackets. For an LRU cache the booking
/// is exact (spm/cache_sim.h): from its second run on, X hits and misses
/// the same way every time and leaves the cache as it found it. Returns
/// the number of addresses walked, not the full stream's.
template <class Fn, class Mark, class Repeat>
uint64_t for_each_address_folded(const core::ForayModel& model, Fn&& fn,
                                 Mark&& mark, Repeat&& repeat) {
  uint64_t walked = 0;
  for (const internal::Nest& nest : internal::model_nests(model, true)) {
    walked += nest.addr.size() * internal::sweep(nest, fn, mark, repeat);
  }
  return walked;
}

/// Materializes the (possibly large) stream of one reference.
std::vector<uint32_t> addresses_of(const core::ModelReference& ref,
                                   uint64_t limit = 1u << 22);

}  // namespace foray::spm
