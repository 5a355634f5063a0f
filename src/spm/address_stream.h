// Address-stream generation from a FORAY model.
//
// Replays a model reference's (emitted) loop nest in lexicographic order
// and produces the exact address sequence its affine function describes.
// The cache simulator consumes these streams; tests use them to check
// that an extracted model reproduces the simulator-observed addresses.
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

/// Odometer sweep over one nest (`trips` outermost-first) shared by
/// addr.size() references. Per iteration, innermost loop fastest, each
/// reference emits fn(its address) in order; between iterations every
/// address moves by its step for the loop that advanced (steps[L * refs
/// + r]) instead of being re-evaluated. Returns the iteration count.
template <class Fn>
uint64_t sweep(const std::vector<int64_t>& trips, std::vector<uint64_t> addr,
               const std::vector<uint64_t>& steps, Fn&& fn) {
  for (int64_t t : trips) {
    if (t <= 0) return 0;
  }
  const size_t n = trips.size();
  const size_t refs = addr.size();
  const auto emit = [&] {
    for (uint64_t a : addr) fn(static_cast<uint32_t>(a));
  };
  if (n == 0) {
    emit();
    return 1;
  }
  const int64_t inner_trip = trips[n - 1];
  const uint64_t* inner = &steps[(n - 1) * refs];
  std::vector<int64_t> it(n - 1, 0);
  uint64_t count = 0;
  for (;;) {
    for (int64_t k = 1;; ++k) {
      emit();
      if (k == inner_trip) break;
      for (size_t r = 0; r < refs; ++r) addr[r] += inner[r];
    }
    count += static_cast<uint64_t>(inner_trip);
    // Carry into the innermost outer loop that has iterations left.
    size_t i = n - 1;
    for (;;) {
      if (i == 0) return count;
      --i;
      if (++it[i] < trips[i]) break;
      it[i] = 0;
    }
    const uint64_t* step = &steps[i * refs];
    for (size_t r = 0; r < refs; ++r) addr[r] += step[r];
  }
}

}  // namespace internal

/// Invokes `fn(addr)` for every access of `ref`'s emitted nest, in
/// iteration order (outermost slowest). Returns the number of addresses
/// produced (product of emitted trips).
template <class Fn>
uint64_t for_each_address(const core::ModelReference& ref, Fn&& fn) {
  const std::vector<int64_t> trips = ref.emitted_trips();
  return internal::sweep(
      trips, {static_cast<uint64_t>(ref.fn.const_term)},
      internal::odometer_steps(trips, ref.emitted_coefs()), fn);
}

/// Interleaved stream over all references of a model that share a nest:
/// per innermost iteration, each reference of the group emits one
/// address, mirroring how the emitted program executes. Returns the
/// total accesses produced.
template <class Fn>
uint64_t for_each_address(const core::ForayModel& model, Fn&& fn) {
  // Group references by emitted nest, then sweep each group once with
  // all its references interleaved per iteration.
  struct Group {
    std::vector<int> path;
    std::vector<int64_t> trips;
    std::vector<size_t> refs;
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < model.refs.size(); ++i) {
    auto path = model.refs[i].emitted_loop_path();
    auto trips = model.refs[i].emitted_trips();
    bool placed = false;
    for (auto& g : groups) {
      if (g.path == path && g.trips == trips) {
        g.refs.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back(Group{std::move(path), trips, {i}});
  }

  uint64_t total = 0;
  for (const auto& g : groups) {
    const size_t refs = g.refs.size();
    std::vector<uint64_t> addr(refs);
    std::vector<uint64_t> steps(g.trips.size() * refs);
    for (size_t r = 0; r < refs; ++r) {
      const core::ModelReference& ref = model.refs[g.refs[r]];
      addr[r] = static_cast<uint64_t>(ref.fn.const_term);
      const std::vector<uint64_t> own =
          internal::odometer_steps(g.trips, ref.emitted_coefs());
      for (size_t l = 0; l < own.size(); ++l) steps[l * refs + r] = own[l];
    }
    total += static_cast<uint64_t>(refs) *
             internal::sweep(g.trips, std::move(addr), steps, fn);
  }
  return total;
}

/// Materializes the (possibly large) stream of one reference.
std::vector<uint32_t> addresses_of(const core::ModelReference& ref,
                                   uint64_t limit = 1u << 22);

}  // namespace foray::spm
