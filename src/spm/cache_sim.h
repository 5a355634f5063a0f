// Set-associative LRU cache simulator.
//
// The comparison substrate for the SPM argument (Banakar et al. — the
// paper's reference [1] — motivates SPMs by their energy advantage over
// caches). Benches feed FORAY-model address streams through this cache
// and through the SPM configuration and compare energy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spm/energy.h"

namespace foray::spm {

struct CacheConfig {
  uint32_t size_bytes = 4096;
  uint32_t line_bytes = 32;
  int assoc = 2;
};

/// Most cache lines (sets x ways) one simulation may hold. A compile-time
/// bound, not an option: it caps the simulator's table at 8 MiB whatever
/// capacity a sweep or serve request asks for.
inline constexpr uint64_t kMaxCacheLines = uint64_t{1} << 20;

/// Why `cfg` cannot be simulated, naming the geometry; empty when it can.
/// The size must be whole sets (size == sets x line x ways) with a power
/// of two line size and set count, and hold at most kMaxCacheLines lines.
/// CacheSim's constructor enforces the same rules as internal checks;
/// callers fed user geometries check here first.
std::string cache_geometry_error(const CacheConfig& cfg);

/// Energy of `hits` + `misses` accesses to a cache of geometry `cfg`:
/// every access pays the cache lookup; every miss additionally fetches a
/// full line from main memory. Counts simulated once can be priced under
/// any number of energy models.
double cache_energy_nj(const CacheConfig& cfg, uint64_t hits,
                       uint64_t misses, const EnergyModel& e);

/// Exact LRU. Each set keeps its ways in recency order, most recent
/// first, so a hit on the MRU way costs one compare and any other access
/// shifts the ways it passes down by one — the last way is the LRU
/// victim. A way stores block + 1 (64-bit), so 0 means empty and no real
/// block, the 2^32-1 of a one-byte line included, collides with it.
///
/// Inclusion under set refinement (Mattson et al. 1970; Hill & Smith
/// 1989): a set's MRU way holds the block of the last access mapped to
/// that set. With bit selection and power-of-two set counts, every block
/// that maps to set b mod S' of an S'-set cache also maps to set b mod S
/// of an S-set cache of the same line size when S divides S'. So if b is
/// MRU in the coarser set, no access to the finer set came after b's, and
/// b is MRU there too, whatever either cache's associativity. A caller
/// simulating several caches of one line size on one stream can walk them
/// from the fewest sets to the most and stop at the first where is_mru
/// holds: that cache and every finer one hit and keep their tables, and
/// credit_hits books those hits in bulk.
///
/// Repeated runs reach a fixed point (the same stack-distance argument):
/// a run of an access sequence X leaves each set holding the blocks X
/// touched there, most recently used first, then the blocks it held
/// before that X did not touch, in their old order, cut to the number of
/// ways. Run X twice in a row: the second run starts from that state and
/// leaves it again, since the blocks X does not touch are the same ones.
/// So a third run, and any after, starts from the state the second run
/// started from, hits and misses exactly like the second and changes
/// nothing. A caller that knows X repeats t times can simulate two runs
/// and book the second's hits and misses t - 2 more times with
/// credit_hits and credit_misses (spm::for_each_address_folded).
class CacheSim {
 public:
  explicit CacheSim(const CacheConfig& cfg);

  /// Simulates one access; returns true on hit.
  bool access(uint32_t addr) {
    const uint32_t block = addr >> line_shift_;
    const uint64_t key = uint64_t{block} + 1;
    uint64_t* way = &ways_[static_cast<size_t>(block & set_mask_) * assoc_];
    if (way[0] == key) {
      ++hits_;
      return true;
    }
    // Move `key` to the front, shifting each way it passes down by one,
    // up to its old slot on a hit or off the LRU end on a miss.
    uint64_t carry = way[0];
    way[0] = key;
    for (uint32_t w = 1; w < assoc_; ++w) {
      const uint64_t held = way[w];
      way[w] = carry;
      if (held == key) {
        ++hits_;
        return true;
      }
      carry = held;
    }
    ++misses_;
    return false;
  }

  /// True when `addr`'s block is the MRU way of its set: access(addr)
  /// would hit and leave the table unchanged.
  bool is_mru(uint32_t addr) const {
    const uint32_t block = addr >> line_shift_;
    return ways_[static_cast<size_t>(block & set_mask_) * assoc_] ==
           uint64_t{block} + 1;
  }

  /// Books `n` hits that is_mru proved without simulating them.
  void credit_hits(uint64_t n) { hits_ += n; }
  /// Books `n` misses of accesses known to repeat ones already simulated
  /// (the fixed point above), without simulating them.
  void credit_misses(uint64_t n) { misses_ += n; }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t accesses() const { return hits_ + misses_; }
  double hit_rate() const {
    return accesses() ? static_cast<double>(hits_) / accesses() : 0.0;
  }

  /// Total energy of the accesses so far (cache_energy_nj).
  double energy_nj(const EnergyModel& e) const;

  const CacheConfig& config() const { return cfg_; }
  void reset();

 private:
  CacheConfig cfg_;
  uint32_t line_shift_ = 0;
  uint32_t set_mask_ = 0;
  uint32_t assoc_ = 0;
  std::vector<uint64_t> ways_;  ///< sets * assoc, row-major by set, MRU first
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace foray::spm
