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

/// Why `cfg` cannot be simulated (line size not 2^k, no ways, smaller
/// than one set, or a set count not 2^k), naming the geometry; empty when
/// it can. CacheSim's constructor enforces the same rules as internal
/// checks; callers fed user geometries check here first.
std::string cache_geometry_error(const CacheConfig& cfg);

/// Energy of `hits` + `misses` accesses to a cache of geometry `cfg`:
/// every access pays the cache lookup; every miss additionally fetches a
/// full line from main memory. Counts simulated once can be priced under
/// any number of energy models.
double cache_energy_nj(const CacheConfig& cfg, uint64_t hits,
                       uint64_t misses, const EnergyModel& e);

class CacheSim {
 public:
  explicit CacheSim(const CacheConfig& cfg);

  /// Simulates one access; returns true on hit.
  bool access(uint32_t addr);

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
  struct Line {
    uint32_t tag = 0;
    bool valid = false;
    uint64_t lru = 0;  ///< last-use stamp
  };

  CacheConfig cfg_;
  uint32_t num_sets_;
  std::vector<Line> lines_;  ///< sets * assoc, row-major by set
  uint64_t stamp_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace foray::spm
