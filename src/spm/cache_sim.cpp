#include "spm/cache_sim.h"

#include <bit>

#include "util/status.h"

namespace foray::spm {

namespace {
bool is_pow2(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }
}  // namespace

std::string cache_geometry_error(const CacheConfig& cfg) {
  const std::string geometry =
      std::to_string(cfg.size_bytes) + " B cache with " +
      std::to_string(cfg.line_bytes) + " B lines x " +
      std::to_string(cfg.assoc) + " ways: ";
  if (!is_pow2(cfg.line_bytes)) {
    return geometry + "line size is not a power of two";
  }
  if (cfg.assoc < 1) return geometry + "associativity is below 1";
  // 64-bit: a 2^31 B line times 2 ways must not wrap to a zero-byte set.
  const uint64_t set_bytes = uint64_t{cfg.line_bytes} * cfg.assoc;
  if (cfg.size_bytes < set_bytes) return geometry + "smaller than one set";
  if (cfg.size_bytes % set_bytes != 0) {
    return geometry + "not a whole number of " + std::to_string(set_bytes) +
           " B sets (size must be sets x line x ways)";
  }
  const uint64_t sets = cfg.size_bytes / set_bytes;
  if (!is_pow2(sets)) {
    return geometry + std::to_string(sets) + " sets, not a power of two";
  }
  const uint64_t lines = sets * cfg.assoc;
  if (lines > kMaxCacheLines) {
    return geometry + std::to_string(lines) + " lines, over the simulator's " +
           std::to_string(kMaxCacheLines) + "-line limit";
  }
  return "";
}

double cache_energy_nj(const CacheConfig& cfg, uint64_t hits,
                       uint64_t misses, const EnergyModel& e) {
  const double lookup = e.cache_access_nj(cfg.size_bytes, cfg.assoc);
  const double miss_fill =
      e.dram_nj * (static_cast<double>(cfg.line_bytes) / 4.0);
  return static_cast<double>(hits + misses) * lookup +
         static_cast<double>(misses) * miss_fill;
}

CacheSim::CacheSim(const CacheConfig& cfg) : cfg_(cfg) {
  const std::string why = cache_geometry_error(cfg);
  FORAY_CHECK(why.empty(), why);
  const uint32_t sets =
      cfg.size_bytes / (cfg.line_bytes * static_cast<uint32_t>(cfg.assoc));
  line_shift_ = static_cast<uint32_t>(std::countr_zero(cfg.line_bytes));
  set_mask_ = sets - 1;
  assoc_ = static_cast<uint32_t>(cfg.assoc);
  ways_.assign(static_cast<size_t>(sets) * assoc_, 0);
}

double CacheSim::energy_nj(const EnergyModel& e) const {
  return cache_energy_nj(cfg_, hits_, misses_, e);
}

void CacheSim::reset() {
  ways_.assign(ways_.size(), 0);
  hits_ = misses_ = 0;
}

}  // namespace foray::spm
