#include "spm/cache_sim.h"

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
  const uint64_t sets = cfg.size_bytes / set_bytes;
  if (!is_pow2(sets)) {
    return geometry + std::to_string(sets) + " sets, not a power of two";
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
  FORAY_CHECK(is_pow2(cfg.line_bytes), "cache line size must be 2^k");
  FORAY_CHECK(cfg.assoc >= 1, "associativity must be >= 1");
  FORAY_CHECK(cfg.size_bytes >= uint64_t{cfg.line_bytes} * cfg.assoc,
              "cache smaller than one set");
  num_sets_ = cfg.size_bytes / (cfg.line_bytes * cfg.assoc);
  FORAY_CHECK(is_pow2(num_sets_), "cache set count must be 2^k");
  lines_.resize(static_cast<size_t>(num_sets_) * cfg.assoc);
}

bool CacheSim::access(uint32_t addr) {
  const uint32_t block = addr / cfg_.line_bytes;
  const uint32_t set = block & (num_sets_ - 1);
  const uint32_t tag = block / num_sets_;
  Line* base = &lines_[static_cast<size_t>(set) * cfg_.assoc];
  ++stamp_;
  for (int w = 0; w < cfg_.assoc; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru = stamp_;
      ++hits_;
      return true;
    }
  }
  // Miss: evict an invalid way if one exists, else the LRU way.
  Line* victim = base;
  for (int w = 0; w < cfg_.assoc; ++w) {
    Line& line = base[w];
    if (!line.valid) {
      victim = &line;
      break;
    }
    if (line.lru < victim->lru) victim = &line;
  }
  ++misses_;
  victim->valid = true;
  victim->tag = tag;
  victim->lru = stamp_;
  return false;
}

double CacheSim::energy_nj(const EnergyModel& e) const {
  return cache_energy_nj(cfg_, hits_, misses_, e);
}

void CacheSim::reset() {
  for (auto& l : lines_) l = Line{};
  stamp_ = hits_ = misses_ = 0;
}

}  // namespace foray::spm
