// Content-addressed cache of extracted Phase I models.
//
// The key is (hash of the program source) x (hash of the option
// fingerprint) — every option that can change the extracted model is in
// the fingerprint, everything proven bit-identical by the equivalence
// harnesses (engine choice, the census, chunking) is
// deliberately NOT, so a model the tests profile on the tree-walking
// oracle is the one the VM stores and loads. Execution budgets are also excluded: a budget that trips
// never produces a model to store, and a cached model needs no budget to
// load.
//
// Entries are FMDL blobs (foray/model_io.h). On-disk writes go to a
// per-process temporary name and are renamed into place, so concurrent
// processes sharing one cache directory never observe a torn entry — the
// worst race is two processes computing the same model and one rename
// winning. Every load re-validates the format; a corrupt or stale entry
// is reported as a classified Status and the caller recomputes (and
// overwrites) it — a cache entry is never trusted.
//
// Thread-safe: the sweep driver calls lookup/store from pool workers, and
// `foraygen serve` shares one cache across requests (the in-memory layer
// is what makes back-to-back requests for the same program pure Phase II
// even without a cache directory). The in-memory layer is an LruMap of
// at most kMemoryEntries models, so a long-lived server fed distinct
// sources stays bounded while the programs it keeps being asked for stay
// memory hits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "foray/model.h"
#include "foray/pipeline.h"
#include "util/status.h"

namespace foray::driver {

/// Most entries a server keeps in memory per kind (models here, static
/// verdicts in serve, replay simulations and cache counts in the sweep
/// memos); past it, the least recently used is evicted. A compile-time
/// bound, not an option.
inline constexpr size_t kMemoryEntries = 256;

/// A map of at most `capacity` (>= 1) entries that evicts the least
/// recently used one: the model cache's memory layer, serve's static
/// verdict memo and the replay memo (the cache memo keeps a table of its
/// own, see CacheMemo). Not thread-safe; the owner locks if it must.
template <typename Key, typename Value>
class LruMap {
 public:
  explicit LruMap(size_t capacity) : capacity_(capacity) {}

  /// The value under `key`, now the most recently used; null on a miss.
  Value* find(const Key& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second);
    return &it->second->second;
  }

  /// Stores `value` under `key` as the most recently used entry, evicting
  /// the least recently used one past the capacity.
  Value& put(const Key& key, Value value) {
    if (Value* v = find(key)) return *v = std::move(value);
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    if (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      ++evictions_;
    }
    return order_.front().second;
  }

  size_t size() const { return order_.size(); }
  /// Entries put() has evicted so far.
  uint64_t evictions() const { return evictions_; }

 private:
  using Entry = std::pair<Key, Value>;

  size_t capacity_;
  std::list<Entry> order_;  ///< most recently used first
  std::unordered_map<Key, typename std::list<Entry>::iterator> index_;
  uint64_t evictions_ = 0;
};

struct ModelCacheOptions {
  /// On-disk cache directory (created on first store). Empty: in-memory
  /// only — still useful to a long-lived serve loop.
  std::string dir;
  /// Bound on the directory's total entry bytes (0 = unbounded). After
  /// each successful store, entries are evicted oldest-modified first
  /// until the directory fits; the freshly renamed entry is the newest,
  /// so it only goes when the bound is smaller than the entry itself.
  /// Eviction is best-effort across processes (a concurrent replace of
  /// the victim just wins the rename race) and counted in Stats.
  uint64_t max_bytes = 0;
};

class ModelCache {
 public:
  struct Stats {
    uint64_t hits = 0;         ///< lookups served (memory or disk)
    uint64_t memory_hits = 0;  ///< subset of hits served without I/O
    uint64_t misses = 0;       ///< no entry anywhere
    uint64_t rejected = 0;     ///< entry present but corrupt/stale
    uint64_t stores = 0;          ///< store() calls (memory and/or disk)
    uint64_t store_failures = 0;  ///< disk writes that failed (non-fatal)
    uint64_t evictions = 0;  ///< disk entries deleted by the size bound
    /// Models dropped from the in-memory layer at kMemoryEntries.
    uint64_t memory_evictions = 0;
  };

  explicit ModelCache(ModelCacheOptions opts = {});

  /// The content address of (source, options): two fixed-width hex hashes
  /// joined by '-'. Includes the model format version, so a format bump
  /// invalidates wholesale.
  static std::string key(std::string_view source,
                         const core::PipelineOptions& opts);
  /// The option half of the key, as the human-readable string that gets
  /// hashed (exposed for tests and debugging).
  static std::string fingerprint(const core::PipelineOptions& opts);

  /// True: `*model` holds the cached model. False with `why->ok()`: a
  /// plain miss. False with a failed `*why`: an entry existed but was
  /// corrupt, truncated or of a stale version — the classified status
  /// says which; the caller recomputes and store() overwrites the bad
  /// entry atomically.
  bool lookup(const std::string& key, core::ForayModel* model,
              util::Status* why);

  /// Best-effort store; disk failures are counted, never thrown.
  void store(const std::string& key, const core::ForayModel& model);

  Stats stats() const;

 private:
  std::string entry_path(const std::string& key) const;
  void enforce_disk_bound();

  ModelCacheOptions opts_;
  mutable std::mutex mu_;
  LruMap<std::string, core::ForayModel> memory_{kMemoryEntries};  ///< mu_
  Stats stats_;  ///< memory_evictions read from memory_
  uint64_t tmp_seq_ = 0;  ///< distinguishes concurrent in-process writers
};

}  // namespace foray::driver
