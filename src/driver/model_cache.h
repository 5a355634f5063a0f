// Content-addressed cache of extracted Phase I models.
//
// The key is (hash of the program source) x (hash of the option
// fingerprint) — every option that can change the extracted model is in
// the fingerprint, everything proven bit-identical by the equivalence
// harnesses (engine choice, online vs offline profiling, chunking) is
// deliberately NOT, so a model profiled on one engine serves warm sweeps
// on the other. Execution budgets are also excluded: a budget that trips
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
// even without a cache directory). The in-memory layer holds at most
// kMemoryEntries models and evicts the least recently used one, so a
// long-lived server fed distinct sources stays bounded while the programs
// it keeps being asked for stay memory hits.
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

/// Most models the in-memory layer holds; past it, the least recently
/// used is evicted. A compile-time bound, not an option.
inline constexpr size_t kMemoryEntries = 256;

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
  using MemoryEntry = std::pair<std::string, core::ForayModel>;

  std::string entry_path(const std::string& key) const;
  void enforce_disk_bound();
  /// Makes `model` the most recently used entry for `key`, evicting the
  /// least recently used past kMemoryEntries. Requires mu_.
  void remember(const std::string& key, const core::ForayModel& model);

  ModelCacheOptions opts_;
  mutable std::mutex mu_;
  std::list<MemoryEntry> recency_;  ///< most recently used first
  std::unordered_map<std::string, std::list<MemoryEntry>::iterator> memory_;
  Stats stats_;
  uint64_t tmp_seq_ = 0;  ///< distinguishes concurrent in-process writers
};

}  // namespace foray::driver
