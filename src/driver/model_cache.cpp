#include "driver/model_cache.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "foray/model_io.h"
#include "util/hash.h"

namespace foray::driver {

namespace {

/// Process id for temp-file uniqueness without pulling in <unistd.h>
/// everywhere; getpid is POSIX, and this tree already assumes it.
uint64_t process_id() {
#if defined(_WIN32)
  return 0;
#else
  return static_cast<uint64_t>(::getpid());
#endif
}

}  // namespace

ModelCache::ModelCache(ModelCacheOptions opts) : opts_(std::move(opts)) {}

std::string ModelCache::fingerprint(const core::PipelineOptions& opts) {
  // Everything that can change the extracted model, and nothing that
  // cannot: engine and profiling mode are bit-identical by contract
  // (engine_equivalence / pipeline_equivalence harnesses), and so is the
  // census the fused pass skips (PipelineOptions::census); budgets never
  // produce a partial model, and the Phase II options run downstream of
  // extraction.
  std::string fp;
  fp.reserve(192);
  const auto flag = [&](const char* name, bool v) {
    fp += name;
    fp += v ? "=1;" : "=0;";
  };
  const auto num = [&](const char* name, uint64_t v) {
    fp += name;
    fp += '=';
    fp += std::to_string(v);
    fp += ';';
  };
  num("fmt", core::kModelFormatVersion);
  num("seed", opts.run.rng_seed);
  flag("replay_view", opts.run.replay_view);
  flag("hash_index", opts.extractor.hash_index);
  num("nexec", opts.filter.min_exec);
  num("nloc", opts.filter.min_locations);
  return fp;
}

std::string ModelCache::key(std::string_view source,
                            const core::PipelineOptions& opts) {
  return util::hex64(util::fnv1a(source)) + "-" +
         util::hex64(util::fnv1a(fingerprint(opts)));
}

std::string ModelCache::entry_path(const std::string& key) const {
  return opts_.dir + "/" + key + ".fmodel";
}

bool ModelCache::lookup(const std::string& key, core::ForayModel* model,
                        util::Status* why) {
  *why = util::Status();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (const core::ForayModel* hit = memory_.find(key)) {
      *model = *hit;
      ++stats_.hits;
      ++stats_.memory_hits;
      return true;
    }
  }
  if (opts_.dir.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return false;
  }
  const std::string path = entry_path(key);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.misses;
    return false;
  }
  util::Status st = core::read_model(in, model);
  if (!st.ok()) {
    // Detected, classified, and left for store() to atomically replace
    // once the caller has recomputed — never deleted in place (another
    // process may be mid-replace already).
    *why = util::Status::failure(st.code(), "model-cache", 0,
                                 path + ": " + st.message());
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  memory_.put(key, *model);
  ++stats_.hits;
  return true;
}

void ModelCache::store(const std::string& key,
                       const core::ForayModel& model) {
  uint64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    memory_.put(key, model);
    ++stats_.stores;
    seq = ++tmp_seq_;
  }
  if (opts_.dir.empty()) return;

  const auto failed = [this] {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.store_failures;
  };
  std::error_code ec;
  std::filesystem::create_directories(opts_.dir, ec);
  const std::string path = entry_path(key);
  const std::string tmp = path + ".tmp." + std::to_string(process_id()) +
                          "." + std::to_string(seq);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      failed();
      return;
    }
    core::write_model(out, model);
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      failed();
      return;
    }
  }
  // rename(2) atomically replaces the destination: readers see either the
  // old complete entry or the new complete entry, never a torn one.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    failed();
    return;
  }
  enforce_disk_bound();
}

void ModelCache::enforce_disk_bound() {
  if (opts_.dir.empty() || opts_.max_bytes == 0) return;
  struct Entry {
    std::filesystem::path path;
    std::filesystem::file_time_type mtime;
    uint64_t size = 0;
  };
  std::vector<Entry> entries;
  uint64_t total = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(opts_.dir, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::filesystem::directory_entry& de = *it;
    if (de.path().extension() != ".fmodel") continue;
    std::error_code fec;
    if (!de.is_regular_file(fec) || fec) continue;
    Entry e;
    e.path = de.path();
    e.size = de.file_size(fec);
    if (fec) continue;
    e.mtime = de.last_write_time(fec);
    if (fec) continue;
    total += e.size;
    entries.push_back(std::move(e));
  }
  if (total <= opts_.max_bytes) return;
  // Oldest-modified first; path breaks mtime ties so the victim order is
  // deterministic on filesystems with coarse timestamps.
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.mtime != b.mtime) return a.mtime < b.mtime;
              return a.path < b.path;
            });
  uint64_t evicted = 0;
  for (const Entry& e : entries) {
    if (total <= opts_.max_bytes) break;
    std::error_code rec;
    if (std::filesystem::remove(e.path, rec) && !rec) {
      total -= e.size;
      ++evicted;
    }
  }
  if (evicted != 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.evictions += evicted;
  }
}

ModelCache::Stats ModelCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s = stats_;
  s.memory_evictions = memory_.evictions();
  return s;
}

}  // namespace foray::driver
