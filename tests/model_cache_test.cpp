// The content-addressed model cache (driver/model_cache.h) and its sweep
// integration: a warm sweep must be byte-identical to a cold one across
// thread counts, a corrupt or stale entry must be detected, classified
// and transparently recomputed (never trusted), and the cache key must
// include exactly the options that can change the extracted model.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "driver/model_cache.h"
#include "driver/sweep.h"
#include "foray/model_io.h"
#include "foray/pipeline.h"
#include "sim/interpreter.h"
#include "util/status.h"

namespace foray::driver {
namespace {

const char* kGood =
    "int a[256];\n"
    "int main(void) {\n"
    "  for (int r = 0; r < 40; r++)\n"
    "    for (int i = 0; i < 256; i++) a[i] = a[i] + r;\n"
    "  return a[0] & 255;\n"
    "}\n";

const char* kGood2 =
    "char buf[4096];\n"
    "int main(void) {\n"
    "  char *p = buf;\n"
    "  int t = 0;\n"
    "  while (t < 30) {\n"
    "    t++;\n"
    "    p += 64;\n"
    "    for (int i = 0; i < 32; i++) *p++ = (i + t) % 256;\n"
    "  }\n"
    "  return 0;\n"
    "}\n";

std::vector<SweepJob> jobs() {
  return {{"alpha", kGood}, {"beta", kGood2}};
}

SweepOptions sweep_opts(int threads, ModelCache* cache) {
  SweepOptions o;
  o.threads = threads;
  o.pipeline.filter.min_exec = 1;
  o.pipeline.filter.min_locations = 1;
  o.spec.capacities = {1024, 4096};
  o.model_cache = cache;
  return o;
}

std::string run_ndjson(int threads, ModelCache* cache) {
  SweepDriver driver(sweep_opts(threads, cache));
  std::ostringstream out;
  util::Status st = driver.run_ndjson(jobs(), out);
  EXPECT_TRUE(st.ok()) << st.message();
  return out.str();
}

class ModelCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("foray_model_cache_test_" +
             std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
             "_" + ::testing::UnitTest::GetInstance()
                       ->current_test_info()
                       ->name()))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::vector<std::string> entries() const {
    std::vector<std::string> out;
    std::error_code ec;
    for (const auto& e : std::filesystem::directory_iterator(dir_, ec)) {
      out.push_back(e.path().string());
    }
    return out;
  }

  std::string dir_;
};

TEST_F(ModelCacheTest, WarmSweepIsPurePhaseTwoAndByteIdentical) {
  ModelCache cold_cache(ModelCacheOptions{dir_});
  const std::string cold = run_ndjson(/*threads=*/1, &cold_cache);
  {
    const ModelCache::Stats s = cold_cache.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.stores, 2u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.store_failures, 0u);
  }
  EXPECT_EQ(entries().size(), 2u);

  // A fresh process (fresh cache object, same directory), different
  // thread count: all hits, no Phase I, and the same bytes out.
  ModelCache warm_cache(ModelCacheOptions{dir_});
  const std::string warm = run_ndjson(/*threads=*/3, &warm_cache);
  EXPECT_EQ(warm, cold);
  {
    const ModelCache::Stats s = warm_cache.stats();
    EXPECT_EQ(s.hits, 2u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.stores, 0u);
  }

  // An uncached run agrees too — the cache only moves work, never
  // results.
  EXPECT_EQ(run_ndjson(/*threads=*/2, nullptr), cold);
}

/// A sweep profiled on `first` populates the cache in `dir`; a sweep on
/// `second` must then be pure hits and stream the same bytes.
void expect_other_engine_hits(const std::string& dir, sim::Engine first,
                              sim::Engine second) {
  ModelCache first_cache(ModelCacheOptions{dir});
  SweepOptions first_opts = sweep_opts(/*threads=*/1, &first_cache);
  first_opts.pipeline.run.engine = first;
  std::ostringstream first_out;
  {
    SweepDriver driver(first_opts);
    ASSERT_TRUE(driver.run_ndjson(jobs(), first_out).ok());
  }
  EXPECT_EQ(first_cache.stats().stores, 2u);

  ModelCache second_cache(ModelCacheOptions{dir});
  SweepOptions second_opts = sweep_opts(/*threads=*/2, &second_cache);
  second_opts.pipeline.run.engine = second;
  std::ostringstream second_out;
  {
    SweepDriver driver(second_opts);
    ASSERT_TRUE(driver.run_ndjson(jobs(), second_out).ok());
  }
  EXPECT_EQ(second_out.str(), first_out.str());
  const ModelCache::Stats s = second_cache.stats();
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.stores, 0u);
}

TEST_F(ModelCacheTest, AstSweepHitsBytecodePopulatedCache) {
  // The fingerprint excludes the engine (both engines are locked
  // bit-identical by the equivalence harness), so a sweep on the
  // tree-walking oracle against a cache populated by a bytecode run
  // must be pure hits and byte-identical output — the engine is never a
  // key.
  expect_other_engine_hits(dir_, sim::Engine::Bytecode, sim::Engine::Ast);
}

TEST_F(ModelCacheTest, BytecodeSweepHitsAstPopulatedCache) {
  // And the other way round: the models the oracle profiles and stores
  // cold are the ones a warm VM sweep loads.
  expect_other_engine_hits(dir_, sim::Engine::Ast, sim::Engine::Bytecode);
}

TEST_F(ModelCacheTest, MemoryLayerServesRepeatRunsWithoutDisk) {
  ModelCache cache(ModelCacheOptions{/*dir=*/""});
  const std::string first = run_ndjson(1, &cache);
  const std::string second = run_ndjson(2, &cache);
  EXPECT_EQ(first, second);
  const ModelCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 2u);   // first run
  EXPECT_EQ(s.hits, 2u);     // second run
  EXPECT_EQ(s.memory_hits, 2u);
  EXPECT_EQ(s.store_failures, 0u);  // no dir: disk writes not attempted
}

TEST_F(ModelCacheTest, CorruptEntryIsRejectedRecomputedAndOverwritten) {
  ModelCache seed(ModelCacheOptions{dir_});
  const std::string cold = run_ndjson(1, &seed);
  auto files = entries();
  ASSERT_EQ(files.size(), 2u);

  for (const char* mutation : {"truncate", "magic", "version"}) {
    SCOPED_TRACE(mutation);
    // Corrupt the first entry in this round's chosen way.
    std::string bytes;
    {
      std::ifstream in(files[0], std::ios::binary);
      std::ostringstream ss;
      ss << in.rdbuf();
      bytes = ss.str();
    }
    ASSERT_GE(bytes.size(), 12u);
    std::string mutated = bytes;
    if (std::string(mutation) == "truncate") {
      mutated = bytes.substr(0, bytes.size() / 2);
    } else if (std::string(mutation) == "magic") {
      mutated[0] = static_cast<char>(mutated[0] ^ 0x20);
    } else {
      mutated[4] = static_cast<char>(mutated[4] + 1);  // version bump
    }
    {
      std::ofstream out(files[0], std::ios::binary | std::ios::trunc);
      out << mutated;
    }

    // The direct lookup reports the classified rejection...
    {
      ModelCache probe(ModelCacheOptions{dir_});
      const std::string key =
          std::filesystem::path(files[0]).stem().string();
      core::ForayModel model;
      util::Status why;
      EXPECT_FALSE(probe.lookup(key, &model, &why));
      ASSERT_FALSE(why.ok());
      EXPECT_EQ(why.phase(), "model-cache");
      EXPECT_TRUE(why.code() == util::ErrorCode::kInvalidInput ||
                  why.code() == util::ErrorCode::kIoError)
          << why.code_name();
      // ...naming the offending file.
      EXPECT_NE(why.message().find(files[0]), std::string::npos);
      EXPECT_EQ(probe.stats().rejected, 1u);
    }

    // ...and a sweep over the poisoned cache recomputes transparently:
    // same bytes out, one rejection, one re-store.
    ModelCache cache(ModelCacheOptions{dir_});
    EXPECT_EQ(run_ndjson(2, &cache), cold);
    const ModelCache::Stats s = cache.stats();
    EXPECT_EQ(s.rejected, 1u);
    EXPECT_EQ(s.hits, 1u);    // the untouched entry
    EXPECT_EQ(s.stores, 1u);  // the recomputed one, rewritten

    // The rewrite healed the entry for the next fresh cache.
    ModelCache healed(ModelCacheOptions{dir_});
    EXPECT_EQ(run_ndjson(1, &healed), cold);
    EXPECT_EQ(healed.stats().hits, 2u);
    EXPECT_EQ(healed.stats().rejected, 0u);
  }
}

TEST_F(ModelCacheTest, VersionOneEntryIsAMissRecomputedAndRewritten) {
  ModelCache seed(ModelCacheOptions{dir_});
  const std::string cold = run_ndjson(1, &seed);
  auto files = entries();
  ASSERT_EQ(files.size(), 2u);

  // Rewrite every entry in the version-1 layout: the same references
  // behind eight u32 build statistics, which version 2 no longer stores.
  std::vector<std::string> current;
  for (const std::string& file : files) {
    std::ifstream in(file, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string bytes = ss.str();
    ASSERT_GE(bytes.size(), 12u);
    current.push_back(bytes);
    std::string v1 = bytes.substr(0, 12) + std::string(32, '\0') +
                     bytes.substr(12);
    v1[4] = 1;  // little-endian version 1
    std::ofstream out(file, std::ios::binary | std::ios::trunc);
    out << v1;
  }

  // Every entry is a classified miss, recomputed, and rewritten in the
  // current format; the sweep's bytes do not change.
  ModelCache cache(ModelCacheOptions{dir_});
  EXPECT_EQ(run_ndjson(2, &cache), cold);
  const ModelCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.rejected, 2u);
  EXPECT_EQ(s.stores, 2u);
  for (size_t i = 0; i < files.size(); ++i) {
    std::ifstream in(files[i], std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_EQ(ss.str(), current[i]) << files[i];
  }
}

TEST_F(ModelCacheTest, StoreRoundTripsThroughLookup) {
  core::PipelineOptions popts;
  popts.filter.min_exec = 1;
  popts.filter.min_locations = 1;
  core::PipelineResult res = core::run_pipeline(kGood, popts);
  ASSERT_TRUE(res.status.ok());

  ModelCache cache(ModelCacheOptions{dir_});
  const std::string key = ModelCache::key(kGood, popts);
  cache.store(key, res.model);

  // A different cache object must read it back from disk, byte-equal.
  ModelCache other(ModelCacheOptions{dir_});
  core::ForayModel loaded;
  util::Status why;
  ASSERT_TRUE(other.lookup(key, &loaded, &why)) << why.message();
  EXPECT_EQ(core::model_to_bytes(loaded), core::model_to_bytes(res.model));
}

TEST_F(ModelCacheTest, SizeBoundEvictsOldestEntriesFirst) {
  core::PipelineOptions popts;
  popts.filter.min_exec = 1;
  popts.filter.min_locations = 1;
  core::PipelineResult res = core::run_pipeline(kGood, popts);
  ASSERT_TRUE(res.status.ok());

  // Measure one entry so the bound can be phrased in whole entries.
  uint64_t entry_size = 0;
  {
    ModelCache probe(ModelCacheOptions{dir_});
    probe.store("probe", res.model);
    entry_size = std::filesystem::file_size(dir_ + "/probe.fmodel");
    std::filesystem::remove(dir_ + "/probe.fmodel");
  }
  ASSERT_GT(entry_size, 0u);

  // Room for two entries, not three.
  ModelCache cache(
      ModelCacheOptions{dir_, entry_size * 2 + 1});
  const auto age = [&](const char* key, int hours) {
    std::filesystem::last_write_time(
        dir_ + "/" + key + ".fmodel",
        std::filesystem::file_time_type::clock::now() -
            std::chrono::hours(hours));
  };
  cache.store("aa", res.model);
  age("aa", 3);
  cache.store("bb", res.model);
  age("bb", 2);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(entries().size(), 2u);

  // The third store pushes the directory over the bound; the oldest
  // entry (aa) goes, the fresh one survives.
  cache.store("cc", res.model);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/aa.fmodel"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/bb.fmodel"));
  EXPECT_TRUE(std::filesystem::exists(dir_ + "/cc.fmodel"));

  // The evicted entry is still served by the memory layer of the cache
  // that stored it; a fresh cache object sees a plain miss.
  core::ForayModel loaded;
  util::Status why;
  EXPECT_TRUE(cache.lookup("aa", &loaded, &why));
  ModelCache fresh(ModelCacheOptions{dir_});
  EXPECT_FALSE(fresh.lookup("aa", &loaded, &why));
  EXPECT_TRUE(why.ok()) << why.message();
}

TEST_F(ModelCacheTest, BoundSmallerThanOneEntryEvictsTheFreshStore) {
  core::PipelineOptions popts;
  popts.filter.min_exec = 1;
  popts.filter.min_locations = 1;
  core::PipelineResult res = core::run_pipeline(kGood, popts);
  ASSERT_TRUE(res.status.ok());

  ModelCache cache(ModelCacheOptions{dir_, /*max_bytes=*/1});
  cache.store("aa", res.model);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().store_failures, 0u);  // the write itself worked
  EXPECT_TRUE(entries().empty());
}

/// A sweep of kGood through `cache`, whose disk write fails: the failure
/// is counted once, nothing temporary is left under `root`, the memory
/// layer still answers the key, and the rows are those of an uncached
/// sweep. (Tests run as root, so permission bits cannot force it.)
void expect_store_failure_is_harmless(ModelCache& cache,
                                      const std::string& root) {
  const std::vector<SweepJob> one = {{"alpha", kGood}};
  const auto sweep = [&one](ModelCache* c) {
    SweepDriver driver(sweep_opts(/*threads=*/1, c));
    std::ostringstream out;
    EXPECT_TRUE(driver.run_ndjson(one, out).ok());
    return out.str();
  };
  const std::string cached = sweep(&cache);
  const ModelCache::Stats s = cache.stats();
  EXPECT_EQ(s.stores, 1u);
  EXPECT_EQ(s.store_failures, 1u);
  for (const auto& e :
       std::filesystem::recursive_directory_iterator(root)) {
    EXPECT_EQ(e.path().string().find(".tmp."), std::string::npos)
        << e.path();
  }
  core::ForayModel loaded;
  util::Status why;
  EXPECT_TRUE(cache.lookup(
      ModelCache::key(kGood, sweep_opts(1, nullptr).pipeline), &loaded, &why));
  EXPECT_EQ(cache.stats().memory_hits, 1u);
  EXPECT_EQ(cached, sweep(nullptr));
}

TEST_F(ModelCacheTest, DirectoryBeneathARegularFileFailsTheStoreOnly) {
  // The cache directory cannot be created, so the temporary file cannot
  // be opened.
  std::filesystem::create_directories(dir_);
  std::ofstream(dir_ + "/file") << "not a directory";
  ModelCache cache(ModelCacheOptions{dir_ + "/file/cache"});
  expect_store_failure_is_harmless(cache, dir_);
}

TEST_F(ModelCacheTest, EntryPathThatIsADirectoryFailsTheRename) {
  // The temporary file is written, but rename(2) cannot replace a
  // directory with it; the temporary is removed.
  const std::string key =
      ModelCache::key(kGood, sweep_opts(1, nullptr).pipeline);
  std::filesystem::create_directories(dir_ + "/" + key + ".fmodel");
  ModelCache cache(ModelCacheOptions{dir_});
  expect_store_failure_is_harmless(cache, dir_);
  EXPECT_TRUE(std::filesystem::is_directory(dir_ + "/" + key + ".fmodel"));
}

TEST(ModelCacheKey, TracksModelChangingOptionsOnly) {
  core::PipelineOptions base;
  const std::string k = ModelCache::key(kGood, base);

  // The engine is bit-identical by the equivalence harness: flipping it
  // must NOT invalidate the cache.
  core::PipelineOptions engine = base;
  engine.run.engine = sim::Engine::Ast;
  EXPECT_EQ(ModelCache::key(kGood, engine), k);

  // So is the census: the model is the same with or without the
  // scalar traffic the fused pass elides.
  core::PipelineOptions census = base;
  census.census = true;
  EXPECT_EQ(ModelCache::key(kGood, census), k);

  // Budgets never produce a model to store.
  core::PipelineOptions budget = base;
  budget.run.budget.max_steps = 123;
  EXPECT_EQ(ModelCache::key(kGood, budget), k);

  // Phase II options run downstream of extraction.
  core::PipelineOptions spm = base;
  spm.spm.dse.spm_capacity = 512;
  EXPECT_EQ(ModelCache::key(kGood, spm), k);

  // But the Step 4 filter and the seed DO shape the model.
  core::PipelineOptions filter = base;
  filter.filter.min_exec = 1;
  EXPECT_NE(ModelCache::key(kGood, filter), k);

  core::PipelineOptions seed = base;
  seed.run.rng_seed += 1;
  EXPECT_NE(ModelCache::key(kGood, seed), k);

  // And of course the program source.
  EXPECT_NE(ModelCache::key(kGood2, base), k);

  // The fingerprint is pinned to the model format version, so a format
  // bump invalidates wholesale.
  EXPECT_NE(ModelCache::fingerprint(base).find(
                "fmt=" + std::to_string(core::kModelFormatVersion)),
            std::string::npos);
}

TEST(LruMap, EvictsTheLeastRecentlyUsedPastItsCapacity) {
  LruMap<int, std::string> lru(3);
  EXPECT_EQ(lru.find(1), nullptr);
  lru.put(1, "one");
  lru.put(2, "two");
  lru.put(3, "three");
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.evictions(), 0u);

  // A find makes 1 the most recently used, so 2 is the victim of 4.
  ASSERT_NE(lru.find(1), nullptr);
  EXPECT_EQ(*lru.find(1), "one");
  EXPECT_EQ(lru.put(4, "four"), "four");
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.evictions(), 1u);
  EXPECT_EQ(lru.find(2), nullptr);

  // Re-putting a kept key replaces its value in place, evicting nothing,
  // and makes it the most recently used: 1 goes next, not 3.
  lru.put(3, "THREE");
  EXPECT_EQ(lru.size(), 3u);
  EXPECT_EQ(lru.evictions(), 1u);
  lru.put(5, "five");
  EXPECT_EQ(lru.find(1), nullptr);
  ASSERT_NE(lru.find(3), nullptr);
  EXPECT_EQ(*lru.find(3), "THREE");
  ASSERT_NE(lru.find(4), nullptr);
  ASSERT_NE(lru.find(5), nullptr);
  EXPECT_EQ(lru.evictions(), 2u);

  // A capacity of one keeps just the latest entry.
  LruMap<int, int> one(1);
  one.put(1, 10);
  EXPECT_EQ(one.put(2, 20), 20);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(one.find(1), nullptr);
  EXPECT_EQ(one.evictions(), 1u);
}

}  // namespace
}  // namespace foray::driver
