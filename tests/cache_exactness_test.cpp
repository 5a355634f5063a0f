// Exactness lock for the Phase II cache comparison. Two independent
// oracles, both the straightforward forms the production code replaced:
//
//   StampLru        a set-associative LRU that finds sets and tags by
//                   division, keeps a valid bit per way and evicts the
//                   way with the oldest 64-bit use stamp;
//   direct_stream   evaluates const + sum(coef_i * it_i) afresh for
//                   every iteration of every reference.
//
// spm::CacheSim (recency-ordered ways, shift/mask indexing) and the
// incremental spm::for_each_address must agree with them access for
// access over the benchsuite, generated programs and hand-built edge
// cases, and core::simulate_caches — many cells in one pass over the
// folded stream — must report the counts the oracle does for each cell
// alone over the full one. The benchsuite sweep's counts are also held
// to tests/golden/cache_counts.txt, its transform-replay grid to
// tests/golden/replay_sweeps.ndjson, its DSE selections to
// tests/golden/dse_selections.txt and its eliding pass (with the
// kept-scalar programs) to tests/golden/elision_sweeps.ndjson, profiled
// on the VM and on the tree-walking oracle alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "benchsuite/generator.h"
#include "benchsuite/suite.h"
#include "driver/sweep.h"
#include "foray/pipeline.h"
#include "oracle.h"
#include "spm/address_stream.h"
#include "spm/cache_sim.h"
#include "spm/replay.h"
#include "spm/transform.h"
#include "util/rng.h"

namespace foray::spm {
namespace {

class StampLru {
 public:
  explicit StampLru(const CacheConfig& cfg)
      : cfg_(cfg),
        num_sets_(cfg.size_bytes / (cfg.line_bytes * cfg.assoc)),
        lines_(static_cast<size_t>(num_sets_) * cfg.assoc) {}

  bool access(uint32_t addr) {
    const uint32_t block = addr / cfg_.line_bytes;
    const uint32_t set = block & (num_sets_ - 1);
    const uint32_t tag = block / num_sets_;
    Line* base = &lines_[static_cast<size_t>(set) * cfg_.assoc];
    ++stamp_;
    for (int w = 0; w < cfg_.assoc; ++w) {
      if (base[w].valid && base[w].tag == tag) {
        base[w].lru = stamp_;
        ++hits_;
        return true;
      }
    }
    Line* victim = base;
    for (int w = 0; w < cfg_.assoc; ++w) {
      if (!base[w].valid) {
        victim = &base[w];
        break;
      }
      if (base[w].lru < victim->lru) victim = &base[w];
    }
    ++misses_;
    *victim = Line{tag, true, stamp_};
    return false;
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct Line {
    uint32_t tag = 0;
    bool valid = false;
    uint64_t lru = 0;
  };
  CacheConfig cfg_;
  uint32_t num_sets_;
  std::vector<Line> lines_;
  uint64_t stamp_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

/// Every iteration vector of `trips` in lexicographic order.
template <class Fn>
void each_iteration(const std::vector<int64_t>& trips, Fn&& fn) {
  for (int64_t t : trips) {
    if (t <= 0) return;
  }
  std::vector<int64_t> it(trips.size(), 0);
  for (;;) {
    fn(it);
    size_t i = trips.size();
    for (;;) {
      if (i == 0) return;
      --i;
      if (++it[i] < trips[i]) break;
      it[i] = 0;
    }
  }
}

uint32_t evaluate(const core::ModelReference& ref,
                  const std::vector<int64_t>& it) {
  const std::vector<int64_t> coefs = ref.emitted_coefs();
  int64_t addr = ref.fn.const_term;
  for (size_t i = 0; i < coefs.size(); ++i) addr += coefs[i] * it[i];
  return static_cast<uint32_t>(addr);
}

std::vector<uint32_t> direct_stream(const core::ModelReference& ref) {
  std::vector<uint32_t> out;
  each_iteration(ref.emitted_trips(), [&](const std::vector<int64_t>& it) {
    out.push_back(evaluate(ref, it));
  });
  return out;
}

/// The model stream: references sharing an emitted nest (loop path and
/// trips) interleave per iteration, in order of first appearance.
std::vector<uint32_t> direct_stream(const core::ForayModel& model) {
  std::vector<std::vector<size_t>> groups;
  for (size_t i = 0; i < model.refs.size(); ++i) {
    bool placed = false;
    for (auto& g : groups) {
      const core::ModelReference& head = model.refs[g.front()];
      if (head.emitted_loop_path() == model.refs[i].emitted_loop_path() &&
          head.emitted_trips() == model.refs[i].emitted_trips()) {
        g.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) groups.push_back({i});
  }
  std::vector<uint32_t> out;
  for (const auto& g : groups) {
    each_iteration(model.refs[g.front()].emitted_trips(),
                   [&](const std::vector<int64_t>& it) {
                     for (size_t r : g) {
                       out.push_back(evaluate(model.refs[r], it));
                     }
                   });
  }
  return out;
}

std::vector<uint32_t> stream_of(const core::ForayModel& model,
                                uint64_t* count) {
  std::vector<uint32_t> out;
  *count = for_each_address(model, [&](uint32_t a) { out.push_back(a); });
  return out;
}

/// The full stream rebuilt from spm::for_each_address_folded: each
/// repeat(n) appends what was emitted since its mark n more times.
/// `walked` receives the walk's own count.
std::vector<uint32_t> unfolded_stream(const core::ForayModel& model,
                                      uint64_t* walked) {
  std::vector<uint32_t> out;
  std::vector<size_t> marks;
  *walked = for_each_address_folded(
      model, [&](uint32_t a) { out.push_back(a); },
      [&] { marks.push_back(out.size()); },
      [&](uint64_t n) {
        const std::vector<uint32_t> twice(
            out.begin() + static_cast<std::ptrdiff_t>(marks.back()),
            out.end());
        marks.pop_back();
        for (uint64_t i = 0; i < n; ++i) {
          out.insert(out.end(), twice.begin(), twice.end());
        }
      });
  EXPECT_TRUE(marks.empty());
  return out;
}

const std::vector<uint32_t> kLines = {1, 4, 32, 64};
const std::vector<int> kWays = {1, 2, 3, 4, 8, 16};
const std::vector<uint32_t> kSets = {1, 16, 128};

/// One cell per kLines x kWays x kSets geometry, plus cells holding
/// several associativities.
std::vector<core::CacheCell> all_cells() {
  std::vector<core::CacheCell> cells;
  for (uint32_t line : kLines) {
    for (uint32_t sets : kSets) {
      for (int ways : kWays) {
        cells.push_back(core::CacheCell{
            sets * line * static_cast<uint32_t>(ways), line, {ways}});
      }
    }
  }
  // Cells with several associativities, like a base --compare-cache.
  cells.push_back(core::CacheCell{4096, 32, {2, 4}});
  cells.push_back(core::CacheCell{1024, 4, {1, 2, 4, 8, 16}});
  return cells;
}

/// simulate_caches over `cells` in one call must equal the oracle run on
/// the directly evaluated stream, cell by cell, in cell and associativity
/// order.
void expect_cells_exact(const core::ForayModel& model,
                        const std::vector<core::CacheCell>& cells) {
  const std::vector<uint32_t> direct = direct_stream(model);
  const std::vector<core::CacheCellCounts> got =
      core::simulate_caches(model, cells);
  ASSERT_EQ(got.size(), cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    ASSERT_TRUE(got[c].status.ok()) << got[c].status.message();
    ASSERT_EQ(got[c].caches.size(), cells[c].assocs.size());
    for (size_t a = 0; a < cells[c].assocs.size(); ++a) {
      const CacheConfig cfg{cells[c].capacity, cells[c].line_bytes,
                            cells[c].assocs[a]};
      StampLru oracle(cfg);
      for (uint32_t addr : direct) oracle.access(addr);
      SCOPED_TRACE(std::to_string(cfg.size_bytes) + " B " +
                   std::to_string(cfg.line_bytes) + "x" +
                   std::to_string(cfg.assoc));
      EXPECT_EQ(got[c].caches[a].assoc, cfg.assoc);
      EXPECT_EQ(got[c].caches[a].hits, oracle.hits());
      EXPECT_EQ(got[c].caches[a].misses, oracle.misses());
    }
  }
}

/// The stream itself, unfolded and folded, then expect_cells_exact over
/// all_cells().
void expect_model_exact(const core::ForayModel& model) {
  const std::vector<uint32_t> direct = direct_stream(model);
  uint64_t count = 0;
  ASSERT_EQ(stream_of(model, &count), direct);
  ASSERT_EQ(count, direct.size());
  uint64_t walked = 0;
  ASSERT_EQ(unfolded_stream(model, &walked), direct);
  EXPECT_LE(walked, count);
  expect_cells_exact(model, all_cells());
}

/// CacheSim against the oracle access by access over `addrs`, for every
/// kLines x kWays x kSets geometry.
void expect_access_exact(const std::vector<uint32_t>& addrs) {
  for (uint32_t line : kLines) {
    for (int ways : kWays) {
      for (uint32_t sets : kSets) {
        const CacheConfig cfg{sets * line * static_cast<uint32_t>(ways),
                              line, ways};
        SCOPED_TRACE(std::to_string(cfg.size_bytes) + " B " +
                     std::to_string(line) + "x" + std::to_string(ways));
        CacheSim sim(cfg);
        StampLru oracle(cfg);
        for (size_t i = 0; i < addrs.size(); ++i) {
          ASSERT_EQ(sim.access(addrs[i]), oracle.access(addrs[i]))
              << "access " << i << " addr " << addrs[i];
        }
        EXPECT_EQ(sim.hits(), oracle.hits());
        EXPECT_EQ(sim.misses(), oracle.misses());
      }
    }
  }
}

core::ModelReference ref_of(int64_t base, std::vector<int64_t> coefs,
                            std::vector<int64_t> trips, int m,
                            std::vector<int> path = {}) {
  core::ModelReference r;
  r.fn.const_term = base;
  r.fn.coefs = std::move(coefs);
  r.fn.known.assign(r.fn.coefs.size(), true);
  r.fn.m = m;
  r.trips = std::move(trips);
  if (path.empty()) {
    for (size_t i = 0; i < r.trips.size(); ++i) {
      path.push_back(static_cast<int>(i));
    }
  }
  r.loop_path = std::move(path);
  return r;
}

TEST(CacheExactness, BenchsuiteModels) {
  for (const auto& bench : benchsuite::all_benchmarks()) {
    SCOPED_TRACE(bench.name);
    const core::PipelineResult res = oracle::run_pipeline(bench.source);
    ASSERT_TRUE(res.ok()) << res.error();
    ASSERT_FALSE(res.model.refs.empty());
    expect_model_exact(res.model);
  }
}

TEST(CacheExactness, GeneratedModels) {
  core::PipelineOptions lenient;
  lenient.filter.min_exec = 1;
  lenient.filter.min_locations = 1;
  for (uint64_t seed = 1; seed <= 48; ++seed) {
    SCOPED_TRACE(seed);
    benchsuite::GeneratorOptions gopts;
    gopts.seed = seed;
    gopts.max_depth = 1 + static_cast<int>(seed % 4);
    const core::PipelineResult res = oracle::run_pipeline(
        benchsuite::generate_affine_program(gopts).source, lenient);
    ASSERT_TRUE(res.ok()) << res.error();
    expect_model_exact(res.model);
  }
}

TEST(CacheExactness, CellsOverTheLineLimitSplitIntoPasses) {
  // Two cells of kMaxCacheLines lines each cannot share a pass with each
  // other or with a third; every cell still gets the oracle's counts, in
  // cell and associativity order.
  core::ForayModel model;
  model.refs.push_back(ref_of(0x100, {4096, 4}, {40, 300}, 2));
  model.refs.push_back(ref_of(0x2000000, {-64, 32}, {50, 90}, 2));
  const uint32_t max_bytes = static_cast<uint32_t>(kMaxCacheLines) * 32;
  const std::vector<core::CacheCell> cells = {
      {max_bytes, 32, {1}}, {4096, 32, {2, 4}}, {max_bytes, 32, {2}},
      {max_bytes / 2, 32, {1, 2}}};
  const std::vector<core::CacheCellCounts> got =
      core::simulate_caches(model, cells);
  const std::vector<uint32_t> direct = direct_stream(model);
  ASSERT_EQ(got.size(), cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    ASSERT_TRUE(got[c].status.ok());
    ASSERT_EQ(got[c].caches.size(), cells[c].assocs.size());
    for (size_t a = 0; a < cells[c].assocs.size(); ++a) {
      StampLru oracle(CacheConfig{cells[c].capacity, 32, cells[c].assocs[a]});
      for (uint32_t addr : direct) oracle.access(addr);
      EXPECT_EQ(got[c].caches[a].assoc, cells[c].assocs[a]);
      EXPECT_EQ(got[c].caches[a].hits, oracle.hits());
      EXPECT_EQ(got[c].caches[a].misses, oracle.misses());
    }
  }
  // One line over the limit is refused, not simulated.
  const auto over = core::simulate_caches(model, {{max_bytes * 2, 32, {1}}});
  EXPECT_EQ(over[0].status.code(), util::ErrorCode::kInvalidInput);
  EXPECT_TRUE(over[0].caches.empty());
}

/// A stream for the cascade: a strided walk with long same-line runs
/// (MRU hits at the coarsest level), two references sharing a nest that
/// alternate between blocks (MRU in a fine set, not in the coarse set
/// they share), and a descending walk with conflicts.
core::ForayModel cascade_model() {
  core::ForayModel model;
  model.refs.push_back(ref_of(0x100, {4096, 4}, {40, 300}, 2));
  model.refs.push_back(ref_of(0x1000, {256, 4}, {30, 64}, 2, {1, 2}));
  model.refs.push_back(ref_of(0x9040, {128, 8}, {30, 64}, 2, {1, 2}));
  model.refs.push_back(ref_of(0x2000000, {-64, 32}, {50, 90}, 2));
  return model;
}

TEST(CacheCascade, CellsInAnyOrderMatchTheOracle) {
  const core::ForayModel model = cascade_model();
  // Not sorted by anything. 4096 B 32x2 and 2048 B 32x1 have 64 sets
  // each; 4096 B 32x4 is larger than 2048 B 32x1 with fewer sets (32
  // against 64); 4096 B 32x2 comes twice; 16, 32 and 64 B lines share
  // the pass; 64 B 32x2, 256 B 16x16, 32 B 32x1, 64 B 64x1 and the
  // 16-way way of 1024 B 64-byte lines are 1-set coarsest levels.
  const std::vector<core::CacheCell> cells = {
      {4096, 32, {2}},  {2048, 32, {1}},        {8192, 64, {2}},
      {4096, 32, {4}},  {64, 32, {2}},          {512, 16, {1}},
      {4096, 32, {2}},  {256, 16, {16}},        {1024, 64, {4, 1, 16}},
      {32, 32, {1}},    {16384, 16, {8}},       {64, 64, {1}},
      {1024, 32, {8}},  {8192, 32, {1, 2, 4}},  {128, 16, {2}}};
  expect_cells_exact(model, cells);
  expect_cells_exact(model, std::vector<core::CacheCell>(cells.rbegin(),
                                                         cells.rend()));
  // Each cell alone, where no cascade can reach it.
  for (const core::CacheCell& cell : cells) expect_cells_exact(model, {cell});
}

TEST(CacheCascade, PassesSplitByTheLineLimitEachCascade) {
  // Two kMaxCacheLines-line caches split the list into five passes;
  // most hold several line sizes and set counts in no particular order.
  const core::ForayModel model = cascade_model();
  const uint32_t max32 = static_cast<uint32_t>(kMaxCacheLines) * 32;
  expect_cells_exact(
      model, {{2048, 32, {1}},
              {4096, 32, {4}},
              {max32, 32, {1}},
              {256, 16, {2}},
              {max32 / 2, 32, {2}},
              {64, 32, {2}},
              {max32, 32, {4}},
              {4096, 32, {2}},
              {1024, 64, {2}},
              {128, 16, {1}}});
}

TEST(CacheExactness, OneByteLinesSpanAll32TagBits) {
  // Line 1 with one set: the tag is the whole address, so 0 and
  // 0xFFFFFFFF are real blocks next to empty ways.
  std::vector<uint32_t> addrs = {0, 0xFFFFFFFFu, 0, 0xFFFFFFFEu, 1,
                                 0xFFFFFFFFu, 0, 0, 0xFFFFFFFFu};
  util::Rng rng(7);
  const uint32_t pool[] = {0, 1, 2, 0x80000000u, 0xFFFFFFFDu, 0xFFFFFFFEu,
                           0xFFFFFFFFu, 0x7FFFFFFFu, 17, 0x12345678u};
  for (int i = 0; i < 4000; ++i) addrs.push_back(pool[rng.next_below(10)]);
  for (int ways : kWays) {
    const CacheConfig cfg{static_cast<uint32_t>(ways), 1, ways};
    CacheSim sim(cfg);
    StampLru oracle(cfg);
    for (size_t i = 0; i < addrs.size(); ++i) {
      ASSERT_EQ(sim.access(addrs[i]), oracle.access(addrs[i]))
          << ways << " ways, access " << i;
    }
    EXPECT_EQ(sim.misses(), oracle.misses());
  }
  // The first access of address 0 must miss: an empty way is not block 0.
  CacheSim cold(CacheConfig{1, 1, 1});
  EXPECT_FALSE(cold.access(0));
  EXPECT_TRUE(cold.access(0));
  EXPECT_FALSE(cold.access(0xFFFFFFFFu));
  EXPECT_FALSE(cold.access(0));
}

TEST(CacheExactness, RandomStreamsAccessByAccess) {
  // Small address pools so every set sees hits at every LRU depth,
  // evictions and re-fills; strided walks for conflict patterns.
  util::Rng rng(2024);
  for (uint32_t span : {64u, 1024u, 16384u, 1u << 20}) {
    SCOPED_TRACE(span);
    std::vector<uint32_t> addrs;
    for (int i = 0; i < 3000; ++i) {
      addrs.push_back(static_cast<uint32_t>(rng.next_below(span)));
    }
    for (uint32_t a = 0; a < 64 * span; a += span) addrs.push_back(a);
    expect_access_exact(addrs);
  }
}

TEST(CacheExactness, ResetForgetsEveryWay) {
  const CacheConfig cfg{4 * 32 * 3, 32, 3};
  CacheSim sim(cfg);
  for (uint32_t a = 0; a < 4096; a += 32) sim.access(a);
  sim.reset();
  EXPECT_EQ(sim.accesses(), 0u);
  StampLru oracle(cfg);
  for (uint32_t a = 0; a < 4096; a += 96) {
    EXPECT_EQ(sim.access(a), oracle.access(a));
  }
}

TEST(StreamExactness, EdgeShapesMatchDirectEvaluation) {
  core::ForayModel model;
  // Zero-trip nests, at the outermost and an inner level.
  model.refs.push_back(ref_of(0x1000, {4, 8}, {0, 5}, 2));
  model.refs.push_back(ref_of(0x2000, {4, 8, 1}, {3, 0, 2}, 3, {7, 8, 9}));
  // Depth-0 references: one access each.
  model.refs.push_back(ref_of(0x3000, {}, {}, 0));
  model.refs.push_back(ref_of(-4, {}, {}, 0));
  // Partial references: only the innermost fn.m loops are emitted.
  model.refs.push_back(ref_of(0x4000, {0, 12, 4}, {9, 3, 5}, 2));
  model.refs.push_back(ref_of(0x4800, {0, 0, 4}, {9, 3, 5}, 1));
  // Negative coefficients, walking below address 0 (wraps to 2^32-k).
  model.refs.push_back(ref_of(64, {-32, -4}, {4, 6}, 2, {20, 21}));
  model.refs.push_back(ref_of(0x5000, {256, -4, 1}, {2, 3, 7}, 3));
  // Two references sharing a nest interleave; a third with the same
  // trips but another loop path does not join them.
  model.refs.push_back(ref_of(0x6000, {64, 4}, {3, 4}, 2, {30, 31}));
  model.refs.push_back(ref_of(0x7000, {-64, 8}, {3, 4}, 2, {30, 31}));
  model.refs.push_back(ref_of(0x8000, {64, 4}, {3, 4}, 2, {32, 33}));
  // A deep nest with every level of trip 1 but the innermost.
  model.refs.push_back(ref_of(0x9000, {5, 7, 11, 13, 4}, {1, 1, 1, 1, 9},
                              5, {40, 41, 42, 43, 44}));

  for (const core::ModelReference& ref : model.refs) {
    std::vector<uint32_t> got;
    const uint64_t n = for_each_address(ref, [&](uint32_t a) {
      got.push_back(a);
    });
    EXPECT_EQ(got, direct_stream(ref));
    EXPECT_EQ(n, got.size());
    EXPECT_EQ(addresses_of(ref), got);
  }
  uint64_t count = 0;
  const std::vector<uint32_t> got = stream_of(model, &count);
  EXPECT_EQ(got, direct_stream(model));
  EXPECT_EQ(count, got.size());
  EXPECT_NE(std::find(got.begin(), got.end(), 0xFFFFFFFCu), got.end());
  expect_model_exact(model);
}

// -- the folded walk ------------------------------------------------------------

/// Nests whose loop levels move no reference (coefficient 0): outermost,
/// in the middle, innermost, two adjacent and two apart, at trips 1, 2, 3
/// and 200, one nest of two references folding together, and one whose
/// still reference shares a level with a moving one, which must not fold.
/// Each nest's paths are its own, so nests never merge, and they share
/// sets, so each nest starts from the state the one before it left.
core::ForayModel fold_model(std::vector<uint64_t>* walked_per_nest) {
  core::ForayModel model;
  std::vector<uint64_t>& w = *walked_per_nest;
  // Outermost: 200 runs of 6 rows of 64 B, 512 B apart.
  model.refs.push_back(ref_of(0x1000, {0, 512, 4}, {200, 6, 16}, 3));
  w.push_back(2 * 6 * 16);
  // Middle.
  model.refs.push_back(ref_of(0x1100, {256, 0, 4}, {4, 7, 9}, 3, {10, 11, 12}));
  w.push_back(4 * 2 * 9);
  // Innermost: every address twice in a row, then t - 2 more times.
  model.refs.push_back(ref_of(0x1040, {64, 4, 0}, {5, 6, 3}, 3, {20, 21, 22}));
  w.push_back(5 * 6 * 2);
  // Two adjacent still levels, the inner one of trip 200.
  model.refs.push_back(ref_of(0x1000, {0, 0, 4}, {3, 200, 8}, 3, {30, 31, 32}));
  w.push_back(2 * 2 * 8);
  // Two still levels with a moving one between them.
  model.refs.push_back(
      ref_of(0x1200, {0, 32, 0, 4}, {3, 4, 5, 6}, 4, {40, 41, 42, 43}));
  w.push_back(2 * 4 * 2 * 6);
  // Trips 1 and 2 walk whole; 3 and 200 fold to 2.
  const int64_t still_trips[] = {1, 2, 3, 200};
  for (int k = 0; k < 4; ++k) {
    model.refs.push_back(ref_of(0x1000 + 0x300 * k, {0, 8}, {still_trips[k], 16},
                                2, {50 + 2 * k, 51 + 2 * k}));
    w.push_back(static_cast<uint64_t>(std::min<int64_t>(still_trips[k], 2)) *
                16);
  }
  // Two references of one nest, both still at level 0.
  model.refs.push_back(ref_of(0x1000, {0, 4}, {50, 40}, 2, {60, 61}));
  model.refs.push_back(ref_of(0x1800, {0, 64}, {50, 40}, 2, {60, 61}));
  w.push_back(2 * 2 * 40);
  // Level 0 moves the second reference: nothing folds.
  model.refs.push_back(ref_of(0x1000, {0, 4}, {50, 12}, 2, {70, 71}));
  model.refs.push_back(ref_of(0x1800, {16, 4}, {50, 12}, 2, {70, 71}));
  w.push_back(2 * 50 * 12);
  return model;
}

TEST(FoldedWalk, EveryFoldShapeMatchesTheOracle) {
  std::vector<uint64_t> walked_per_nest;
  const core::ForayModel model = fold_model(&walked_per_nest);
  uint64_t expect_walked = 0;
  for (uint64_t w : walked_per_nest) expect_walked += w;
  uint64_t walked = 0;
  const std::vector<uint32_t> full = unfolded_stream(model, &walked);
  EXPECT_EQ(walked, expect_walked);
  EXPECT_EQ(full.size(), 6 * 16 * 200 + 4 * 7 * 9 + 5 * 6 * 3 + 3 * 200 * 8 +
                             3 * 4 * 5 * 6 + (1 + 2 + 3 + 200) * 16 +
                             2 * 50 * 40 + 2 * 50 * 12);
  expect_model_exact(model);
  // Each nest alone, so its first run starts from cold caches.
  size_t r = 0;
  for (size_t n = 0; n < walked_per_nest.size(); ++n) {
    SCOPED_TRACE(n);
    core::ForayModel alone;
    alone.refs.push_back(model.refs[r++]);
    while (r < model.refs.size() &&
           model.refs[r].loop_path == alone.refs[0].loop_path) {
      alone.refs.push_back(model.refs[r++]);
    }
    uint64_t got = 0;
    EXPECT_EQ(unfolded_stream(alone, &got), direct_stream(alone));
    EXPECT_EQ(got, walked_per_nest[n]);
    expect_cells_exact(alone, all_cells());
  }
}

TEST(FoldedWalk, ChainsOfEveryLineSizeAndSplitPassesShareTheFold) {
  std::vector<uint64_t> unused;
  const core::ForayModel model = fold_model(&unused);
  // 16, 32 and 64 B chains in one pass, several set counts each.
  expect_cells_exact(model, {{512, 16, {1, 2}},
                             {2048, 32, {2}},
                             {64, 64, {1}},
                             {256, 16, {16}},
                             {8192, 64, {2, 4}},
                             {128, 32, {4}},
                             {1024, 32, {1, 8}},
                             {4096, 16, {4}}});
  // kMaxCacheLines-line caches split the cells into several passes.
  const uint32_t max32 = static_cast<uint32_t>(kMaxCacheLines) * 32;
  expect_cells_exact(model, {{256, 16, {2}},
                             {max32, 32, {1}},
                             {1024, 64, {2}},
                             {max32 / 2, 32, {2}},
                             {2048, 32, {4}},
                             {max32, 32, {4}},
                             {128, 16, {1}}});
}

TEST(FoldedWalk, FftWalksAFewThousandOfItsAddresses) {
  const core::PipelineResult res =
      core::run_pipeline(benchsuite::get_benchmark("fft").source);
  ASSERT_TRUE(res.ok()) << res.error();
  const uint64_t full = for_each_address(res.model, [](uint32_t) {});
  const uint64_t walked = for_each_address_folded(
      res.model, [](uint32_t) {}, [] {}, [](uint64_t) {});
  EXPECT_EQ(full, 473792u);
  EXPECT_LE(walked, 5000u);
}

// -- the benchsuite's counts against the golden --------------------------------

// Every golden below holds the VM and the tree-walking oracle to the
// same bytes.
using oracle::engine_name;
using oracle::kEngines;

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(FORAY_SOURCE_DIR) + "/tests/golden/" + name);
  EXPECT_TRUE(in) << "tests/golden/" << name;
  std::ostringstream golden;
  golden << in.rdbuf();
  return golden.str();
}

TEST(CacheGolden, BenchsuiteSweepMatchesTheGolden) {
  // The grid of `foraygen sweep --no-cache --capacity-sweep ...
  // --cache-sweep ...` that CI projects onto the same golden: one line
  // per point, its caches' counts or its error.
  const std::string golden = read_golden("cache_counts.txt");
  for (sim::Engine engine : kEngines) {
    driver::SweepOptions o;
    o.threads = 2;
    o.pipeline.run.engine = engine;
    ASSERT_TRUE(o.spec
                    .parse_axis("capacity",
                                "256,512,1000,1024,2048,3072,4096,8192,16384,"
                                "32768,65536")
                    .ok());
    ASSERT_TRUE(
        o.spec.parse_axis("cache", "16x1,32x2,64x4,32x3,8x8,128x1").ok());
    const driver::SweepReport report =
        driver::SweepDriver(o).run(driver::SweepDriver::benchsuite_jobs());
    std::string got;
    for (const driver::SweepItem& item : report.items) {
      got += item.program + " " + std::to_string(item.point.capacity_bytes) +
             " " + item.point.cache.label + ":";
      if (!item.status.ok()) {
        got += ' ';
        got += item.status.message();
        got += '\n';
        continue;
      }
      for (const core::SpmReport::CacheComparison& c : item.spm.caches) {
        got += ' ';
        got += std::to_string(c.assoc);
        got += "-way ";
        got += std::to_string(c.hits);
        got += " hits ";
        got += std::to_string(c.misses);
        got += " misses";
      }
      got += "\n";
    }
    EXPECT_EQ(got, golden) << engine_name(engine);
  }
}

TEST(DseGolden, BenchsuiteSelectionsMatchTheGolden) {
  // The warm_dse grid without its cache axis, `foraygen sweep --no-cache
  // --capacity-sweep 256,...,32768 --energy-sweep default,dram-heavy,
  // lowpower-dram,fast-spm,cache-costly --algo-sweep dp,greedy`, that CI
  // projects onto the same golden: one line per point, its selection's
  // size, bytes and savings (%.17g, so every bit shows), at 1 and 4
  // threads.
  const std::string golden = read_golden("dse_selections.txt");
  for (sim::Engine engine : kEngines) {
    for (int threads : {1, 4}) {
      driver::SweepOptions o;
      o.threads = threads;
      o.pipeline.run.engine = engine;
      ASSERT_TRUE(o.spec
                      .parse_axis("capacity",
                                  "256,512,1024,2048,4096,8192,16384,32768")
                      .ok());
      ASSERT_TRUE(o.spec
                      .parse_axis("energy",
                                  "default,dram-heavy,lowpower-dram,fast-spm,"
                                  "cache-costly")
                      .ok());
      ASSERT_TRUE(o.spec.parse_axis("algorithm", "dp,greedy").ok());
      const driver::SweepReport report =
          driver::SweepDriver(o).run(driver::SweepDriver::benchsuite_jobs());
      std::string got;
      for (const driver::SweepItem& item : report.items) {
        got += item.program + " " + std::to_string(item.point.capacity_bytes) +
               " " + item.point.energy_name + " " +
               driver::algorithm_name(item.point.algorithm) + ":";
        if (!item.status.ok()) {
          got += ' ';
          got += item.status.message();
          got += '\n';
          continue;
        }
        const spm::Selection& sel = item.selection();
        char line[160];
        std::snprintf(line, sizeof line,
                      " %zu buffers %llu B saved %.17g exact %.17g greedy "
                      "%.17g\n",
                      sel.chosen.size(),
                      static_cast<unsigned long long>(sel.bytes_used),
                      sel.saved_nj, item.spm.exact.saved_nj,
                      item.spm.greedy.saved_nj);
        got += line;
      }
      EXPECT_EQ(got, golden) << engine_name(engine) << ", " << threads
                             << " threads";
    }
  }
}

TEST(ReplayGolden, BenchsuiteReplaySweepMatchesTheGolden) {
  // `foraygen sweep --capacity-sweep 1024,4096,16384 --replay --no-cache
  // --ndjson`, byte for byte, at 1 and 4 threads, profiled and replayed
  // on each engine: every point's replay check, the grid CI's
  // transform-replay step compares with the same golden.
  const std::string golden = read_golden("replay_sweeps.ndjson");
  for (sim::Engine engine : kEngines) {
    for (int threads : {1, 4}) {
      driver::SweepOptions o;
      o.threads = threads;
      o.pipeline.run.engine = engine;
      ASSERT_TRUE(o.spec.parse_axis("capacity", "1024,4096,16384").ok());
      ASSERT_TRUE(o.spec.parse_axis("replay", "on").ok());
      std::ostringstream got;
      ASSERT_TRUE(driver::SweepDriver(o)
                      .run_ndjson(driver::SweepDriver::benchsuite_jobs(), got)
                      .ok());
      EXPECT_EQ(got.str(), golden)
          << engine_name(engine) << ", " << threads << " threads";
    }
  }
}

TEST(ReplayGolden, TransformedProgramStepsMatchTheGolden) {
  // What replay costs: the steps and replay-view records of each distinct
  // transformed program the energy grid below replays (12 of them), and
  // their totals, at 1 and 4 threads. Steps are the bytecode VM's (the
  // engines count them differently), like tests/golden/run_steps.txt. A
  // transformed program that stops sharing the model program's nests
  // runs more steps than this.
  const std::string golden = read_golden("replay_steps.txt");
  for (int threads : {1, 4}) {
    driver::SweepOptions o;
    o.threads = threads;
    ASSERT_TRUE(o.spec.parse_axis("capacity", "1024,4096,16384").ok());
    ASSERT_TRUE(
        o.spec.parse_axis("energy", "default,dram-heavy,fast-spm").ok());
    const driver::SweepReport report =
        driver::SweepDriver(o).run(driver::SweepDriver::benchsuite_jobs());
    sim::RunOptions run = o.pipeline.run;
    run.engine = sim::Engine::Bytecode;
    std::vector<std::string> seen;
    uint64_t steps = 0, records = 0;
    std::string got;
    for (const driver::SweepItem& item : report.items) {
      ASSERT_TRUE(item.status.ok()) << item.status.message();
      const core::ForayModel& model = report.results[item.key.job].model;
      const std::string source =
          spm::emit_transformed(model, item.spm.exact);
      if (std::find(seen.begin(), seen.end(), source) != seen.end()) {
        continue;
      }
      seen.push_back(source);
      const spm::ReplaySimulation sim =
          spm::simulate_replay(model, item.spm.exact, source, run);
      ASSERT_TRUE(sim.status.ok()) << sim.status.message();
      steps += sim.steps;
      records += sim.view_records;
      got += item.program + " " +
             std::to_string(item.point.capacity_bytes) + " " +
             item.point.energy_name + ": steps " +
             std::to_string(sim.steps) + " view_records " +
             std::to_string(sim.view_records) + "\n";
    }
    got += "total " + std::to_string(seen.size()) + " programs: steps " +
           std::to_string(steps) + " view_records " +
           std::to_string(records) + "\n";
    EXPECT_EQ(got, golden) << threads << " threads";
  }
}

TEST(ReplayGolden, EnergySweepsSimulateEachTransformedProgramOnce) {
  // `foraygen sweep --capacity-sweep 1024,4096,16384 --energy-sweep
  // default,dram-heavy,fast-spm --replay --no-cache --ndjson`, byte for
  // byte: 54 replay groups whose exact selections emit 12 distinct
  // programs. One memo simulates each once; a second pass through it
  // simulates none and writes the same bytes.
  const std::string golden = read_golden("replay_energy_sweeps.ndjson");
  for (sim::Engine engine : kEngines) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(engine_name(engine));
      driver::ReplayMemo memo;
      driver::SweepOptions o;
      o.threads = threads;
      o.pipeline.run.engine = engine;
      o.replay_memo = &memo;
      ASSERT_TRUE(o.spec.parse_axis("capacity", "1024,4096,16384").ok());
      ASSERT_TRUE(
          o.spec.parse_axis("energy", "default,dram-heavy,fast-spm").ok());
      ASSERT_TRUE(o.spec.parse_axis("replay", "on").ok());
      for (int pass = 1; pass <= 2; ++pass) {
        std::ostringstream got;
        ASSERT_TRUE(driver::SweepDriver(o)
                        .run_ndjson(driver::SweepDriver::benchsuite_jobs(), got)
                        .ok());
        EXPECT_EQ(got.str(), golden) << threads << " threads, pass " << pass;
        const driver::ReplayMemo::Stats s = memo.stats();
        EXPECT_EQ(s.simulations, 12u) << threads << " threads, pass " << pass;
        EXPECT_EQ(s.hits + s.simulations, 54u * pass)
            << threads << " threads, pass " << pass;
        EXPECT_EQ(s.evictions, 0u);
      }
    }
  }
}

TEST(ElisionGolden, BenchsuiteAndKeptScalarProgramsMatchTheGolden) {
  // `foraygen sweep [p] --no-cache --capacity-sweep 1024,4096,16384
  // --ndjson -` over the benchsuite and then each tests/programs/*.mc,
  // concatenated, at 1 and 4 threads, on each engine: the eliding fused
  // pass, and its fall back to full tracing on the kept-scalar programs,
  // must stream what the full-trace replay generated.
  const std::string golden = read_golden("elision_sweeps.ndjson");
  const std::string dir = std::string(FORAY_SOURCE_DIR) + "/tests/programs";
  std::vector<std::string> names;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".mc") {
      names.push_back(e.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  std::vector<std::vector<driver::SweepJob>> runs = {
      driver::SweepDriver::benchsuite_jobs()};
  for (const std::string& name : names) {
    std::ifstream in(dir + "/" + name, std::ios::binary);
    std::ostringstream source;
    source << in.rdbuf();
    runs.push_back({driver::SweepJob{"tests/programs/" + name, source.str()}});
  }
  for (sim::Engine engine : kEngines) {
    for (int threads : {1, 4}) {
      std::ostringstream got;
      for (const std::vector<driver::SweepJob>& jobs : runs) {
        driver::SweepOptions o;
        o.threads = threads;
        o.pipeline.run.engine = engine;
        ASSERT_TRUE(o.spec.parse_axis("capacity", "1024,4096,16384").ok());
        ASSERT_TRUE(driver::SweepDriver(o).run_ndjson(jobs, got).ok())
            << jobs.front().name;
      }
      EXPECT_EQ(got.str(), golden)
          << engine_name(engine) << ", " << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace foray::spm
