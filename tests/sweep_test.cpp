// The sweep API: spec parsing, deterministic grid expansion, structured
// PointKey lookup, Pareto extraction, and the two contracts inherited
// from the batch driver and extended to the full multi-axis grid —
// byte-identical NDJSON whatever the thread count, with or without a
// collector attached, and per-job failure isolation.
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "driver/model_cache.h"
#include "driver/sweep.h"
#include "foray/pipeline.h"
#include "spm/energy.h"
#include "spm/replay.h"
#include "util/fault.h"
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

const char* kParseError = "int main(void) { return 0;";  // no brace

std::vector<SweepJob> good_jobs() {
  return {{"alpha", kGood}, {"beta", kGood2}};
}

SweepOptions sweep_opts(int threads) {
  SweepOptions o;
  o.threads = threads;
  o.pipeline.filter.min_exec = 1;
  o.pipeline.filter.min_locations = 1;
  return o;
}

// -- energy presets -----------------------------------------------------------

TEST(EnergyPresets, DefaultFirstAndFindable) {
  const auto& presets = spm::energy_presets();
  ASSERT_FALSE(presets.empty());
  EXPECT_STREQ(presets.front().name, "default");
  EXPECT_DOUBLE_EQ(presets.front().model.dram_nj,
                   spm::EnergyModel{}.dram_nj);
  ASSERT_NE(spm::find_energy_preset("dram-heavy"), nullptr);
  EXPECT_GT(spm::find_energy_preset("dram-heavy")->model.dram_nj,
            spm::EnergyModel{}.dram_nj);
  EXPECT_EQ(spm::find_energy_preset("nope"), nullptr);
}

TEST(EnergyPresets, ParseWithOverrides) {
  spm::EnergyModel m;
  std::string err;
  ASSERT_TRUE(spm::parse_energy_model(
      "default:dram_nj=9.5:spm_1kb_nj=0.01", &m, &err))
      << err;
  EXPECT_DOUBLE_EQ(m.dram_nj, 9.5);
  EXPECT_DOUBLE_EQ(m.spm_1kb_nj, 0.01);
  // Untouched fields keep the preset's values.
  EXPECT_DOUBLE_EQ(m.cache_overhead, spm::EnergyModel{}.cache_overhead);
}

TEST(EnergyPresets, ParseRejectsUnknownsByName) {
  spm::EnergyModel m;
  std::string err;
  EXPECT_FALSE(spm::parse_energy_model("martian", &m, &err));
  EXPECT_NE(err.find("martian"), std::string::npos);
  EXPECT_FALSE(spm::parse_energy_model("default:warp_nj=1", &m, &err));
  EXPECT_NE(err.find("warp_nj"), std::string::npos);
  EXPECT_FALSE(spm::parse_energy_model("default:dram_nj=abc", &m, &err));
  EXPECT_NE(err.find("dram_nj=abc"), std::string::npos);
  // Non-finite overrides would poison the energy counters and the
  // Pareto ordering; they are spec errors.
  EXPECT_FALSE(spm::parse_energy_model("default:dram_nj=nan", &m, &err));
  EXPECT_FALSE(spm::parse_energy_model("default:dram_nj=inf", &m, &err));
  EXPECT_FALSE(spm::parse_energy_model("default:dram_nj=-inf", &m, &err));
}

// -- spec parsing -------------------------------------------------------------

TEST(SweepSpec, ParsesEveryAxis) {
  SweepSpec s;
  ASSERT_TRUE(s.parse_axis("capacity", "512, 1024").ok());
  EXPECT_EQ(s.capacities, (std::vector<uint32_t>{512, 1024}));
  ASSERT_TRUE(s.parse_axis("energy", "default, dram-heavy:dram_nj=9.5").ok());
  ASSERT_EQ(s.energy_models.size(), 2u);
  EXPECT_EQ(s.energy_models[1].name, "dram-heavy:dram_nj=9.5");
  EXPECT_DOUBLE_EQ(s.energy_models[1].model.dram_nj, 9.5);
  ASSERT_TRUE(s.parse_axis("cache", "off, 64x4").ok());
  ASSERT_EQ(s.caches.size(), 2u);
  EXPECT_FALSE(s.caches[0].enabled);
  EXPECT_TRUE(s.caches[1].enabled);
  EXPECT_EQ(s.caches[1].line_bytes, 64u);
  EXPECT_EQ(s.caches[1].assocs, (std::vector<int>{4}));
  ASSERT_TRUE(s.parse_axis("algorithm", "dp, greedy").ok());
  EXPECT_EQ(s.algorithms,
            (std::vector<Algorithm>{Algorithm::kExactDp,
                                    Algorithm::kGreedy}));
  ASSERT_TRUE(s.parse_axis("replay", "off, on").ok());
  EXPECT_EQ(s.replays, (std::vector<bool>{false, true}));
}

TEST(SweepSpec, RejectsBadValuesByName) {
  SweepSpec s;
  util::Status st = s.parse_axis("capacity", "1024,0");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'0'"), std::string::npos);
  st = s.parse_axis("cache", "32");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'32'"), std::string::npos);
  st = s.parse_axis("cache", "33x2");  // line not a power of two
  EXPECT_FALSE(st.ok());
  st = s.parse_axis("cache", "32x1025");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("'32x1025' is out of range (max 1024 ways)"),
            std::string::npos)
      << st.message();
  st = s.parse_axis("energy", "default,warp-drive");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("unknown energy preset 'warp-drive'"),
            std::string::npos)
      << st.message();
  st = s.parse_axis("algorithm", "knapsack");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("knapsack"), std::string::npos);
  st = s.parse_axis("replay", "maybe");
  EXPECT_FALSE(st.ok());
  st = s.parse_axis("turbo", "on");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("turbo"), std::string::npos);
}

TEST(SweepSpec, ParsesSpecFileWithComments) {
  SweepSpec s;
  const char* text =
      "# a sweep spec\n"
      "capacity = 256, 4096   # two sizes\n"
      "\n"
      "energy = default:dram_nj=5.5\n"
      "replay = off\n";
  util::Status st = s.parse_file(text);
  ASSERT_TRUE(st.ok()) << st.message();
  EXPECT_EQ(s.capacities, (std::vector<uint32_t>{256, 4096}));
  ASSERT_EQ(s.energy_models.size(), 1u);
  EXPECT_DOUBLE_EQ(s.energy_models[0].model.dram_nj, 5.5);
  EXPECT_EQ(s.replays, (std::vector<bool>{false}));
}

TEST(SweepSpec, SpecFileErrorsCarryLineNumbers) {
  SweepSpec s;
  util::Status st = s.parse_file("capacity = 1024\nwarp = on\n");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.first_line(), 2);
  EXPECT_NE(st.message().find("warp"), std::string::npos);
  st = s.parse_file("just words\n");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.first_line(), 1);
}

// -- grid expansion -----------------------------------------------------------

TEST(SweepGrid, ExpandsRowMajorLastAxisFastest) {
  SweepSpec spec;
  ASSERT_TRUE(spec.parse_axis("capacity", "1024,4096").ok());
  ASSERT_TRUE(spec.parse_axis("energy", "default,dram-heavy").ok());
  ASSERT_TRUE(spec.parse_axis("replay", "off,on").ok());
  SweepGrid grid = SweepGrid::expand(spec, core::PipelineOptions{});
  ASSERT_EQ(grid.points_per_job(), 8u);
  // capacity is the slowest axis, replay the fastest.
  EXPECT_EQ(grid.points[0].capacity_bytes, 1024u);
  EXPECT_EQ(grid.points[0].energy_name, "default");
  EXPECT_FALSE(grid.points[0].replay);
  EXPECT_TRUE(grid.points[1].replay);
  EXPECT_EQ(grid.points[2].energy_name, "dram-heavy");
  EXPECT_EQ(grid.points[4].capacity_bytes, 4096u);
  // flat_index inverts the expansion order.
  for (size_t i = 0; i < grid.points.size(); ++i) {
    EXPECT_EQ(grid.flat_index(grid.points[i].key), i);
  }
}

TEST(SweepGrid, EmptyAxesInheritBaseOptions) {
  core::PipelineOptions base;
  base.spm.dse.spm_capacity = 2048;
  base.spm.compare_cache = true;
  SweepGrid grid = SweepGrid::expand(SweepSpec{}, base);
  ASSERT_EQ(grid.points_per_job(), 1u);
  const SweepPoint& p = grid.points[0];
  EXPECT_EQ(p.capacity_bytes, 2048u);
  EXPECT_EQ(p.energy_name, "default");
  EXPECT_TRUE(p.cache.enabled);
  EXPECT_EQ(p.cache.label, "base");
  EXPECT_EQ(p.cache.assocs, base.spm.cache_assocs);
  EXPECT_FALSE(p.replay);  // an undeclared replay axis is off
}

TEST(SweepGrid, FlatIndexIsBoundsChecked) {
  SweepGrid grid = SweepGrid::expand(SweepSpec{}, core::PipelineOptions{});
  PointKey bad;
  bad.energy = 1;
  EXPECT_THROW(grid.flat_index(bad), util::InternalError);
}

// -- the driver ---------------------------------------------------------------

TEST(SweepDriver, PointsResolveEveryAxisCombination) {
  SweepOptions o = sweep_opts(2);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "256,4096").ok());
  ASSERT_TRUE(o.spec.parse_axis("energy", "default,dram-heavy").ok());
  ASSERT_TRUE(o.spec.parse_axis("cache", "off,32x2").ok());
  auto report = SweepDriver(o).run(good_jobs());
  ASSERT_EQ(report.items.size(), 2u * 8u);
  for (const auto& item : report.items) {
    ASSERT_TRUE(item.status.ok()) << item.status.message();
    EXPECT_GT(item.model_refs, 0u);
    // The cache axis controls the per-point comparison.
    EXPECT_EQ(item.spm.caches.size(),
              item.point.cache.enabled ? 1u : 0u);
  }
  // A dram-heavy point out-saves the default at the same capacity.
  const SweepItem& def = report.at(PointKey{0, 1, 0, 0, 0, 0});
  const SweepItem& heavy = report.at(PointKey{0, 1, 1, 0, 0, 0});
  EXPECT_GT(heavy.selection().saved_nj, def.selection().saved_nj);
}

TEST(SweepDriver, AtIsBoundsChecked) {
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "256,1024").ok());
  auto report = SweepDriver(o).run(good_jobs());
  PointKey ok_key{1, 1, 0, 0, 0, 0};
  EXPECT_EQ(&report.at(ok_key), &report.items[3]);
  PointKey bad_job{2, 0, 0, 0, 0, 0};
  EXPECT_THROW(report.at(bad_job), util::InternalError);
  PointKey bad_cap{0, 2, 0, 0, 0, 0};
  EXPECT_THROW(report.at(bad_cap), util::InternalError);
}

TEST(SweepDriver, NdjsonByteIdenticalAcrossThreadCounts) {
  SweepOptions seq = sweep_opts(1);
  ASSERT_TRUE(seq.spec.parse_axis("capacity", "256,1024,4096").ok());
  ASSERT_TRUE(seq.spec.parse_axis("energy", "default,fast-spm").ok());
  SweepOptions par = seq;
  par.threads = 4;
  auto jobs = good_jobs();

  std::ostringstream s1, s4;
  ASSERT_TRUE(SweepDriver(seq).run_ndjson(jobs, s1).ok());
  ASSERT_TRUE(SweepDriver(par).run_ndjson(jobs, s4).ok());
  EXPECT_EQ(s1.str(), s4.str());
  // Profiled on the tree-walking oracle, the stream is the same bytes.
  SweepOptions on_ast = par;
  on_ast.pipeline.run.engine = sim::Engine::Ast;
  std::ostringstream s_ast;
  ASSERT_TRUE(SweepDriver(on_ast).run_ndjson(jobs, s_ast).ok());
  EXPECT_EQ(s_ast.str(), s1.str());
  EXPECT_EQ(SweepDriver(seq).run(jobs).table(),
            SweepDriver(par).run(jobs).table());
}

TEST(SweepDriver, CollectorDoesNotChangeTheStream) {
  SweepOptions o = sweep_opts(3);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "256,4096").ok());
  ASSERT_TRUE(o.spec.parse_axis("cache", "off,32x2").ok());
  ASSERT_TRUE(o.spec.parse_axis("algorithm", "dp,greedy").ok());
  ASSERT_TRUE(o.spec.parse_axis("replay", "off,on").ok());
  const std::vector<SweepJob> jobs = {
      {"ok", kGood}, {"bad", kParseError}, {"ok2", kGood2}};
  std::ostringstream plain, collected;
  const util::Status st = SweepDriver(o).run_ndjson(jobs, plain);
  SweepReport report;
  const util::Status st2 =
      SweepDriver(o).run_ndjson(jobs, collected, nullptr, &report);
  EXPECT_EQ(collected.str(), plain.str());
  EXPECT_EQ(st2.code(), st.code());
  EXPECT_EQ(st2.message(), st.message());
  // The collector holds the grid the stream wrote.
  ASSERT_EQ(report.items.size(), jobs.size() * 16);
  ASSERT_EQ(report.results.size(), jobs.size());
  EXPECT_TRUE(report.results[0].model_built);
  EXPECT_TRUE(report.pareto(1).empty());
  EXPECT_FALSE(report.pareto(2).empty());
  // A collector and a resume checkpoint cannot be combined.
  SweepCheckpoint checkpoint;
  ASSERT_TRUE(SweepDriver(o).parse_resume(plain.str(), &checkpoint).ok());
  std::ostringstream again;
  EXPECT_THROW(SweepDriver(o).run_ndjson(jobs, again, &checkpoint, &report),
               util::InternalError);
}

TEST(SweepDriver, GreedyAxisPointsReportGreedySelection) {
  SweepOptions o = sweep_opts(2);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "1024").ok());
  ASSERT_TRUE(o.spec.parse_axis("algorithm", "dp,greedy").ok());
  auto report = SweepDriver(o).run(good_jobs());
  const SweepItem& dp = report.at(PointKey{0, 0, 0, 0, 0, 0});
  const SweepItem& greedy = report.at(PointKey{0, 0, 0, 0, 1, 0});
  EXPECT_EQ(&dp.selection(), &dp.spm.exact);
  EXPECT_EQ(&greedy.selection(), &greedy.spm.greedy);
  // The exact DP point's headline energy is spm_phase's evaluation
  // verbatim; the greedy point's is recomputed for its own selection.
  EXPECT_DOUBLE_EQ(dp.energy.total_nj, dp.spm.with_spm.total_nj);
  EXPECT_GE(greedy.energy.total_nj, dp.energy.total_nj);
  EXPECT_GT(greedy.energy.baseline_nj, 0.0);
}

TEST(SweepDriver, ReplayAxisValidatesPerPoint) {
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "1024").ok());
  ASSERT_TRUE(o.spec.parse_axis("replay", "off,on").ok());
  auto report = SweepDriver(o).run({{"alpha", kGood}});
  const SweepItem& off = report.at(PointKey{0, 0, 0, 0, 0, 0});
  const SweepItem& on = report.at(PointKey{0, 0, 0, 0, 0, 1});
  EXPECT_FALSE(off.replay_ran);
  ASSERT_TRUE(on.replay_ran);
  EXPECT_TRUE(on.replay.matches());
}

TEST(SweepDriver, ParetoFrontierIsStrictlyImproving) {
  SweepOptions o = sweep_opts(2);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "64,256,1024,4096").ok());
  ASSERT_TRUE(o.spec.parse_axis("algorithm", "dp,greedy").ok());
  auto report = SweepDriver(o).run(good_jobs());
  for (size_t j = 0; j < report.programs.size(); ++j) {
    auto front = report.pareto(j);
    ASSERT_FALSE(front.empty());
    for (size_t i = 1; i < front.size(); ++i) {
      // Sorted by bytes, strictly better in both coordinates.
      EXPECT_GT(front[i].bytes_used, front[i - 1].bytes_used);
      EXPECT_GT(front[i].saved_nj, front[i - 1].saved_nj);
    }
    // Frontier points resolve through at() and agree with the item.
    for (const auto& p : front) {
      const SweepItem& item = report.at(p.key);
      EXPECT_EQ(item.selection().bytes_used, p.bytes_used);
      EXPECT_DOUBLE_EQ(item.selection().saved_nj, p.saved_nj);
    }
    // No grid point dominates a frontier point.
    for (const auto& p : front) {
      for (size_t i = 0; i < report.grid.points_per_job(); ++i) {
        const SweepItem& item =
            report.items[j * report.grid.points_per_job() + i];
        if (!item.status.ok()) continue;
        const bool dominates =
            item.selection().bytes_used <= p.bytes_used &&
            item.selection().saved_nj > p.saved_nj;
        EXPECT_FALSE(dominates);
      }
    }
  }
  auto agg = report.pareto_aggregate();
  ASSERT_FALSE(agg.empty());
  for (size_t i = 1; i < agg.size(); ++i) {
    EXPECT_GT(agg[i].bytes_used, agg[i - 1].bytes_used);
    EXPECT_GT(agg[i].saved_nj, agg[i - 1].saved_nj);
  }
}

TEST(SweepDriver, FailingJobIsIsolatedAndSkippedInAggregate) {
  SweepOptions o = sweep_opts(3);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "256,1024").ok());
  auto report = SweepDriver(o).run(
      {{"ok", kGood}, {"bad", kParseError}, {"ok2", kGood2}});
  ASSERT_EQ(report.items.size(), 6u);
  EXPECT_TRUE(report.at(PointKey{0, 1, 0, 0, 0, 0}).status.ok());
  EXPECT_FALSE(report.at(PointKey{1, 0, 0, 0, 0, 0}).status.ok());
  EXPECT_EQ(report.at(PointKey{1, 0, 0, 0, 0, 0}).status.phase(), "parse");
  EXPECT_TRUE(report.at(PointKey{2, 0, 0, 0, 0, 0}).status.ok());
  // The failed program still has table rows and an empty frontier; the
  // aggregate skips points any program failed at — here all of them.
  EXPECT_NE(report.table().find("FAILED"), std::string::npos);
  EXPECT_TRUE(report.pareto(1).empty());
  EXPECT_TRUE(report.pareto_aggregate().empty());
  EXPECT_FALSE(report.pareto(0).empty());
  // The stream surfaces the first failure but writes the whole grid,
  // the same bytes with the collector attached.
  std::ostringstream cold, collected;
  const std::vector<SweepJob> jobs = {
      {"ok", kGood}, {"bad", kParseError}, {"ok2", kGood2}};
  util::Status st = SweepDriver(o).run_ndjson(jobs, cold);
  EXPECT_FALSE(st.ok());
  SweepReport again;
  EXPECT_FALSE(
      SweepDriver(o).run_ndjson(jobs, collected, nullptr, &again).ok());
  EXPECT_EQ(collected.str(), cold.str());
  EXPECT_EQ(again.table(), report.table());
}

TEST(SweepDriver, BrokenProgramYieldsClassifiedRowsOthersUnchanged) {
  // One broken program in the job list: its points become structured
  // error rows (error_class + phase), identical whatever the thread
  // count, and every other program's rows are byte-identical to a run
  // that never included the broken program at all.
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "256,1024").ok());
  const std::vector<SweepJob> with_bad = {
      {"ok", kGood}, {"ok2", kGood2}, {"bad", kParseError}};
  const std::vector<SweepJob> without_bad = {{"ok", kGood},
                                             {"ok2", kGood2}};

  std::ostringstream faulty1, faulty4, clean;
  EXPECT_FALSE(SweepDriver(o).run_ndjson(with_bad, faulty1).ok());
  SweepOptions o4 = sweep_opts(4);
  ASSERT_TRUE(o4.spec.parse_axis("capacity", "256,1024").ok());
  EXPECT_FALSE(SweepDriver(o4).run_ndjson(with_bad, faulty4).ok());
  EXPECT_EQ(faulty1.str(), faulty4.str());
  ASSERT_TRUE(SweepDriver(o).run_ndjson(without_bad, clean).ok());

  auto lines_of = [](const std::string& text) {
    std::vector<std::string> lines;
    size_t pos = 0;
    while (pos < text.size()) {
      size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) nl = text.size();
      lines.push_back(text.substr(pos, nl - pos));
      pos = nl + 1;
    }
    return lines;
  };
  auto rows_mentioning = [&](const std::string& text, const char* name) {
    std::vector<std::string> rows;
    // Matches point and pareto rows alike; the closing quote keeps "ok"
    // from matching "ok2".
    const std::string needle =
        std::string("\"program\":\"") + name + "\"";
    for (const std::string& line : lines_of(text)) {
      if (line.find(needle) != std::string::npos) rows.push_back(line);
    }
    return rows;
  };

  // Error rows exist, only for "bad", and carry class + phase.
  int error_rows = 0;
  for (const std::string& line : lines_of(faulty1.str())) {
    if (line.find("\"ok\":false") == std::string::npos) continue;
    ++error_rows;
    EXPECT_NE(line.find("\"program\":\"bad\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"error_class\":\"invalid_input\""),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("\"phase\":\"parse\""), std::string::npos) << line;
  }
  EXPECT_EQ(error_rows, 2);  // one per capacity

  // The healthy programs' rows are byte-identical with and without the
  // broken job (it is last, so their job indices agree).
  EXPECT_EQ(rows_mentioning(faulty1.str(), "ok"),
            rows_mentioning(clean.str(), "ok"));
  EXPECT_EQ(rows_mentioning(faulty1.str(), "ok2"),
            rows_mentioning(clean.str(), "ok2"));
}

/// Every item of `report` against a fresh single-cell simulate_caches of
/// its point: the same counts, priced the same, or the same failure.
void expect_items_match_single_cells(const SweepReport& report,
                                     const SweepOptions& o) {
  for (const auto& item : report.items) {
    const core::SpmPhaseOptions popts = item.point.spm_options(o.pipeline.spm);
    if (!popts.compare_cache) {
      ASSERT_TRUE(item.status.ok()) << item.status.message();
      EXPECT_TRUE(item.spm.caches.empty());
      continue;
    }
    const core::CacheCellCounts solo = core::simulate_caches(
        report.results[item.key.job].model,
        {core::CacheCell{popts.dse.spm_capacity, popts.cache_line_bytes,
                         popts.cache_assocs}})[0];
    SCOPED_TRACE(item.program + " @" +
                 std::to_string(item.point.capacity_bytes) + " " +
                 item.point.cache.label);
    if (!solo.status.ok()) {
      EXPECT_EQ(item.status.code(), util::ErrorCode::kInvalidInput);
      EXPECT_EQ(item.status.message(), solo.status.message());
      continue;
    }
    ASSERT_TRUE(item.status.ok()) << item.status.message();
    auto priced = solo.caches;
    core::price_caches(popts, &priced);
    ASSERT_EQ(item.spm.caches.size(), priced.size());
    for (size_t a = 0; a < priced.size(); ++a) {
      EXPECT_EQ(item.spm.caches[a].assoc, priced[a].assoc);
      EXPECT_EQ(item.spm.caches[a].hits, priced[a].hits);
      EXPECT_EQ(item.spm.caches[a].misses, priced[a].misses);
      EXPECT_EQ(item.spm.caches[a].energy_nj, priced[a].energy_nj);
    }
  }
}

std::string ndjson_of(const SweepOptions& o, const std::vector<SweepJob>& jobs,
                      const SweepCheckpoint* resume = nullptr) {
  std::ostringstream out;
  EXPECT_EQ(SweepDriver(o).run_ndjson(jobs, out, resume).code(),
            util::ErrorCode::kInvalidInput);
  return out.str();
}

TEST(SweepDriver, OnePassCacheTableEqualsPerCellSimulation) {
  // One pass per job fills every cell; each must equal that cell
  // simulated alone. 3072 B fails 32x2 (48 sets) and 64x4 (12 sets);
  // 256 B and 4096 B fail 32x3 (not whole 96 B sets); every other cell
  // solves, and two energy presets share each cell.
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "256,3072,4096").ok());
  ASSERT_TRUE(o.spec.parse_axis("energy", "default,fast-spm").ok());
  ASSERT_TRUE(o.spec.parse_axis("cache", "off,32x2,64x4,32x3").ok());
  const std::vector<SweepJob> jobs = good_jobs();
  SweepReport report;
  std::ostringstream collected;
  EXPECT_FALSE(
      SweepDriver(o).run_ndjson(jobs, collected, nullptr, &report).ok());
  ASSERT_EQ(report.items.size(), 2u * 3 * 2 * 4);
  expect_items_match_single_cells(report, o);
  size_t failed = 0;
  for (const auto& item : report.items) failed += item.status.ok() ? 0 : 1;
  EXPECT_EQ(failed, 2u * 2 * 4);  // per job: 2 presets x 4 bad cells

  // The same bytes at 4 threads, and from a warm model cache.
  const std::string cold = collected.str();
  SweepOptions o4 = o;
  o4.threads = 4;
  EXPECT_EQ(ndjson_of(o4, jobs), cold);
  ModelCache cache(ModelCacheOptions{/*dir=*/""});
  o4.model_cache = &cache;
  EXPECT_EQ(ndjson_of(o4, jobs), cold);
  EXPECT_EQ(ndjson_of(o4, jobs), cold);
  EXPECT_EQ(cache.stats().hits, 2u);

  // Resume from a journal that holds every cache-on point of 4096 B (its
  // 32x3 points failed, so they are not held): the pass simulates the
  // other capacities' cells and 4096 B's 32x3 only, and the output is the
  // uninterrupted run's.
  std::string journal;
  std::istringstream lines(cold);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"kind\":\"sweep\"") != std::string::npos ||
        (line.find("\"capacity_bytes\":4096,") != std::string::npos &&
         line.find("\"cache\":\"off\"") == std::string::npos)) {
      journal += line + "\n";
    }
  }
  const SweepDriver driver(o);
  SweepCheckpoint checkpoint;
  ASSERT_TRUE(driver.parse_resume(journal, &checkpoint).ok());
  const SweepGrid& grid = driver.grid();
  for (size_t job = 0; job < jobs.size(); ++job) {
    const std::vector<bool> needed =
        cache_cells_needed(grid, checkpoint, job);
    ASSERT_EQ(needed.size(), 3u * 4);
    for (size_t cap = 0; cap < 3; ++cap) {
      for (size_t c = 0; c < 4; ++c) {
        const bool want = c != 0 && (cap != 2 || c == 3);
        EXPECT_EQ(needed[cap * 4 + c], want) << job << " " << cap << " " << c;
      }
    }
    EXPECT_EQ(cache_cells_needed(grid, SweepCheckpoint{}, job),
              std::vector<bool>({false, true, true, true, false, true, true,
                                 true, false, true, true, true}));
  }
  EXPECT_EQ(ndjson_of(o, jobs, &checkpoint), cold);
  o4.model_cache = nullptr;
  EXPECT_EQ(ndjson_of(o4, jobs, &checkpoint), cold);

  // A base --compare-cache run (no cache axis): one cell of ways {2, 4}
  // per capacity; 3072 B fails on its first way.
  SweepOptions base = sweep_opts(4);
  base.pipeline.spm.compare_cache = true;
  base.pipeline.spm.cache_assocs = {2, 4};
  ASSERT_TRUE(base.spec.parse_axis("capacity", "256,3072,4096").ok());
  SweepReport base_report;
  std::ostringstream base_out;
  EXPECT_FALSE(SweepDriver(base)
                   .run_ndjson(jobs, base_out, nullptr, &base_report)
                   .ok());
  expect_items_match_single_cells(base_report, base);
  for (const auto& item : base_report.items) {
    EXPECT_EQ(item.status.ok(), item.point.capacity_bytes != 3072);
    if (item.status.ok()) {
      EXPECT_EQ(item.spm.caches.size(), 2u);
    }
  }
  base.threads = 1;
  EXPECT_EQ(ndjson_of(base, jobs), base_out.str());
}

TEST(SweepDriver, ImpossibleCacheGeometryFailsOnlyItsOwnPoints) {
  // 1 B cannot hold one 32x2 set and 3072 B makes 48 sets: the user's
  // axes, so invalid_input rows in phase spm-solve (exit 3, not 5). The
  // bad first point must not doom the job: 64 and 4096 still solve. Two
  // energy presets make two solve groups share each bad cache cell.
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "1,64,3072,4096").ok());
  ASSERT_TRUE(o.spec.parse_axis("energy", "default,fast-spm").ok());
  ASSERT_TRUE(o.spec.parse_axis("cache", "32x2").ok());
  const std::vector<SweepJob> jobs = {{"alpha", kGood}};
  std::ostringstream cold;
  const util::Status st = SweepDriver(o).run_ndjson(jobs, cold);
  EXPECT_EQ(st.code(), util::ErrorCode::kInvalidInput);

  SweepReport report;
  std::ostringstream collected;
  EXPECT_FALSE(
      SweepDriver(o).run_ndjson(jobs, collected, nullptr, &report).ok());
  ASSERT_EQ(report.items.size(), 8u);
  EXPECT_EQ(collected.str(), cold.str());
  for (size_t i = 0; i < report.items.size(); ++i) {
    const uint32_t cap = report.items[i].point.capacity_bytes;
    EXPECT_EQ(report.items[i].status.ok(), cap == 64 || cap == 4096) << i;
  }
  for (size_t i : {2u, 3u, 6u, 7u}) {
    ASSERT_TRUE(report.items[i].status.ok())
        << report.items[i].status.message();
    EXPECT_EQ(report.items[i].spm.caches.size(), 1u);
  }
  EXPECT_NE(
      cold.str().find(
          "\"capacity_bytes\":1,\"energy\":\"default\",\"cache\":\"32x2\","
          "\"algorithm\":\"dp\",\"replay\":false,\"ok\":false,"
          "\"error_class\":\"invalid_input\",\"phase\":\"spm-solve\","
          "\"error\":\"spm-solve error: 1 B cache with 32 B lines x 2 ways: "
          "smaller than one set\"}\n"),
      std::string::npos)
      << cold.str();
  EXPECT_NE(
      cold.str().find(
          "\"capacity_bytes\":3072,\"energy\":\"default\",\"cache\":"
          "\"32x2\",\"algorithm\":\"dp\",\"replay\":false,\"ok\":false,"
          "\"error_class\":\"invalid_input\",\"phase\":\"spm-solve\","
          "\"error\":\"spm-solve error: 3072 B cache with 32 B lines x 2 "
          "ways: 48 sets, not a power of two\"}\n"),
      std::string::npos)
      << cold.str();

  // Every thread count, and a model-cache hit primed by a sweep the bad
  // geometry was never part of, give the same bytes.
  SweepOptions o4 = o;
  o4.threads = 4;
  std::ostringstream par;
  EXPECT_FALSE(SweepDriver(o4).run_ndjson(jobs, par).ok());
  EXPECT_EQ(par.str(), cold.str());
  ModelCache cache(ModelCacheOptions{/*dir=*/""});
  SweepOptions prime = sweep_opts(1);
  ASSERT_TRUE(prime.spec.parse_axis("capacity", "4096").ok());
  prime.model_cache = &cache;
  std::ostringstream primed;
  ASSERT_TRUE(SweepDriver(prime).run_ndjson(jobs, primed).ok());
  o.model_cache = &cache;
  std::ostringstream warm;
  EXPECT_FALSE(SweepDriver(o).run_ndjson(jobs, warm).ok());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(warm.str(), cold.str());
}

TEST(SweepDriver, OneSolvePerCapacityAndEnergyAcrossTheCacheAxis) {
  // A solve group is a (capacity, energy) block: one solve_spm serves its
  // cache-off and cache-on points alike. 1 B and 3072 B are bad cells for
  // both geometries, yet their cache-off points still solve; 4096 B
  // solves everywhere.
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "1,3072,4096").ok());
  ASSERT_TRUE(o.spec.parse_axis("energy", "default,dram-heavy").ok());
  ASSERT_TRUE(o.spec.parse_axis("cache", "off,32x2,64x4").ok());
  ASSERT_TRUE(o.spec.parse_axis("algorithm", "dp,greedy").ok());
  const std::vector<SweepJob> jobs = good_jobs();
  SweepReport report;
  std::ostringstream collected;
  EXPECT_EQ(SweepDriver(o).run_ndjson(jobs, collected, nullptr, &report)
                .code(),
            util::ErrorCode::kInvalidInput);
  ASSERT_EQ(report.items.size(), 2u * 3 * 2 * 3 * 2);
  expect_items_match_single_cells(report, o);
  const std::map<std::pair<uint32_t, std::string>, std::string> why = {
      {{1, "32x2"}, "1 B cache with 32 B lines x 2 ways: smaller than one "
                    "set"},
      {{1, "64x4"}, "1 B cache with 64 B lines x 4 ways: smaller than one "
                    "set"},
      {{3072, "32x2"}, "3072 B cache with 32 B lines x 2 ways: 48 sets, not "
                       "a power of two"},
      {{3072, "64x4"}, "3072 B cache with 64 B lines x 4 ways: 12 sets, not "
                       "a power of two"}};
  for (const SweepItem& item : report.items) {
    SCOPED_TRACE(item.program + " @" +
                 std::to_string(item.point.capacity_bytes) + " " +
                 item.point.energy_name + " " + item.point.cache.label);
    const auto bad =
        why.find({item.point.capacity_bytes, item.point.cache.label});
    if (bad != why.end()) {
      EXPECT_EQ(item.status.code(), util::ErrorCode::kInvalidInput);
      EXPECT_EQ(item.status.phase(), "spm-solve");
      EXPECT_EQ(item.status.message(), "spm-solve error: " + bad->second);
      continue;
    }
    ASSERT_TRUE(item.status.ok()) << item.status.message();
    // The shared solve is the point's own solve, headline energy and all.
    const core::SpmPhaseOptions popts =
        item.point.spm_options(o.pipeline.spm);
    const core::ForayModel& model =
        report.results[item.key.job].model;
    const core::SpmReport solo = core::solve_spm(model, popts);
    EXPECT_EQ(item.spm.exact.bytes_used, solo.exact.bytes_used);
    EXPECT_EQ(item.spm.exact.saved_nj, solo.exact.saved_nj);
    EXPECT_EQ(item.spm.greedy.saved_nj, solo.greedy.saved_nj);
    EXPECT_EQ(item.spm.candidate_count, solo.candidate_count);
    const spm::EnergyReport energy =
        item.point.algorithm == Algorithm::kGreedy
            ? spm::evaluate_selection(model, solo.greedy, popts.dse)
            : solo.with_spm;
    EXPECT_EQ(item.energy.total_nj, energy.total_nj);
    EXPECT_EQ(item.energy.baseline_nj, energy.baseline_nj);
  }

  // The same bytes at 4 threads, from a cold and a warm model cache.
  const std::string cold = collected.str();
  SweepOptions o4 = o;
  o4.threads = 4;
  EXPECT_EQ(ndjson_of(o4, jobs), cold);
  ModelCache cache(ModelCacheOptions{/*dir=*/""});
  o4.model_cache = &cache;
  EXPECT_EQ(ndjson_of(o4, jobs), cold);
  EXPECT_EQ(ndjson_of(o4, jobs), cold);
  EXPECT_EQ(cache.stats().hits, 2u);

  // Resume from a journal cut in the middle of a point line: the cut
  // leaves some solve groups partly cached.
  size_t cut = cold.size() / 2;
  while (cold[cut - 1] == '\n' || cold[cut] == '\n') ++cut;
  const SweepDriver driver(o);
  SweepCheckpoint checkpoint;
  ASSERT_TRUE(driver.parse_resume(cold.substr(0, cut), &checkpoint).ok());
  EXPECT_EQ(ndjson_of(o, jobs, &checkpoint), cold);
  o4.model_cache = nullptr;
  EXPECT_EQ(ndjson_of(o4, jobs, &checkpoint), cold);

  // "spm.solve" is keyed by solve group: count=1 fails exactly the first
  // (job, capacity, energy) block, every cache and algorithm value of it
  // (the fault comes before the bad cells), and nothing else changes, at
  // any thread count.
  ASSERT_TRUE(util::fault::configure("spm.solve:count=1").ok());
  SweepReport faulted;
  std::ostringstream faulted_out;
  (void)SweepDriver(o).run_ndjson(jobs, faulted_out, nullptr, &faulted);
  std::ostringstream faulted_par;
  (void)SweepDriver(o4).run_ndjson(jobs, faulted_par);
  EXPECT_EQ(faulted_par.str(), faulted_out.str());
  util::fault::reset();
  ASSERT_EQ(faulted.items.size(), report.items.size());
  std::vector<const SweepItem*> hit;
  for (size_t k = 0; k < faulted.items.size(); ++k) {
    const SweepItem& item = faulted.items[k];
    if (item.status.code() == util::ErrorCode::kInternal) {
      EXPECT_EQ(item.status.message(),
                "spm-solve error: injected Phase II solver failure");
      hit.push_back(&item);
    } else {
      EXPECT_EQ(item.status.message(), report.items[k].status.message());
    }
  }
  ASSERT_EQ(hit.size(), 3u * 2);
  for (const SweepItem* item : hit) {
    EXPECT_EQ(item->key.job, 0u);
    EXPECT_EQ(item->key.capacity, 0u);
    EXPECT_EQ(item->key.energy, 0u);
  }
}

TEST(SweepDriver, QuickstartSpmPointIsTheSameOnTheOracle) {
  // `foraygen spm examples/quickstart.mc --compare-cache --replay`, the
  // one-point sweep it runs, profiled and replayed on the VM and on the
  // tree-walking oracle: the same report, cache counts and replay check.
  std::ifstream in(std::string(FORAY_SOURCE_DIR) + "/examples/quickstart.mc");
  ASSERT_TRUE(in.good());
  const std::string source((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  std::string text[2];
  for (sim::Engine engine : {sim::Engine::Bytecode, sim::Engine::Ast}) {
    SweepOptions o;
    o.pipeline.run.engine = engine;
    o.pipeline.spm.compare_cache = true;
    o.spec.replays = {true};
    const SweepReport report =
        SweepDriver(o).run({{"examples/quickstart.mc", source}});
    ASSERT_EQ(report.items.size(), 1u);
    const SweepItem& item = report.items.front();
    ASSERT_TRUE(item.status.ok()) << item.status.message();
    ASSERT_TRUE(item.replay_ran);
    EXPECT_TRUE(item.replay.matches());
    EXPECT_FALSE(item.spm.caches.empty());
    const core::ForayModel& model = report.results.front().model;
    text[engine == sim::Engine::Ast] =
        core::describe_spm_report(item.spm, model) +
        spm::describe_replay_report(item.replay, model);
  }
  EXPECT_EQ(text[1], text[0]);
}

TEST(SweepDriver, HugeCapacitySolvesWithinCandidateBoundedMemory) {
  // The DP table is bounded by what the candidates can need, not by the
  // capacity: a ~4 GB SPM over the quickstart example used to allocate
  // one back-pointer per granule per reference and fail the point as
  // resource_exhausted ("out of memory during solve").
  std::ifstream in(std::string(FORAY_SOURCE_DIR) + "/examples/quickstart.mc");
  ASSERT_TRUE(in.good());
  const std::string source((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
  SweepOptions o;
  ASSERT_TRUE(o.spec.parse_axis("capacity", "4000000000").ok());
  std::ostringstream out;
  ASSERT_TRUE(
      SweepDriver(o).run_ndjson({{"examples/quickstart.mc", source}}, out)
          .ok())
      << out.str();
  EXPECT_NE(out.str().find("\"capacity_bytes\":4000000000,\"energy\":"
                           "\"default\",\"cache\":\"off\",\"algorithm\":"
                           "\"dp\",\"replay\":false,\"ok\":true,"),
            std::string::npos)
      << out.str();
}

TEST(SweepDriver, DpTableOverTheCellLimitFailsItsPointsOnly) {
  // 91 references, each re-reading its own 16 KiB block: one buffer
  // candidate of 2,048 granules apiece that saves energy. At a 64 MiB
  // SPM the DP's rows would be 92 x 186,369 granules, just over
  // spm::kMaxDpCells (90 references would fit), so those points fail as
  // resource_exhausted in spm-solve, dp and greedy alike (they share the
  // solve). At 4096 B nothing fits and the points solve.
  std::string source = "int big[372736];\nint main(void) {\n  int s = 0;\n"
                       "  for (int r = 0; r < 2; r++)\n"
                       "    for (int i = 0; i < 4096; i++) {\n";
  for (int k = 0; k < 91; ++k) {
    source += "      s = s + big[" + std::to_string(k * 4096) + " + i];\n";
  }
  source += "    }\n  return s & 255;\n}\n";
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "4096,67108864").ok());
  ASSERT_TRUE(o.spec.parse_axis("algorithm", "dp,greedy").ok());
  SweepReport report;
  std::ostringstream out;
  const util::Status st =
      SweepDriver(o).run_ndjson({{"wide", source}}, out, nullptr, &report);
  EXPECT_EQ(st.code(), util::ErrorCode::kResourceExhausted) << st.message();
  ASSERT_EQ(report.items.size(), 4u);
  for (const SweepItem& item : report.items) {
    if (item.point.capacity_bytes == 4096) {
      EXPECT_TRUE(item.status.ok()) << item.status.message();
      EXPECT_EQ(item.model_refs, 91u);
      continue;
    }
    EXPECT_EQ(item.status.code(), util::ErrorCode::kResourceExhausted);
    EXPECT_EQ(item.status.phase(), "spm-solve");
    EXPECT_NE(item.status.message().find(
                  "knapsack table of 17145948 cells (92 rows of 186369 "
                  "granules), over the 16777216-cell limit"),
              std::string::npos)
        << item.status.message();
  }
}

// -- replay memo --------------------------------------------------------------

/// One replay-on point of kGood at 1024 B, Phase I served by `cache` once
/// it holds the model, the replay reusing `memo`.
SweepOptions memo_opts(ModelCache* cache, ReplayMemo* memo) {
  SweepOptions o = sweep_opts(1);
  EXPECT_TRUE(o.spec.parse_axis("capacity", "1024").ok());
  EXPECT_TRUE(o.spec.parse_axis("replay", "on").ok());
  o.model_cache = cache;
  o.replay_memo = memo;
  return o;
}

std::string memo_run(const SweepOptions& o) {
  std::ostringstream out;
  (void)SweepDriver(o).run_ndjson({{"alpha", kGood}}, out);
  return out.str();
}

class ReplayMemoBoundary : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = memo_opts(&cache_, &memo_);
    // The cold run fills the model cache and the memo.
    const SweepReport filled = SweepDriver(base_).run({{"alpha", kGood}});
    const SweepItem& item = filled.items.at(0);
    ASSERT_TRUE(item.status.ok()) << item.status.message();
    ASSERT_TRUE(item.replay.matches());
    ASSERT_FALSE(item.spm.exact.chosen.empty());
    const core::ForayModel& model = filled.results.at(0).model;
    kept_ = spm::simulate_replay(model, item.spm.exact,
                                 spm::emit_transformed(model, item.spm.exact),
                                 base_.pipeline.run);
    ASSERT_TRUE(kept_.status.ok());
    ASSERT_GT(kept_.view_records, 0u);
    ok_text_ = memo_run(base_);
    ASSERT_EQ(memo_.stats().simulations, 1u);
    ASSERT_EQ(memo_.stats().hits, 1u);
  }
  void TearDown() override { util::fault::reset(); }

  /// Runs `o` through the filled memo, checks that it hit (or simulated)
  /// once, and that its NDJSON equals the same run through an empty memo.
  std::string run(SweepOptions o, bool hit) {
    const ReplayMemo::Stats before = memo_.stats();
    o.replay_memo = &memo_;
    const std::string got = memo_run(o);
    const ReplayMemo::Stats after = memo_.stats();
    EXPECT_EQ(after.hits - before.hits, hit ? 1u : 0u);
    EXPECT_EQ(after.simulations - before.simulations, hit ? 0u : 1u);
    ReplayMemo empty;
    o.replay_memo = &empty;
    EXPECT_EQ(got, memo_run(o));
    EXPECT_EQ(empty.stats().simulations, 1u);
    return got;
  }

  ModelCache cache_;
  ReplayMemo memo_;
  SweepOptions base_;
  spm::ReplaySimulation kept_;
  std::string ok_text_;
};

TEST_F(ReplayMemoBoundary, StepGuardAtTheKeptStepsHits) {
  SweepOptions o = base_;
  o.pipeline.run.budget.max_steps = kept_.steps;
  EXPECT_EQ(run(o, true), ok_text_);
}

TEST_F(ReplayMemoBoundary, StepGuardOneBelowTheKeptStepsTrips) {
  SweepOptions o = base_;
  o.pipeline.run.budget.max_steps = kept_.steps - 1;
  const std::string got = run(o, false);
  EXPECT_NE(got.find("\"error_class\":\"resource_exhausted\""),
            std::string::npos)
      << got;
  EXPECT_NE(got.find("step limit exceeded"), std::string::npos) << got;
}

TEST_F(ReplayMemoBoundary, RecordBudgetAtTheKeptViewRecordsTrips) {
  // One record per chunk, so the budget is checked after every record and
  // a fresh run trips on its last one.
  SweepOptions o = base_;
  o.pipeline.run.chunk_records = 1;
  o.pipeline.run.budget.max_records = kept_.view_records;
  const std::string got = run(o, false);
  EXPECT_NE(got.find("trace record budget exceeded"), std::string::npos)
      << got;
  o.pipeline.run.budget.max_records = kept_.view_records + 1;
  EXPECT_EQ(run(o, true), ok_text_);
}

TEST_F(ReplayMemoBoundary, AnArmedFaultSiteBypassesTheMemo) {
  // Keyed by solve-group ordinal, so this spec arms the registry without
  // ever firing here.
  ASSERT_TRUE(util::fault::configure("spm.solve:skip=1000").ok());
  EXPECT_EQ(run(base_, false), ok_text_);
  // A stalling run still trips its deadline though the memo holds it.
  ASSERT_TRUE(util::fault::configure("sim.slow:param=50").ok());
  SweepOptions o = base_;
  o.pipeline.run.chunk_records = 64;
  o.pipeline.run.budget.timeout_seconds = 0.01;
  const std::string got = run(o, false);
  EXPECT_NE(got.find("\"error_class\":\"deadline_exceeded\""),
            std::string::npos)
      << got;
}

// -- cache memo ---------------------------------------------------------------

/// The NDJSON of `o` over `jobs`, and the cache memo's stats it added.
std::string cache_memo_run(SweepOptions o, const std::vector<SweepJob>& jobs,
                           CacheMemo* memo, CacheMemo::Stats* added) {
  const CacheMemo::Stats before = memo->stats();
  o.cache_memo = memo;
  std::ostringstream out;
  (void)SweepDriver(o).run_ndjson(jobs, out);
  const CacheMemo::Stats after = memo->stats();
  added->hits = after.hits - before.hits;
  added->simulations = after.simulations - before.simulations;
  added->evictions = after.evictions - before.evictions;
  return out.str();
}

TEST(CacheMemo, ASharedMemoServesTheSecondRunByteIdentically) {
  // Two jobs x 3 capacities x 2 geometries = 12 cells, each shared by
  // two energy presets. A memo kept across runs simulates them in the
  // first run and answers every one in the second; the bytes are those
  // of runs that keep their own memo, at 1 and at 4 threads.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    SweepOptions o = sweep_opts(threads);
    ASSERT_TRUE(o.spec.parse_axis("capacity", "256,1024,4096").ok());
    ASSERT_TRUE(o.spec.parse_axis("energy", "default,fast-spm").ok());
    ASSERT_TRUE(o.spec.parse_axis("cache", "off,32x2,64x4").ok());
    const std::vector<SweepJob> jobs = good_jobs();
    std::ostringstream own;
    ASSERT_TRUE(SweepDriver(o).run_ndjson(jobs, own).ok());
    ASSERT_NE(own.str().find("\"caches\":[{"), std::string::npos);

    CacheMemo memo;
    CacheMemo::Stats added;
    EXPECT_EQ(cache_memo_run(o, jobs, &memo, &added), own.str());
    EXPECT_EQ(added.simulations, 12u);
    EXPECT_EQ(added.hits, 0u);
    EXPECT_EQ(cache_memo_run(o, jobs, &memo, &added), own.str());
    EXPECT_EQ(added.simulations, 0u);
    EXPECT_EQ(added.hits, 12u);
    EXPECT_EQ(memo.stats().evictions, 0u);
  }
}

TEST(CacheMemo, ABadGeometryFailsItsOwnPointsAndIsNotKept) {
  // Per job, 3072 B fails 32x2 and 64x4, and 256 B and 4096 B fail 32x3:
  // 4 bad cells of 9. A second run through the memo answers the 5 good
  // ones, checks the bad ones again and writes the same rows.
  SweepOptions o = sweep_opts(2);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "256,3072,4096").ok());
  ASSERT_TRUE(o.spec.parse_axis("energy", "default,fast-spm").ok());
  ASSERT_TRUE(o.spec.parse_axis("cache", "off,32x2,64x4,32x3").ok());
  const std::vector<SweepJob> jobs = good_jobs();
  const std::string own = ndjson_of(o, jobs);
  ASSERT_NE(own.find("\"error_class\":\"invalid_input\""), std::string::npos);

  CacheMemo memo;
  CacheMemo::Stats added;
  EXPECT_EQ(cache_memo_run(o, jobs, &memo, &added), own);
  EXPECT_EQ(added.simulations, 2u * 9);
  EXPECT_EQ(cache_memo_run(o, jobs, &memo, &added), own);
  EXPECT_EQ(added.hits, 2u * 5);
  EXPECT_EQ(added.simulations, 2u * 4);
}

TEST(CacheMemo, ACellIsAnsweredOnlyWhenEveryCacheIsKept) {
  // A 32x2 run keeps the 2-way cache; a base --compare-cache cell of
  // ways {2, 4} at the same capacity still simulates, then keeps both.
  SweepOptions axis = sweep_opts(1);
  ASSERT_TRUE(axis.spec.parse_axis("capacity", "1024").ok());
  ASSERT_TRUE(axis.spec.parse_axis("cache", "32x2").ok());
  SweepOptions base = sweep_opts(1);
  ASSERT_TRUE(base.spec.parse_axis("capacity", "1024").ok());
  base.pipeline.spm.compare_cache = true;
  base.pipeline.spm.cache_assocs = {2, 4};
  const std::vector<SweepJob> jobs = {{"alpha", kGood}};
  std::ostringstream own;
  ASSERT_TRUE(SweepDriver(base).run_ndjson(jobs, own).ok());

  CacheMemo memo;
  CacheMemo::Stats added;
  (void)cache_memo_run(axis, jobs, &memo, &added);
  EXPECT_EQ(added.simulations, 1u);
  EXPECT_EQ(cache_memo_run(base, jobs, &memo, &added), own.str());
  EXPECT_EQ(added.simulations, 1u);
  EXPECT_EQ(added.hits, 0u);
  EXPECT_EQ(cache_memo_run(base, jobs, &memo, &added), own.str());
  EXPECT_EQ(added.hits, 1u);
}

TEST(CacheMemo, PhaseIOptionsThatChangeTheModelDoNotShareCounts) {
  // The same source at Nloc 1 and Nloc 10: the second filter drops the
  // four-location b[k] references, so the models, and their counts,
  // differ.
  const char* source =
      "int a[256];\n"
      "int b[4];\n"
      "int main(void) {\n"
      "  for (int r = 0; r < 40; r++) {\n"
      "    for (int i = 0; i < 256; i++) a[i] = a[i] + r;\n"
      "    for (int k = 0; k < 4; k++) b[k] = b[k] + r;\n"
      "  }\n"
      "  return 0;\n"
      "}\n";
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "1024").ok());
  ASSERT_TRUE(o.spec.parse_axis("cache", "32x2").ok());
  SweepOptions strict = o;
  strict.pipeline.filter.min_locations = 10;
  const std::vector<SweepJob> jobs = {{"alpha", source}};

  CacheMemo memo;
  o.cache_memo = &memo;
  strict.cache_memo = &memo;
  const SweepReport loose_report = SweepDriver(o).run(jobs);
  const SweepReport strict_report = SweepDriver(strict).run(jobs);
  EXPECT_EQ(memo.stats().simulations, 2u);
  EXPECT_EQ(memo.stats().hits, 0u);

  const SweepItem& loose = loose_report.items.at(0);
  const SweepItem& tight = strict_report.items.at(0);
  ASSERT_TRUE(loose.status.ok()) << loose.status.message();
  ASSERT_TRUE(tight.status.ok()) << tight.status.message();
  EXPECT_GT(loose.model_refs, tight.model_refs);
  const auto accesses = [](const SweepItem& item) {
    return item.spm.caches.at(0).hits + item.spm.caches.at(0).misses;
  };
  EXPECT_GT(accesses(loose), accesses(tight));
  strict.cache_memo = nullptr;
  std::ostringstream own, shared;
  (void)SweepDriver(strict).run_ndjson(jobs, own);
  strict.cache_memo = &memo;
  (void)SweepDriver(strict).run_ndjson(jobs, shared);
  EXPECT_EQ(shared.str(), own.str());
  EXPECT_EQ(memo.stats().hits, 1u);
}

TEST(CacheMemo, KeepsAtMostMemoryEntriesLeastRecentlyUsedFirst) {
  const SweepOptions o = sweep_opts(1);
  const core::PipelineResult phase1 = core::run_pipeline(kGood, o.pipeline);
  ASSERT_TRUE(phase1.ok()) << phase1.error();
  const std::vector<core::CacheCell> cell = {{1024, 32, {2}}};
  const core::CacheCellCounts solo =
      core::simulate_caches(phase1.model, cell)[0];
  ASSERT_TRUE(solo.status.ok());
  const auto counts = [&](CacheMemo* memo, int k) {
    const core::CacheCellCounts got =
        memo->counts("model-" + std::to_string(k), phase1.model, cell)[0];
    EXPECT_TRUE(got.status.ok());
    EXPECT_EQ(got.caches.at(0).hits, solo.caches.at(0).hits);
    EXPECT_EQ(got.caches.at(0).misses, solo.caches.at(0).misses);
  };

  CacheMemo memo;
  const int distinct = static_cast<int>(kMemoryEntries) + 8;
  for (int k = 0; k < distinct; ++k) counts(&memo, k);
  EXPECT_EQ(memo.stats().simulations, static_cast<uint64_t>(distinct));
  EXPECT_EQ(memo.stats().evictions, 8u);
  // The newest key is kept; the oldest was evicted and simulates again.
  counts(&memo, distinct - 1);
  EXPECT_EQ(memo.stats().hits, 1u);
  counts(&memo, 0);
  EXPECT_EQ(memo.stats().simulations, static_cast<uint64_t>(distinct) + 1);
  EXPECT_EQ(memo.stats().evictions, 9u);
}

TEST(SweepDriver, NdjsonEscapesHostileProgramNames) {
  SweepOptions o = sweep_opts(1);
  ASSERT_TRUE(o.spec.parse_axis("capacity", "1024").ok());
  std::ostringstream out;
  ASSERT_TRUE(
      SweepDriver(o).run_ndjson({{"we\"ird\\name\n", kGood}}, out).ok());
  const std::string nd = out.str();
  EXPECT_NE(nd.find("we\\\"ird\\\\name\\n"), std::string::npos);
}

}  // namespace
}  // namespace foray::driver
