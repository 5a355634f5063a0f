// E10 — the motivation the paper's flow serves: FORAY-GEN expands the
// reach of SPM optimization (Phase II), so the energy a downstream SPM
// technique can save grows accordingly.
//
// The whole suite runs through the sweep driver (parallel jobs, one
// SpmPhase per capacity-axis point) — the same code path as `foraygen
// sweep`. The full-model savings and the knapsack-vs-greedy DSE ablation
// come straight from the sweep items, and the cache column from the
// production core::simulate_caches / price_caches; only the static-reach
// counterfactual (restricting the model to what a static analysis could
// see) stays bench-local, because it evaluates models the SpmPhase never
// builds.
#include <cstdio>

#include "bench_util.h"
#include "driver/sweep.h"
#include "foray/pipeline.h"
#include "spm/dse.h"
#include "spm/spm_sim.h"

namespace {

using namespace foray;

/// Restricts a model to the statically-visible references.
core::ForayModel static_subset(const core::ForayModel& model,
                               const staticforay::Analysis& analysis) {
  core::ForayModel out;
  for (const auto& r : model.refs) {
    bool static_ok =
        analysis.ref_is_affine(minic::node_for_instr_addr(r.instr));
    for (int loop : r.emitted_loop_path()) {
      if (!analysis.loop_is_canonical(loop)) static_ok = false;
    }
    if (static_ok) out.refs.push_back(r);
  }
  return out;
}

double best_savings_pct(const core::ForayModel& full_model,
                        const core::ForayModel& optimizable,
                        const spm::DseOptions& opts) {
  auto cands = spm::enumerate_candidates(optimizable);
  spm::Selection sel = spm::select_buffers(cands, opts);
  // Energy is evaluated against the FULL model traffic: references the
  // restricted analysis cannot see still hit main memory.
  spm::EnergyReport rep = spm::evaluate_selection(full_model, sel, opts);
  return rep.savings_pct();
}

}  // namespace

int main() {
  std::printf("== E10: SPM energy savings, static-only reach vs "
              "FORAY-GEN reach ==\n\n");

  driver::SweepOptions sopts;
  sopts.threads = 4;
  sopts.spec.capacities = {4096, 1024};  // main table, then DSE ablation
  driver::SweepDriver sweep(sopts);
  auto jobs = driver::SweepDriver::benchsuite_jobs();
  auto report = sweep.run(jobs);

  spm::DseOptions opts;
  opts.spm_capacity = 4096;

  util::TablePrinter tp({"benchmark", "refs static", "refs FORAY-GEN",
                         "savings static", "savings FORAY-GEN",
                         "cache 4KB/2way"});
  for (size_t j = 0; j < jobs.size(); ++j) {
    const core::PipelineResult& phase1 = report.results[j];
    if (!phase1.ok()) {  // bench binaries fail loudly
      std::fprintf(stderr, "benchmark %s failed: %s\n", jobs[j].name.c_str(),
                   phase1.error().c_str());
      return 1;
    }
    const auto& model = phase1.model;
    const driver::SweepItem& item =
        report.at(driver::PointKey{j, 0, 0, 0, 0, 0});

    auto analysis = staticforay::analyze(*phase1.program);
    core::ForayModel static_model = static_subset(model, analysis);
    double s_static = best_savings_pct(model, static_model, opts);
    double s_foray = item.spm.with_spm.savings_pct();

    // Cache comparison on the same traffic, through the production
    // simulate_caches / price_caches.
    core::SpmPhaseOptions copts;
    copts.dse = opts;
    std::vector<core::CacheCellCounts> cells = core::simulate_caches(
        model, {{opts.spm_capacity, copts.cache_line_bytes, {2}}});
    if (!cells[0].status.ok()) {
      std::fprintf(stderr, "benchmark %s cache: %s\n", jobs[j].name.c_str(),
                   cells[0].status.message().c_str());
      return 1;
    }
    core::price_caches(copts, &cells[0].caches);
    const double cache_nj = cells[0].caches[0].energy_nj;
    const double base_nj = item.spm.baseline.baseline_nj;
    const double cache_savings =
        base_nj > 0.0 ? 100.0 * (base_nj - cache_nj) / base_nj : 0.0;

    char s1[16], s2[16], s3[16];
    std::snprintf(s1, sizeof s1, "%.1f%%", s_static);
    std::snprintf(s2, sizeof s2, "%.1f%%", s_foray);
    std::snprintf(s3, sizeof s3, "%.1f%%", cache_savings);
    tp.add_row({jobs[j].name, std::to_string(static_model.refs.size()),
                std::to_string(model.refs.size()), s1, s2, s3});
  }
  std::printf("%s\n", tp.str().c_str());

  // DSE ablation: exact group knapsack vs greedy density heuristic, both
  // solved by the SpmPhase at the 1KB capacity.
  std::printf("-- DSE ablation (knapsack vs greedy), 1KB SPM --\n");
  util::TablePrinter dt({"benchmark", "knapsack nJ saved",
                         "greedy nJ saved"});
  for (size_t j = 0; j < jobs.size(); ++j) {
    const driver::SweepItem& item =
        report.at(driver::PointKey{j, 1, 0, 0, 0, 0});
    char g1[32], g2[32];
    std::snprintf(g1, sizeof g1, "%.0f", item.spm.exact.saved_nj);
    std::snprintf(g2, sizeof g2, "%.0f", item.spm.greedy.saved_nj);
    dt.add_row({jobs[j].name, g1, g2});
  }
  std::printf("%s", dt.str().c_str());
  return 0;
}
