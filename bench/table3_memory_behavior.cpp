// E3 — Table III: memory behavior of the FORAY models.
//
// Splits every benchmark's dynamic references, accesses and footprint
// into the paper's three buckets: captured by the FORAY model, system
// (intrinsic) references, and everything else. Bucket footprints are
// computed independently and may overlap, exactly as in the paper.
#include <cstdio>

#include "bench_util.h"
#include "foray/stats.h"

int main() {
  using namespace foray;
  std::printf("== Table III: memory behavior of the FORAY models ==\n");
  std::printf("(per bucket: share of refs / accesses / footprint; paper "
              "values in parentheses)\n\n");

  util::TablePrinter tp({"benchmark", "refs", "accesses", "footprint",
                         "model r/a/f", "system r/a/f", "other fp"});
  for (const auto& b : benchsuite::all_benchmarks()) {
    core::PipelineOptions opts;
    opts.census = true;  // the buckets count every reference
    auto a = bench::analyze_benchmark(b, opts);
    core::BehaviorStats st = core::compute_behavior(
        a.pipeline.extractor->tree(), core::FilterOptions{});
    auto share = [&](uint64_t num, uint64_t den) {
      return util::pct(static_cast<double>(num), static_cast<double>(den));
    };
    std::string model = share(st.model.refs, st.total.refs) + "/" +
                        share(st.model.accesses, st.total.accesses) + "/" +
                        share(st.model.footprint, st.total.footprint);
    std::string model_paper = " (" + bench::fmt_pct1(b.paper.model_ref_pct) +
                              "/" + bench::fmt_pct1(b.paper.model_access_pct) +
                              "/" + bench::fmt_pct1(b.paper.model_fp_pct) +
                              ")";
    std::string sys = share(st.system.refs, st.total.refs) + "/" +
                      share(st.system.accesses, st.total.accesses) + "/" +
                      share(st.system.footprint, st.total.footprint);
    std::string sys_paper = " (" + bench::fmt_pct1(b.paper.sys_ref_pct) +
                            "/" + bench::fmt_pct1(b.paper.sys_access_pct) +
                            "/" + bench::fmt_pct1(b.paper.sys_fp_pct) + ")";
    std::string other = share(st.other.footprint, st.total.footprint) +
                        " (" + bench::fmt_pct1(b.paper.other_fp_pct) + ")";
    tp.add_row({b.name,
                std::to_string(st.total.refs) + " (" +
                    util::human_count(
                        static_cast<uint64_t>(b.paper.total_refs)) + ")",
                util::human_count(st.total.accesses) + " (" +
                    util::human_count(
                        static_cast<uint64_t>(b.paper.total_accesses)) + ")",
                util::human_count(st.total.footprint) + " (" +
                    util::human_count(static_cast<uint64_t>(
                        b.paper.total_footprint)) + ")",
                model + model_paper, sys + sys_paper, other});
  }
  std::printf("%s\n", tp.str().c_str());
  std::printf(
      "Shape check (paper: 2.2%% of refs -> 29%% of accesses, 44%% of\n"
      "footprint on average): few model references concentrate a\n"
      "disproportionate share of traffic. Our ISS keeps scalars in\n"
      "simulated memory (no register allocation), which inflates the\n"
      "'other' bucket relative to the paper's compiled binaries.\n");
  return 0;
}
