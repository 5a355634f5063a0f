// The full design flow of the paper's Figure 3 on a realistic kernel:
//
//   Phase I   FORAY-GEN: legacy C -> FORAY model        (this library)
//   Phase II  SPM analysis: reuse -> buffers -> DSE      (spm/ substrate)
//   Phase III back-annotation                             (designer; we
//             print exactly what they would need)
//
// The input is the susan-like benchmark: its hottest traffic flows
// through pointer walks a static tool cannot see.
#include <cstdio>

#include "benchsuite/suite.h"
#include "util/strings.h"
#include "foray/emitter.h"
#include "foray/pipeline.h"
#include "spm/dse.h"
#include "spm/replay.h"
#include "spm/reuse.h"
#include "spm/spm_sim.h"
#include "spm/transform.h"

int main() {
  using namespace foray;
  const auto& bench = benchsuite::get_benchmark("susan");
  std::printf("Input: %s — %s\n\n", bench.name.c_str(),
              bench.description.c_str());

  // Phase I: extract the FORAY model.
  auto res = core::run_pipeline(bench.source);
  if (!res.ok()) {
    std::fprintf(stderr, "pipeline error: %s\n", res.error().c_str());
    return 1;
  }
  std::printf("Phase I: FORAY model has %zu references over %d loops\n",
              res.model.refs.size(), res.model.distinct_loops());

  // Phase II step 2: data-reuse analysis -> buffer candidates.
  auto cands = spm::enumerate_candidates(res.model);
  std::printf("Phase II: %zu buffer candidates from reuse analysis\n",
              cands.size());
  for (size_t i = 0; i < cands.size() && i < 8; ++i) {
    const spm::BufferCandidate& c = cands[i];
    std::printf(
        "  buf[ref=%s level=%d size=%lluB accesses=%llu xfer=%lluw "
        "reuse=%g%s]\n",
        util::to_hex(res.model.refs[c.ref_index].instr).c_str(), c.level,
        static_cast<unsigned long long>(c.size_bytes),
        static_cast<unsigned long long>(c.spm_accesses),
        static_cast<unsigned long long>(c.transfer_words), c.reuse_factor(),
        c.sliding_window ? " sliding" : "");
  }

  // Phase II step 3: design-space exploration across SPM sizes.
  std::printf("\nSPM capacity sweep (group-knapsack selection):\n");
  std::printf("  %8s %10s %12s %10s\n", "SPM", "buffers", "bytes used",
              "savings");
  spm::DseOptions best_opts;
  spm::Selection best_sel;
  double best_savings = -1.0;
  for (uint32_t cap : {512u, 1024u, 2048u, 4096u, 8192u, 16384u}) {
    spm::DseOptions opts;
    opts.spm_capacity = cap;
    auto sel = spm::select_buffers(cands, opts);
    auto rep = spm::evaluate_selection(res.model, sel, opts);
    std::printf("  %7uB %10zu %11lluB %9.1f%%\n", cap, sel.chosen.size(),
                static_cast<unsigned long long>(sel.bytes_used),
                rep.savings_pct());
    if (rep.savings_pct() > best_savings) {
      best_savings = rep.savings_pct();
      best_sel = sel;
      best_opts = opts;
    }
  }

  // Phase III: what the designer back-annotates.
  std::printf("\nPhase III: back-annotation worklist (selected buffers):\n");
  auto names = core::assign_array_names(res.model);
  for (const auto& c : best_sel.chosen) {
    const auto& ref = res.model.refs[c.ref_index];
    std::printf("  map %s (%s) into a %llu-byte SPM buffer covering its "
                "innermost %d loop(s)\n",
                names[c.ref_index].c_str(),
                core::describe_reference(ref).c_str(),
                static_cast<unsigned long long>(c.size_bytes), c.level);
  }
  std::printf("\nBest configuration: %uB SPM, %.1f%% energy saved vs "
              "all-DRAM.\n",
              best_opts.spm_capacity, best_savings);
  std::printf("Note: only %zu of the program's references need manual "
              "back-annotation — the point of the paper's Phase III.\n",
              best_sel.chosen.size());

  // Phase II's actual output artifact: the transformed FORAY model code
  // with SPM buffers and transfer loops (excerpt).
  std::string transformed = spm::emit_transformed(res.model, best_sel);
  std::printf("\n== transformed FORAY model (first 30 lines) ==\n");
  size_t pos = 0;
  for (int line = 0; line < 30 && pos != std::string::npos; ++line) {
    size_t next = transformed.find('\n', pos);
    std::printf("%s\n",
                transformed.substr(pos, next - pos).c_str());
    pos = next == std::string::npos ? next : next + 1;
  }
  std::printf("[... %d more lines]\n",
              util::count_lines(transformed) - 30);

  // Phase II exit check: execute that artifact and confirm its actual
  // SPM / main-memory / transfer traffic equals the analytic counters
  // the DSE was solved with.
  spm::ReplayOptions ropts;
  ropts.dse = best_opts;
  auto replay = spm::replay_selection(res.model, best_sel, ropts);
  std::printf("\n== transform replay (analytic vs simulated) ==\n%s",
              spm::describe_replay_report(replay, res.model).c_str());
  if (!replay.matches()) {
    std::fprintf(stderr, "transform replay diverged!\n");
    return 1;
  }
  return 0;
}
