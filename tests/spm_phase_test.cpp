// End-to-end Phase II: Phase I's model -> reuse -> DSE through solve_spm,
// on paper-style examples. Locks in that the phases are individually
// invokable, that run_pipeline() is exactly their composition, and that
// solve_spm is a pure function of the model and its options.
#include <gtest/gtest.h>

#include "foray/pipeline.h"
#include "oracle.h"

namespace foray::core {
namespace {

// A scaled-up Figure 4: a statically-opaque pointer walk plus a small
// array re-read every outer iteration (the buffer Phase II should pick).
const char* kReuseProgram =
    "char q[8000];\n"
    "int row[32];\n"
    "int main(void) {\n"
    "  char *ptr = q;\n"
    "  int t1 = 0;\n"
    "  while (t1 < 50) {\n"
    "    t1++;\n"
    "    ptr += 100;\n"
    "    for (int i = 0; i < 20; i++) {\n"
    "      *ptr++ = (i + t1) % 256;\n"
    "    }\n"
    "    for (int j = 0; j < 32; j++) {\n"
    "      row[j] = row[j] + t1;\n"
    "    }\n"
    "  }\n"
    "  return row[0];\n"
    "}\n";

SpmPhaseOptions at(uint32_t capacity = 4096) {
  SpmPhaseOptions o;
  o.dse.spm_capacity = capacity;
  return o;
}

PipelineResult phase1() {
  PipelineResult res = oracle::run_pipeline(kReuseProgram);
  EXPECT_TRUE(res.ok()) << res.error();
  EXPECT_TRUE(res.model_built);
  return res;
}

TEST(SpmPhase, EndToEndSelectsBuffers) {
  const PipelineResult res = phase1();
  const SpmReport spm = solve_spm(res.model, at());
  EXPECT_EQ(spm.capacity, 4096u);
  EXPECT_GT(spm.candidate_count, 0u);
  ASSERT_FALSE(spm.exact.chosen.empty());
  EXPECT_GT(spm.exact.bytes_used, 0u);
  EXPECT_LE(spm.exact.bytes_used, spm.capacity);
  EXPECT_GT(spm.exact.saved_nj, 0.0);

  // Energy accounting: the SPM configuration must beat the all-DRAM
  // baseline, and the baseline must be the pure-DRAM figure.
  EXPECT_GT(spm.baseline.baseline_nj, 0.0);
  EXPECT_LT(spm.with_spm.total_nj, spm.baseline.baseline_nj);
  EXPECT_GT(spm.with_spm.savings_pct(), 0.0);
  EXPECT_LE(spm.with_spm.savings_pct(), 100.0);
}

TEST(SpmPhase, ExactNeverWorseThanGreedy) {
  const PipelineResult res = phase1();
  for (uint32_t cap : {256u, 1024u, 4096u}) {
    const SpmReport spm = solve_spm(res.model, at(cap));
    EXPECT_GE(spm.exact.saved_nj, spm.greedy.saved_nj) << "capacity " << cap;
  }
}

TEST(SpmPhase, ManualPhaseChainMatchesRunPipeline) {
  PipelineOptions opts;
  PipelineResult manual;
  ASSERT_TRUE(frontend_phase(kReuseProgram, &manual).ok());
  ASSERT_TRUE(instrument_phase(&manual).ok());
  ASSERT_TRUE(profile_phase(opts, &manual).ok());
  ASSERT_TRUE(extract_phase(opts, &manual).ok());

  auto composed = oracle::run_pipeline(kReuseProgram, opts);
  ASSERT_TRUE(composed.ok()) << composed.error();

  ASSERT_EQ(manual.model.refs.size(), composed.model.refs.size());
  for (size_t i = 0; i < manual.model.refs.size(); ++i) {
    EXPECT_EQ(manual.model.refs[i].instr, composed.model.refs[i].instr);
    EXPECT_EQ(manual.model.refs[i].fn.coefs,
              composed.model.refs[i].fn.coefs);
  }
  EXPECT_EQ(manual.foray_source, composed.foray_source);
  const SpmReport a = solve_spm(manual.model, opts.spm);
  const SpmReport b = solve_spm(composed.model, opts.spm);
  ASSERT_EQ(a.exact.chosen.size(), b.exact.chosen.size());
  EXPECT_EQ(a.exact.bytes_used, b.exact.bytes_used);
  EXPECT_DOUBLE_EQ(a.exact.saved_nj, b.exact.saved_nj);
  EXPECT_EQ(describe_spm_report(a, manual.model),
            describe_spm_report(b, composed.model));
}

TEST(SpmPhase, SolvesAreIndependentAcrossCapacities) {
  const PipelineResult res = phase1();
  const uint64_t bytes_4k = solve_spm(res.model, at(4096)).exact.bytes_used;
  ASSERT_GT(bytes_4k, 0u);

  const SpmReport tiny = solve_spm(res.model, at(16));  // nothing fits
  EXPECT_EQ(tiny.capacity, 16u);
  EXPECT_LE(tiny.exact.bytes_used, 16u);
  EXPECT_LT(tiny.exact.bytes_used, bytes_4k);

  EXPECT_EQ(solve_spm(res.model, at(4096)).exact.bytes_used, bytes_4k);
}

TEST(SpmPhase, PhaseFailuresCarryPhaseAndLine) {
  PipelineResult r;
  auto st = frontend_phase("int main(void) { return x; }", &r);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.phase(), "sema");
  EXPECT_GT(st.first_line(), 0);
  EXPECT_NE(st.message().find("undeclared"), std::string::npos);

  PipelineResult r2;
  auto st2 = frontend_phase("int main(void) { return 0;", &r2);
  EXPECT_FALSE(st2.ok());
  EXPECT_EQ(st2.phase(), "parse");

  auto res =
      oracle::run_pipeline("int main(void) { int z = 0; return 1 / z; }");
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status.phase(), "simulation");
  EXPECT_GT(res.status.first_line(), 0);
}

TEST(SpmPhase, ReportTextNamesBuffersAndSavings) {
  const PipelineResult res = phase1();
  const SpmReport spm = solve_spm(res.model, at());
  std::string text = describe_spm_report(spm, res.model);
  EXPECT_NE(text.find("bytes used"), std::string::npos);
  EXPECT_NE(text.find("predicted saving"), std::string::npos);
  EXPECT_NE(text.find("greedy"), std::string::npos);
  // Every chosen buffer appears with its array name.
  auto names = assign_array_names(res.model);
  for (const auto& c : spm.exact.chosen) {
    EXPECT_NE(text.find(names[c.ref_index]), std::string::npos);
  }
}

}  // namespace
}  // namespace foray::core
