// Shared helpers for the table-reproduction bench binaries.
#pragma once

#include <cstdio>
#include <string>

#include "benchsuite/suite.h"
#include "foray/pipeline.h"
#include "staticforay/static_analysis.h"
#include "util/strings.h"

namespace foray::bench {

struct AnalyzedBenchmark {
  const benchsuite::Benchmark* bench = nullptr;
  core::PipelineResult pipeline;
  staticforay::Analysis analysis;
  staticforay::ConversionStats conversion;
};

/// Runs Phase I plus the static baseline on one benchmark; exits the
/// process with a message on failure (bench binaries should fail
/// loudly).
inline AnalyzedBenchmark analyze_benchmark(const benchsuite::Benchmark& b,
                                           core::PipelineOptions opts = {}) {
  AnalyzedBenchmark out;
  out.bench = &b;
  out.pipeline = core::run_pipeline(b.source, opts);
  if (!out.pipeline.ok()) {
    std::fprintf(stderr, "benchmark %s failed: %s\n", b.name.c_str(),
                 out.pipeline.error().c_str());
    std::exit(1);
  }
  out.analysis = staticforay::analyze(*out.pipeline.program);
  out.conversion =
      staticforay::compute_conversion(out.pipeline.model, out.analysis);
  return out;
}

inline std::string fmt_pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0f%%", v);
  return buf;
}

inline std::string fmt_pct1(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", v);
  return buf;
}

inline std::string fmt_d(long long v) { return std::to_string(v); }

}  // namespace foray::bench
