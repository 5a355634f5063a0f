// foraybench: the benchmark driver that perfbench/run.py builds and runs.
//
//   foraybench --workload NAME --seed N --seconds S --trace 0|1
//              --foraygen PATH --out-dir DIR
//   foraybench --reference NAME --seed N     (reference NDJSON on stdout)
//
// The last line of stdout is one JSON object,
//   {"correct":..,"attempted":..,"failed":..,"metrics":{NAME:{"value":..,"unit":..}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// the traced run (--trace 1). Progress goes to stderr. DIR receives a
// run record (box calibration, tail percentile, op count, metrics) and,
// for the traced run, every span as a JSON line.

#include <signal.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "tracer.h"
#include "util/json.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// setup_s is the median of this many complete set-ups.
constexpr int kSetupRepeats = 5;
/// Operations measured even when --seconds is shorter than they take.
constexpr size_t kMinOps = 3;

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

/// The traced run's per-layer metrics, in report order, with units.
/// Every `*_ms` name is a span name plus "_ms": its mean time per op.
/// Counts are means per op; ratios are taken over the whole run.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"minic.frontend_ms", "ms"},         {"minic.source_bytes", "bytes"},
    {"instrument.annotate_ms", "ms"},    {"instrument.loop_sites", "count"},
    {"sim.compile_ms", "ms"},            {"sim.run_ms", "ms"},
    {"sim.records", "count"},            {"sim.steps", "count"},
    {"foray.profile_ms", "ms"},          {"foray.extract_ms", "ms"},
    {"foray.model_ms", "ms"},            {"foray.model_refs", "count"},
    {"driver.critical_path_ms", "ms"},   {"spm.candidates_ms", "ms"},
    {"spm.candidates", "count"},         {"spm.dp_ms", "ms"},
    {"spm.dp_calls", "count"},           {"spm.greedy_ms", "ms"},
    {"spm.energy_ms", "ms"},             {"spm.cache_sim_ms", "ms"},
    {"spm.cache_accesses", "count"},     {"spm.replay_ms", "ms"},
    {"spm.replay_runs", "count"},        {"spm.replay_mismatches", "count"},
    {"staticforay.lint_ms", "ms"},       {"staticforay.programs", "count"},
    {"driver.cache_lookup_ms", "ms"},    {"driver.cache_hit_ratio", "ratio"},
    {"driver.self_ms", "ms"},            {"trace.overhead_ratio", "ratio"},
    {"fail_ratio", "ratio"},             {"box.hardware_threads", "count"},
    {"box.parallelism", "x"},
};

/// Spans that group layer calls rather than being one.
bool structural(const char* name) {
  return std::strcmp(name, "op") == 0 || std::strcmp(name, "probe") == 0 ||
         std::strcmp(name, "driver.job") == 0;
}

std::string run_name(const RunConfig& cfg) {
  return cfg.workload + "-seed" + std::to_string(cfg.seed) + "-trace" +
         (cfg.trace ? "1" : "0");
}

void print_result(uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  foray::util::JsonWriter w;
  w.begin_object();
  w.key("correct").value(failed == 0);
  w.key("attempted").value(attempted);
  w.key("failed").value(failed);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.take().c_str());
  std::fflush(stdout);
}

/// The run record: what the result line has, plus the context needed
/// to read it.
void write_record(const RunConfig& cfg, const BoxCalibration& box,
                  uint64_t ops, double window_s,
                  const std::vector<std::pair<std::string, double>>& extra,
                  const std::vector<double>& op_ms,
                  const std::vector<double>& op_cpu_ms,
                  const std::vector<Metric>& metrics) {
  foray::util::JsonWriter w;
  w.begin_object();
  w.key("workload").value(cfg.workload);
  w.key("seed").value(cfg.seed);
  w.key("trace").value(cfg.trace);
  w.key("threads").value(kThreads);
  w.key("hardware_threads").value(box.hardware_threads);
  w.key("parallelism").value(box.parallelism);
  w.key("ops").value(ops);
  w.key("window_s").value(window_s);
  for (const auto& [key, value] : extra) w.key(key).value(value);
  w.key("metrics").begin_object();
  for (const Metric& m : metrics) w.key(m.name).value(m.value);
  w.end_object();
  const std::string summary = w.str() + "}";
  w.key("op_ms").begin_array();
  for (double ms : op_ms) w.value(ms);
  w.end_array();
  w.key("op_cpu_ms").begin_array();
  for (double ms : op_cpu_ms) w.value(ms);
  w.end_array();
  w.end_object();
  const std::string path = cfg.out_dir + "/run-" + run_name(cfg) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n", w.str().c_str());
    std::fclose(f);
  }
  std::fprintf(stderr, "foraybench: %s\n", summary.c_str());
}

/// End-to-end run: set-up kSetupRepeats times, one warm-up op, then a
/// closed loop for `seconds`.
int run_measured(const RunConfig& cfg, double seconds,
                 const BoxCalibration& box) {
  // Set-up time is CPU time too: this process's, that of the reference
  // subprocesses it waited for, and that of a server it started.
  std::vector<double> setups;
  std::vector<double> setup_walls;
  std::unique_ptr<Workload> w;
  for (int k = 0; k < kSetupRepeats; ++k) {
    w.reset();  // the previous set-up's server stops outside the clock
    std::unique_ptr<Workload> fresh = make_workload(cfg);
    const double cpu0 = process_cpu_s() + children_cpu_s();
    const double t0 = wall_s();
    if (!fresh->setup()) {
      std::fprintf(stderr, "foraybench: set-up failed\n");
      return 1;
    }
    setup_walls.push_back(wall_s() - t0);
    setups.push_back(process_cpu_s() + children_cpu_s() +
                     fresh->server_cpu_s() - cpu0);
    w = std::move(fresh);
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto count = [&](const OpResult& r) {
    ++attempted;
    if (!r.ok) ++failed;
  };
  count(w->run_op(0));  // warm-up: allocator, page cache, lazy statics

  std::vector<double> op_ms;
  std::vector<double> op_cpu_ms;
  const double t0 = wall_s();
  for (uint64_t i = 1; wall_s() - t0 < seconds || op_ms.size() < kMinOps;
       ++i) {
    const OpResult r = w->run_op(i);
    count(r);
    op_ms.push_back(r.wall_s * 1e3);
    op_cpu_ms.push_back(r.cpu_s * 1e3);
  }
  const double window = wall_s() - t0;
  failed += w->finish();

  // Timings are CPU time: on a shared host a run's wall time follows
  // the neighbours (its spread across runs reached 0.5 of the median)
  // far more than its CPU time does. Wall times go to the run record.
  double tail_pct = 0.0;
  const double cpu_tail = tail(op_cpu_ms, &tail_pct);
  const std::vector<Metric> metrics = {
      {"setup_s", median(setups), "s"},
      {"op_cpu_ms_p50", median(op_cpu_ms), "ms"},
      {"op_cpu_ms_tail", cpu_tail, "ms"},
      {"cpu_ms_per_op", mean(op_cpu_ms), "ms"},
      {"peak_rss_mb", w->peak_rss_mb(), "MiB"},
  };
  double wall_tail_pct = 0.0;
  const double wall_tail = tail(op_ms, &wall_tail_pct);
  std::vector<std::pair<std::string, double>> extra = {
      {"tail_percentile", tail_pct},
      {"op_ms_p50", median(op_ms)},
      {"op_ms_tail", wall_tail},
      {"ops_per_s", static_cast<double>(op_ms.size()) / window},
      {"fail_ratio", static_cast<double>(failed) / static_cast<double>(attempted)}};
  for (size_t k = 0; k < setups.size(); ++k) {
    extra.emplace_back("setup_s_" + std::to_string(k), setups[k]);
    extra.emplace_back("setup_wall_s_" + std::to_string(k), setup_walls[k]);
  }
  write_record(cfg, box, op_ms.size(), window, extra, op_ms, op_cpu_ms,
               metrics);
  print_result(attempted, failed, metrics);
  return 0;
}

/// Traced run: per op, the production path at one thread (untraced,
/// checked), then the same op re-driven with a span around every layer
/// call, then the Phase I probes outside the op.
int run_traced(const RunConfig& cfg, double seconds,
               const BoxCalibration& box) {
  std::unique_ptr<Workload> w = make_workload(cfg);
  if (!w->setup()) {
    std::fprintf(stderr, "foraybench: set-up failed\n");
    return 1;
  }
  uint64_t attempted = 0;
  uint64_t failed = 0;
  auto count = [&](const OpResult& r) {
    ++attempted;
    if (!r.ok) ++failed;
  };
  count(w->run_op_single(0));  // warm-up

  Tracer tracer;
  std::map<std::string, double> sums;  // per-op quantities summed over ops
  double untraced_s = 0.0;
  double traced_s = 0.0;
  uint64_t ops = 0;
  const double t0 = wall_s();
  for (uint64_t i = 1; wall_s() - t0 < seconds || ops < kMinOps; ++i) {
    tracer.set_op(static_cast<uint32_t>(i));
    const size_t first = tracer.spans().size();
    Counters c;
    auto traced = [&] {
      const uint32_t root = tracer.open("op");
      w->trace_op(i, tracer, c);
      tracer.close(root);
      return root;
    };
    // Alternate which side runs first, so drift on a shared box does not
    // bias driver.self_ms or trace.overhead_ratio.
    OpResult u;
    uint32_t root = 0;
    if (i % 2 == 1) {
      u = w->run_op_single(i);
      root = traced();
    } else {
      root = traced();
      u = w->run_op_single(i);
    }
    count(u);
    untraced_s += u.wall_s;
    const size_t probe_first = tracer.spans().size();
    {
      Scope probe(tracer, "probe");
      w->probe_op(tracer);
    }
    traced_s += static_cast<double>(tracer.spans()[root].duration_ns()) / 1e9;

    // Layer spans are leaves, so their duration is their self time.
    double layer_ms = 0.0;
    const std::vector<Span>& spans = tracer.spans();
    for (size_t k = first; k < spans.size(); ++k) {
      if (structural(spans[k].name)) continue;
      const double ms = static_cast<double>(spans[k].duration_ns()) / 1e6;
      sums[std::string(spans[k].name) + "_ms"] += ms;
      if (k < probe_first) layer_ms += ms;
    }
    sums["driver.self_ms"] += u.wall_s * 1e3 - layer_ms;
    for (const auto& [name, value] : c) sums[name] += value;
    ++ops;
  }
  const double window = wall_s() - t0;
  failed += w->finish();

  std::vector<Metric> metrics;
  const double n = static_cast<double>(ops);
  for (const auto& [name, unit] : kLayerMetrics) {
    metrics.push_back({name, sums[name] / n, unit});
  }
  auto set = [&metrics](const char* name, double value) {
    for (Metric& m : metrics) {
      if (m.name == name) m.value = value;
    }
  };
  set("driver.cache_hit_ratio",
      sums["jobs"] > 0 ? sums["cache_hits"] / sums["jobs"] : 0.0);
  set("trace.overhead_ratio", untraced_s > 0 ? traced_s / untraced_s : 0.0);
  set("fail_ratio",
      static_cast<double>(failed) / static_cast<double>(attempted));
  set("box.hardware_threads", box.hardware_threads);
  set("box.parallelism", box.parallelism);

  // Self time of every span name over the whole run (ms per op): the
  // structural spans' self time is the re-drive's own overhead.
  std::map<std::string, double> self_ms;
  const std::vector<int64_t> self = tracer.self_ns();
  for (size_t k = 0; k < self.size(); ++k) {
    self_ms[tracer.spans()[k].name] += static_cast<double>(self[k]) / 1e6 / n;
  }
  std::vector<std::pair<std::string, double>> extra;
  for (const auto& [name, ms] : self_ms) extra.emplace_back("self_ms." + name, ms);
  const std::string spans_path =
      cfg.out_dir + "/spans-" + run_name(cfg) + ".jsonl";
  if (!tracer.write_jsonl(spans_path)) {
    std::fprintf(stderr, "foraybench: cannot write %s\n", spans_path.c_str());
  }
  write_record(cfg, box, ops, window, extra, {}, {}, metrics);
  print_result(attempted, failed, metrics);
  return 0;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "foraybench: %s\nusage: foraybench --workload NAME --seed N "
               "--seconds S --trace 0|1 --foraygen PATH --out-dir DIR\n"
               "       foraybench --reference NAME --seed N\n",
               why);
  return 2;
}

bool parse_u64(const char* s, uint64_t* out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(s, &end, 10);
  return *end == '\0' && errno == 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // A server that dies mid-request must surface as a failed write.
  signal(SIGPIPE, SIG_IGN);

  RunConfig cfg;
  cfg.self = argv[0];
  std::string reference;
  double seconds = 0.0;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    uint64_t n = 0;
    if (arg == "--workload") {
      cfg.workload = value;
    } else if (arg == "--reference") {
      reference = value;
    } else if (arg == "--seed") {
      if (!parse_u64(value, &cfg.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      char* end = nullptr;
      seconds = std::strtod(value, &end);
      if (*end != '\0' || !(seconds > 0)) return usage("bad --seconds");
    } else if (arg == "--trace") {
      if (!parse_u64(value, &n) || n > 1) return usage("bad --trace");
      cfg.trace = n == 1;
      have_trace = true;
    } else if (arg == "--foraygen") {
      cfg.foraygen = value;
    } else if (arg == "--out-dir") {
      cfg.out_dir = value;
    } else {
      return usage(("unknown option " + arg).c_str());
    }
  }
  if (!reference.empty()) {
    if (!have_seed) return usage("--reference needs --seed");
    return emit_reference(reference, cfg.seed);
  }
  if (make_workload(cfg) == nullptr) {
    return usage("unknown or missing --workload");
  }
  if (!have_seed || !have_trace || seconds <= 0 || cfg.foraygen.empty() ||
      cfg.out_dir.empty()) {
    return usage("missing option");
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  if (ec) return usage(("cannot create " + cfg.out_dir).c_str());

  const BoxCalibration box = calibrate_box();
  std::fprintf(stderr,
               "foraybench: %s seed %llu: %u hardware threads, 2-thread "
               "parallelism %.2fx\n",
               cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
               box.hardware_threads, box.parallelism);
  return cfg.trace ? run_traced(cfg, seconds, box)
                   : run_measured(cfg, seconds, box);
}
