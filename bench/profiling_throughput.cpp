// Profiling/extraction throughput over the benchsuite — the perf
// trajectory for the chunked trace transport and the profiling engines.
//
// Per benchmark it measures, in records/sec:
//   sim       bytecode-VM simulator filling a VectorSink (the default
//             engine; chunked emission); also reported in VM steps/sec
//             (`sim_msteps_s`), the VM's own unit: the production pass
//             elides most records, so records are a poor denominator
//             for the VM
//   sim_ast   the same run on the tree-walking reference interpreter —
//             the sim-engine axis; the engines' traces are
//             bit-identical (tests/engine_equivalence_test), so the
//             ratio is pure engine speed
//   online    simulator + online analysis fused: the extractor is the
//             bytecode VM's sink, fed one virtual on_chunk() call per
//             chunk; no scalar elision
//   online_ast the fused path on the tree walker
//   production the production Phase I pass, core::profile_phase with
//             default options: fused, eliding scalar traffic, compiling
//             the program each run. Reported in full-trace records/s
//             (the records `online` analyzes), so the two compare
//   record    extraction replay, one virtual on_chunk(&r, 1) call per
//             record (the record-at-a-time transport shape)
//   chunked   extraction replay, bulk on_chunk() delivery
//
// Every multi-run-capable mode is timed best-of-3: the 1-core container
// shares its core with neighbors, and a single cold run routinely reads
// 2x under the machine's real capability. Results go to
// BENCH_profiling.json together with the
// pre-PR seed baselines (measured at commit 87dbf5c on the 1-core dev
// container) so future sessions can track multiples against a fixed
// reference.
//
// Usage:
//   bench_profiling_throughput [--program NAME] [--json PATH]
//                              [--check-floor FLOOR_JSON]
// --check-floor reads {"program": ..., "floor_mrec_s": X, and
// optionally "sim_floor_mrec_s", "online_floor_mrec_s" and
// "production_floor_mrec_s"} and exits 1 if the chunked replay, sim,
// fused online or production throughput falls below its floor (the CI
// perf smoke; floors sit far enough under dev-container numbers to
// absorb runner variance but above the previous-PR throughput, so a
// regression to the old engine's speed fails). The sim, online and
// production floors hold the default engine, the bytecode VM.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "benchsuite/suite.h"
#include "foray/pipeline.h"
#include "sim/bytecode.h"
#include "sim/interpreter.h"
#include "trace/sink.h"
#include "util/json.h"

namespace {

using namespace foray;
using Clock = std::chrono::steady_clock;

// Pre-PR reference points (seed commit 87dbf5c, 1-core dev container,
// aggregate over the six benchsuite programs, same methodology).
constexpr double kSeedSimMrecS = 15.4;
constexpr double kSeedExtractMrecS = 41.1;
constexpr double kSeedOnlineMrecS = 15.6;

struct ProgramResult {
  std::string name;
  uint64_t records = 0;
  uint64_t steps = 0;
  double sim = 0, sim_msteps = 0, sim_ast = 0, online = 0, online_ast = 0,
         production = 0, record = 0, chunked = 0;
};

double mega_per_s(uint64_t count, double seconds) {
  return seconds > 0 ? static_cast<double>(count) / seconds / 1e6 : 0.0;
}

template <class Fn>
double timed(Fn&& fn) {
  auto t0 = Clock::now();
  fn();
  auto t1 = Clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Best of three runs — see the header comment on noise.
template <class Fn>
double timed_best(Fn&& fn) {
  double best = timed(fn);
  for (int i = 0; i < 2; ++i) best = std::min(best, timed(fn));
  return best;
}

ProgramResult run_one(const benchsuite::Benchmark& b) {
  ProgramResult out;
  out.name = b.name;

  core::PipelineResult res;
  core::PipelineOptions opts;
  if (!core::frontend_phase(b.source, &res).ok() ||
      !core::instrument_phase(&res).ok()) {
    std::fprintf(stderr, "%s: frontend failed: %s\n", b.name.c_str(),
                 res.error().c_str());
    std::exit(1);
  }

  sim::RunOptions bc_opts = opts.run;
  bc_opts.engine = sim::Engine::Bytecode;
  sim::RunOptions ast_opts = opts.run;
  ast_opts.engine = sim::Engine::Ast;
  // Compile once, outside every timed region: the bench measures
  // engine execution throughput, not per-run compilation.
  const sim::CompiledProgram compiled = sim::compile_program(*res.program);

  // Every timed run checks ok(): a faulted simulation (different step
  // accounting can, in principle, trip limits on one engine only) must
  // abort the bench rather than publish a truncated-run throughput.
  auto check = [&](const sim::RunResult& run) {
    if (!run.ok()) {
      std::fprintf(stderr, "%s: simulation failed: %s\n", b.name.c_str(),
                   run.error().c_str());
      std::exit(1);
    }
  };

  trace::VectorSink sink;
  const double t_sim = timed_best([&] {
    sink.clear();
    const sim::RunResult run = sim::run_compiled_with(compiled, &sink, bc_opts);
    check(run);
    out.steps = run.steps;
  });
  const auto& recs = sink.records();
  out.records = recs.size();
  out.sim = mega_per_s(out.records, t_sim);
  out.sim_msteps = mega_per_s(out.steps, t_sim);

  out.sim_ast = mega_per_s(out.records, timed_best([&] {
    trace::VectorSink ast_sink(out.records);
    check(sim::run_program(*res.program, &ast_sink, ast_opts));
  }));

  out.online = mega_per_s(out.records, timed_best([&] {
    core::Extractor ex;
    check(sim::run_compiled_with(compiled, &ex, bc_opts));
  }));

  out.online_ast = mega_per_s(out.records, timed_best([&] {
    core::Extractor ex;
    check(sim::run_program(*res.program, &ex, ast_opts));
  }));

  out.production = mega_per_s(out.records, timed_best([&] {
    core::profile_phase(opts, &res);
    check(res.run);
  }));

  out.record = mega_per_s(out.records, timed([&] {
    core::Extractor ex;
    trace::Sink* s = &ex;  // force the virtual record-at-a-time path
    for (const auto& r : recs) s->on_chunk(&r, 1);
  }));

  out.chunked = mega_per_s(out.records, timed([&] {
    core::Extractor ex;
    ex.on_chunk(recs.data(), recs.size());
  }));
  return out;
}

void write_json(const std::string& path,
                const std::vector<ProgramResult>& rows, bool full_suite) {
  util::JsonWriter w;
  uint64_t total = 0, total_steps = 0;
  double ts = 0, ta = 0, to = 0, toa = 0, tp = 0, tr = 0, tc = 0;
  auto add = [](double* acc, uint64_t records, double mrec) {
    if (mrec > 0) *acc += records / 1e6 / mrec;
  };
  for (const auto& r : rows) {
    total += r.records;
    total_steps += r.steps;
    add(&ts, r.records, r.sim);
    add(&ta, r.records, r.sim_ast);
    add(&to, r.records, r.online);
    add(&toa, r.records, r.online_ast);
    add(&tp, r.records, r.production);
    add(&tr, r.records, r.record);
    add(&tc, r.records, r.chunked);
  }
  const double agg_sim = ts > 0 ? total / 1e6 / ts : 0.0;
  const double agg_sim_ast = ta > 0 ? total / 1e6 / ta : 0.0;
  const double agg_chunked = tc > 0 ? total / 1e6 / tc : 0.0;
  w.begin_object();
  w.key("bench").value("profiling_throughput");
  w.key("unit").value("Mrec/s");
  w.key("hardware_threads")
      .value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.key("sim_engine_default").value("bytecode");
  w.key("programs").begin_array();
  for (const auto& r : rows) {
    w.begin_object();
    w.key("program").value(r.name);
    w.key("records").value(r.records);
    w.key("steps").value(r.steps);
    w.key("sim").value(r.sim);
    w.key("sim_msteps_s").value(r.sim_msteps);
    w.key("sim_ast").value(r.sim_ast);
    w.key("online").value(r.online);
    w.key("online_ast").value(r.online_ast);
    w.key("production").value(r.production);
    w.key("record_at_a_time").value(r.record);
    w.key("chunked").value(r.chunked);
    w.end_object();
  }
  w.end_array();
  // The seed baselines are whole-suite aggregates; a --program subset
  // run has no comparable denominator, so those sections are omitted.
  if (full_suite) {
    w.key("aggregate").begin_object();
    w.key("records").value(total);
    w.key("steps").value(total_steps);
    w.key("sim").value(agg_sim);
    w.key("sim_msteps_s").value(ts > 0 ? total_steps / 1e6 / ts : 0.0);
    w.key("sim_ast").value(agg_sim_ast);
    w.key("online").value(to > 0 ? total / 1e6 / to : 0.0);
    w.key("online_ast").value(toa > 0 ? total / 1e6 / toa : 0.0);
    w.key("production").value(tp > 0 ? total / 1e6 / tp : 0.0);
    w.key("record_at_a_time").value(tr > 0 ? total / 1e6 / tr : 0.0);
    w.key("chunked").value(agg_chunked);
    w.end_object();
    w.key("seed_baseline").begin_object();
    w.key("commit").value("87dbf5c");
    w.key("machine").value("1-core dev container");
    w.key("sim").value(kSeedSimMrecS);
    w.key("extract_record_at_a_time").value(kSeedExtractMrecS);
    w.key("online").value(kSeedOnlineMrecS);
    w.end_object();
    w.key("multiples_vs_seed").begin_object();
    w.key("sim").value(agg_sim / kSeedSimMrecS);
    w.key("sim_ast").value(agg_sim_ast / kSeedSimMrecS);
    w.key("online").value(to > 0 ? total / 1e6 / to / kSeedOnlineMrecS : 0.0);
    w.key("extract_chunked").value(agg_chunked / kSeedExtractMrecS);
    w.end_object();
    w.key("engine_speedup_sim").value(
        agg_sim_ast > 0 ? agg_sim / agg_sim_ast : 0.0);
  } else {
    w.key("subset").value(true);
  }
  w.end_object();

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << w.str() << "\n";
}

/// Throughput floors of one program; 0 = not checked.
struct Floors {
  std::string program;
  double chunked = 0, sim = 0, online = 0, production = 0;
};

/// Tiny extractor for the flat fields of the floor file; not a JSON
/// parser, just enough for {"program": "...", "floor_mrec_s": N,
/// "sim_floor_mrec_s": M, ...}. All but the first two are optional.
bool read_floor(const std::string& path, Floors* floors) {
  std::ifstream in(path);
  if (!in) return false;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto find_value = [&](const char* key) -> std::string {
    auto pos = text.find(key);
    if (pos == std::string::npos) return "";
    pos = text.find(':', pos);
    if (pos == std::string::npos) return "";
    ++pos;
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '"')) ++pos;
    std::string out;
    while (pos < text.size() && text[pos] != '"' && text[pos] != ',' &&
           text[pos] != '}' && text[pos] != '\n') {
      out += text[pos++];
    }
    return out;
  };
  auto number = [&](const char* key) {
    const std::string v = find_value(key);
    return v.empty() ? 0.0 : std::strtod(v.c_str(), nullptr);
  };
  floors->program = find_value("\"program\"");
  if (floors->program.empty() || find_value("\"floor_mrec_s\"").empty()) {
    return false;
  }
  floors->chunked = number("\"floor_mrec_s\"");
  floors->sim = number("\"sim_floor_mrec_s\"");
  floors->online = number("\"online_floor_mrec_s\"");
  floors->production = number("\"production_floor_mrec_s\"");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string only, json_path = "BENCH_profiling.json", floor_path;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--program") && i + 1 < argc) {
      only = argv[++i];
    } else if (!std::strcmp(argv[i], "--json") && i + 1 < argc) {
      json_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--check-floor") && i + 1 < argc) {
      floor_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--program NAME] [--json PATH] "
                   "[--check-floor FLOOR_JSON]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<ProgramResult> rows;
  std::printf("== profiling throughput (Mrec/s) ==\n");
  std::printf("%-8s %10s %6s %8s %7s %7s %8s %6s %7s %8s\n", "program",
              "records", "sim", "Mstep/s", "sim_ast", "online", "onl_ast",
              "prod", "record", "chunked");
  for (const auto& b : benchsuite::all_benchmarks()) {
    if (!only.empty() && b.name != only) continue;
    ProgramResult r = run_one(b);
    std::printf(
        "%-8s %10llu %6.1f %8.1f %7.1f %7.1f %8.1f %6.1f %7.1f %8.1f\n",
        r.name.c_str(), static_cast<unsigned long long>(r.records), r.sim,
        r.sim_msteps, r.sim_ast, r.online, r.online_ast, r.production,
        r.record, r.chunked);
    rows.push_back(std::move(r));
  }
  if (rows.empty()) {
    std::fprintf(stderr, "no benchmark named '%s'\n", only.c_str());
    return 1;
  }
  write_json(json_path, rows, only.empty());
  std::printf("wrote %s\n", json_path.c_str());
  std::printf("(seed baseline, commit 87dbf5c: sim %.1f, extract %.1f, "
              "online %.1f Mrec/s)\n",
              kSeedSimMrecS, kSeedExtractMrecS, kSeedOnlineMrecS);

  if (!floor_path.empty()) {
    Floors floors;
    if (!read_floor(floor_path, &floors)) {
      std::fprintf(stderr, "cannot parse floor file %s\n",
                   floor_path.c_str());
      return 1;
    }
    for (const auto& r : rows) {
      if (r.name != floors.program) continue;
      const struct {
        const char* column;
        double measured, floor;
      } checks[] = {{"chunked", r.chunked, floors.chunked},
                    {"sim", r.sim, floors.sim},
                    {"online", r.online, floors.online},
                    {"production", r.production, floors.production}};
      for (const auto& c : checks) {
        if (c.measured < c.floor) {
          std::fprintf(stderr,
                       "PERF REGRESSION: %s %s %.1f Mrec/s below floor "
                       "%.1f\n",
                       r.name.c_str(), c.column, c.measured, c.floor);
          return 1;
        }
      }
      std::printf("floor check OK: %s", r.name.c_str());
      for (const auto& c : checks) {
        std::printf(" %s %.1f >= %.1f", c.column, c.measured, c.floor);
      }
      std::printf(" Mrec/s\n");
      return 0;
    }
    std::fprintf(stderr, "floor program '%s' was not measured\n",
                 floors.program.c_str());
    return 1;
  }
  return 0;
}
