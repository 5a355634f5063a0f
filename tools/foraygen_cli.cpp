// foraygen — command-line driver for the FORAY-GEN pipeline.
//
// Usage:
//   foraygen <command> <program.mc> [options]
//   foraygen sweep [program.mc] [options]
//   foraygen lint [program.mc] [options]
//   foraygen serve [options]
//
// Commands:
//   model      extract and print the FORAY model (paper display form)
//   emit       print the FORAY model as a runnable MiniC program
//   annotate   print the checkpoint-annotated source (Figure 4b view)
//   trace      dump the profiling trace in text form
//   stats      loop mix, conversion and memory-behavior statistics
//   hints      inter-function (duplication) hints
//   run        just execute the program (no profiling) and show its
//              output
//   profile    profile + extract only; prints trace/extraction statistics
//   spm        Phase II at one design point: reuse analysis + DSE +
//              energy, run as a one-point sweep (--capacity, and
//              --compare-cache / --replay as the cache and replay values)
//   sweep      multi-axis DSE grid (capacity × energy model × cache
//              geometry × algorithm × replay) over the benchsuite, or
//              over one program when a path is given; prints a table and
//              Pareto frontiers, or streams NDJSON with --ndjson
//   lint       sound static check (staticforay/checker.h): interval-
//              domain diagnostics (use-before-init, provable
//              out-of-bounds, provable div-by-zero, unreachable code,
//              canonical-iterator writes) plus static step/record cost
//              bounds, over one program or the whole benchsuite; a
//              *proven* fault exits 3, a merely-suspicious program
//              (warnings only) exits 0
//   serve      long-lived sweep service: one NDJSON request per stdin
//              line, one sweep NDJSON stream + done row per request
//              (driver/serve.h documents the protocol); Phase I models,
//              replay simulations and cache counts are kept across
//              requests, and the memos' counts go to stderr at EOF
//
// Options:
//   --nexec N   Step 4 filter: minimum executions   (default 20)
//   --nloc N    Step 4 filter: minimum locations    (default 10)
//               (both only where a model is extracted: not run, trace,
//               annotate or lint)
//   --seed S    simulated rand() seed               (default 1)
//   --capacity N         spm: SPM size in bytes     (default 4096)
//   --compare-cache      spm/sweep: also replay through LRU caches
//                        (sweep: when the cache axis is undeclared)
//   --replay             spm/sweep: execute the transformed
//                        program and check its simulated traffic
//                        against the analytic counters (sweep: when
//                        the replay axis is undeclared); a counter
//                        mismatch exits 1. sweep and serve simulate
//                        each distinct transformed program once and
//                        print the replay memo's counts to stderr
//   --threads N          sweep/serve: worker threads (default 1)
//   --capacity-sweep a,b,c  sweep: SPM capacity axis
//   --json PATH          lint: write the diagnostics + cost bounds as
//                        one JSON document to PATH ('-' for stdout)
//                        instead of the human-readable report
//   --lint-first         sweep: statically check every program before
//                        its Phase I; a program the checker proves
//                        faulty gets one per-program `lint` error row
//                        instead of a failure row per grid point
//   --static-admission   serve: refuse requests whose static *minimum*
//                        step/record bound exceeds the request budget
//                        (resource_exhausted, phase "lint-admission")
//                        before any Phase I work runs; a server lints
//                        each distinct source once
//   --energy-sweep a,b   sweep: energy-model axis — preset names with
//                        optional :field=value overrides, e.g.
//                        default,dram-heavy,default:dram_nj=5.2
//   --cache-sweep a,b    sweep: cache-comparison axis — off and/or
//                        LINExASSOC geometries, e.g. off,32x2,64x4
//   --algo-sweep a,b     sweep: selection-algorithm axis (dp, greedy)
//   --replay-sweep a,b   sweep: replay-validation axis (off, on)
//   --spec FILE          sweep: read axes from a key=value spec file
//                        (axis names: capacity energy cache algorithm
//                        replay; '#' comments); later axis flags
//                        override the file
//   --ndjson PATH        sweep: stream the grid as NDJSON to PATH
//                        ('-' for stdout) instead of printing tables;
//                        byte-identical whatever --threads is
//   --resume JOURNAL     sweep (with --ndjson): re-emit the points
//                        already completed in a previous run's NDJSON
//                        journal verbatim and run only the missing or
//                        failed ones; output is byte-identical to an
//                        uninterrupted run
//   --cache-dir DIR      sweep/serve: content-addressed Phase I
//                        model cache. A warm run skips profiling and
//                        extraction entirely and is byte-identical to a
//                        cold one; corrupt or stale entries are detected,
//                        reported and recomputed. The FORAY_CACHE_DIR
//                        env var supplies a default.
//   --no-cache           sweep/serve: ignore FORAY_CACHE_DIR and
//                        run uncached
//   --cache-max-bytes N  sweep/serve: bound the on-disk model
//                        cache; after each store, oldest entries are
//                        evicted until the directory fits (0 =
//                        unbounded, the default)
//   --max-points N       serve: refuse requests whose grid exceeds N
//                        points (admission control; 0 = unlimited,
//                        default 4096)
//   --max-steps N        execution budget: evaluation steps per run
//                        (0 = unlimited; default 500000000)
//   --max-records N      execution budget: trace records per run
//                        (0 = unlimited)
//   --timeout SECONDS    execution budget: wall clock per simulation
//                        (0 = no deadline); checked at trace-chunk
//                        boundaries, so a run can overshoot by at most
//                        one chunk
//   --fault SPEC         arm fault-injection sites, e.g.
//                        sweep.sink.io:skip=1:count=1 (testing aid)
//
// Exit codes (the error *class* decides, never the message):
//   0  success
//   1  analysis negative: transform-replay counter mismatch
//   2  usage/option error
//   3  invalid input (program/spec/journal failed to parse or check;
//      `lint` also exits 3 when the checker proves a fault)
//   4  budget exhausted, deadline exceeded, or cancelled
//   5  internal error (a bug in this library)
//   6  I/O error (unreadable/unwritable/truncated file)
#include <algorithm>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "driver/model_cache.h"
#include "driver/serve.h"
#include "driver/sweep.h"
#include "foray/inline_advisor.h"
#include "foray/model_diff.h"
#include "foray/pipeline.h"
#include "minic/parser.h"
#include "minic/printer.h"
#include "sim/interpreter.h"
#include "staticforay/checker.h"
#include "staticforay/pointer_conversion.h"
#include "staticforay/static_analysis.h"
#include "trace/io.h"
#include "trace/sink.h"
#include "util/fault.h"
#include "util/json.h"
#include "util/strings.h"

namespace {

using namespace foray;

int usage() {
  std::fprintf(
      stderr,
      "usage: foraygen <model|emit|annotate|trace|stats|hints|run|profile"
      "|spm> <program.mc> [--nexec N] [--nloc N] [--seed S] "
      "[--capacity N] [--compare-cache] [--replay]\n"
      "       (run and trace take no --nexec/--nloc: they extract no "
      "model)\n"
      "       (spm is a one-point sweep: Phase II runs in driver/sweep)\n"
      "       foraygen sweep [program.mc] [--threads N] "
      "[--capacity-sweep a,b,c] [--energy-sweep a,b] [--cache-sweep "
      "off,32x2,...] [--algo-sweep dp,greedy] [--replay-sweep off,on] "
      "[--spec FILE] [--ndjson PATH|-] [--resume JOURNAL] [--lint-first] "
      "[--nexec N] [--nloc N] [--seed S] [--replay]\n"
      "       foraygen lint [program.mc] [--json PATH|-]\n"
      "       foraygen serve [--threads N] [--max-points N] "
      "[--static-admission] [--nexec N] [--nloc N] [--seed S]\n"
      "  sweep/serve also accept the model-cache options "
      "[--cache-dir DIR] [--no-cache] [--cache-max-bytes N] "
      "(FORAY_CACHE_DIR is the default directory)\n"
      "  every command but lint and annotate also accepts the "
      "execution-budget options [--max-steps N] [--max-records N] "
      "[--timeout SECONDS]; every command accepts the fault-injection "
      "aid [--fault SPEC]\n");
  return 2;
}

/// Named option error: satisfies the CLI contract that a bad or
/// misplaced flag is reported by name with a nonzero exit, never
/// swallowed or bounced to the generic usage text.
int option_error(const std::string& message) {
  std::fprintf(stderr, "foraygen: %s\n", message.c_str());
  return 2;
}

/// The documented Status-class → exit-code mapping (see the header
/// comment). Exit 1 (replay mismatch) and 2 (usage) never come from a
/// Status; everything that does goes through here.
int exit_code_for(const util::Status& st) {
  switch (st.code()) {
    case util::ErrorCode::kOk: return 0;
    case util::ErrorCode::kInvalidInput: return 3;
    case util::ErrorCode::kResourceExhausted:
    case util::ErrorCode::kDeadlineExceeded:
    case util::ErrorCode::kCancelled: return 4;
    case util::ErrorCode::kInternal: return 5;
    case util::ErrorCode::kIoError: return 6;
  }
  return 5;
}

/// Prints the failure and converts it to the documented exit code.
int fail_with(const util::Status& st) {
  std::fprintf(stderr, "%s\n", st.message().c_str());
  return exit_code_for(st);
}

util::Status unreadable(const std::string& path) {
  return util::Status::failure(util::ErrorCode::kIoError, "io", 0,
                               "cannot read " + path);
}

util::Status unwritable(const std::string& path) {
  return util::Status::failure(util::ErrorCode::kIoError, "io", 0,
                               "cannot write " + path);
}

/// Flags that only make sense for specific commands. The Step 4 filter
/// flags (--nexec, --nloc) shape an extracted model, which run, trace,
/// lint and annotate never build. The other Phase I and budget flags
/// (--seed, --max-steps, ...) configure a run of the program,
/// which lint and annotate never do; every other command accepts them,
/// and --fault applies everywhere.
bool flag_applies(const std::string& command, const std::string& flag) {
  struct Scoped {
    const char* flag;
    std::vector<const char*> commands;
  };
  static const std::vector<Scoped> kScoped = {
      {"--capacity", {"spm"}},
      // sweep inherits the base compare-cache settings into every grid
      // point whose cache axis is undeclared.
      {"--compare-cache", {"spm", "sweep"}},
      {"--replay", {"spm", "sweep"}},
      {"--threads", {"sweep", "serve"}},
      {"--cache-dir", {"sweep", "serve"}},
      {"--no-cache", {"sweep", "serve"}},
      {"--cache-max-bytes", {"sweep", "serve"}},
      {"--max-points", {"serve"}},
      {"--static-admission", {"serve"}},
      {"--lint-first", {"sweep"}},
      {"--capacity-sweep", {"sweep"}},
      {"--json", {"lint"}},
      {"--energy-sweep", {"sweep"}},
      {"--cache-sweep", {"sweep"}},
      {"--algo-sweep", {"sweep"}},
      {"--replay-sweep", {"sweep"}},
      {"--spec", {"sweep"}},
      {"--ndjson", {"sweep"}},
      {"--resume", {"sweep"}},
  };
  static const std::vector<const char*> kRunFlags = {
      "--seed", "--max-steps", "--max-records", "--timeout"};
  for (const auto& s : kScoped) {
    if (flag == s.flag) {
      for (const char* c : s.commands) {
        if (command == c) return true;
      }
      return false;
    }
  }
  const bool runs_program = command != "lint" && command != "annotate";
  if (flag == "--nexec" || flag == "--nloc") {
    return runs_program && command != "run" && command != "trace";
  }
  for (const char* f : kRunFlags) {
    if (flag == f) return runs_program;
  }
  return true;
}

bool read_file(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

int cmd_annotate(const std::string& source) {
  util::DiagList diags;
  auto prog = minic::parse_and_check(source, &diags);
  if (!prog) {
    return fail_with(util::Status::failure(util::ErrorCode::kInvalidInput,
                                           "frontend", std::move(diags)));
  }
  instrument::annotate_loops(prog.get());
  minic::PrintOptions opts;
  opts.annotate_checkpoints = true;
  std::fputs(minic::print_program(*prog, opts).c_str(), stdout);
  return 0;
}

int cmd_trace(const std::string& source, const sim::RunOptions& ropts) {
  util::DiagList diags;
  auto prog = minic::parse_and_check(source, &diags);
  if (!prog) {
    return fail_with(util::Status::failure(util::ErrorCode::kInvalidInput,
                                           "frontend", std::move(diags)));
  }
  instrument::annotate_loops(prog.get());
  trace::VectorSink sink;
  sim::RunResult run = sim::run_program(*prog, &sink, ropts);
  if (!run.ok()) {
    return fail_with(run.status);
  }
  for (const auto& r : sink.records()) {
    std::printf("%s\n", trace::record_to_text(r).c_str());
  }
  return 0;
}

/// `foraygen run`: the frontend and loop annotation of Phase I (so
/// errors read as in every other command), then one simulation with no
/// sink — nothing is profiled or extracted.
int cmd_run(const std::string& source, const sim::RunOptions& ropts) {
  core::PipelineResult res;
  if (!core::frontend_phase(source, &res).ok()) return fail_with(res.status);
  core::instrument_phase(&res);
  const sim::RunResult run = sim::run_program(*res.program, nullptr, ropts);
  if (!run.ok()) return fail_with(run.status);
  std::fputs(run.output.c_str(), stdout);
  std::printf("[exit %d, %llu steps, %llu accesses]\n", run.exit_code,
              static_cast<unsigned long long>(run.steps),
              static_cast<unsigned long long>(run.accesses));
  return 0;
}

int cmd_stats(const core::PipelineResult& res,
              const core::FilterOptions& filter) {
  auto mix = core::compute_loop_mix(res.extractor->tree(), res.loop_sites,
                                    res.program->source_lines);
  std::printf("lines: %d\n", mix.lines);
  std::printf("loops executed: %d (for %.0f%%, while %.0f%%, do %.0f%%)\n",
              mix.total, mix.pct_for(), mix.pct_while(), mix.pct_do());

  auto analysis = staticforay::analyze(*res.program);
  auto conv = staticforay::analyze_pointer_conversion(*res.program);
  auto cs = staticforay::compute_conversion(res.model, analysis);
  auto cmp = staticforay::compare_baselines(res.model, analysis, conv);
  std::printf("FORAY model: %d refs over %d loops\n", cs.model_refs,
              cs.model_loops);
  std::printf("not in FORAY form statically: %.0f%% of loops, %.0f%% of "
              "refs\n",
              cs.pct_loops_not_foray(), cs.pct_refs_not_foray());
  std::printf("analyzable refs: %d plain static, %d with pointer "
              "conversion, %d with FORAY-GEN (%.2fx over conversion)\n",
              cmp.plain_static, cmp.with_conversion, cmp.foray_gen,
              cmp.foray_gain_over_conversion());

  auto behavior = core::compute_behavior(res.extractor->tree(), filter);
  auto bucket = [](const char* name, const core::BehaviorBucket& b,
                   const core::BehaviorBucket& t) {
    std::printf("%-7s %6llu refs (%s)  %10llu accesses (%s)  %8llu "
                "footprint (%s)\n",
                name, static_cast<unsigned long long>(b.refs),
                util::pct(static_cast<double>(b.refs),
                          static_cast<double>(t.refs)).c_str(),
                static_cast<unsigned long long>(b.accesses),
                util::pct(static_cast<double>(b.accesses),
                          static_cast<double>(t.accesses)).c_str(),
                static_cast<unsigned long long>(b.footprint),
                util::pct(static_cast<double>(b.footprint),
                          static_cast<double>(t.footprint)).c_str());
  };
  bucket("total", behavior.total, behavior.total);
  bucket("model", behavior.model, behavior.total);
  bucket("system", behavior.system, behavior.total);
  bucket("other", behavior.other, behavior.total);
  return 0;
}

/// One static bound as JSON: a number when finite, the string
/// "unbounded" otherwise (uint64 max would be lossy in double-backed
/// JSON parsers, and "unbounded" is what the human report prints too).
void lint_bound_json(util::JsonWriter& w, const char* name, uint64_t v) {
  if (v == staticforay::kUnbounded) {
    w.key(name).value("unbounded");
  } else {
    w.key(name).value(v);
  }
}

/// `foraygen lint`: the static checker over each job. Human report per
/// program, or one stable JSON document with --json. Exit 3 the moment
/// any program fails the frontend or carries a *proven* fault;
/// warnings-only programs are clean (exit 0) — the documented contract
/// that admission gating keys on the must-fault class, not on style.
int cmd_lint(const std::vector<driver::SweepJob>& jobs,
             const std::string& json_path) {
  const bool json = !json_path.empty();
  util::JsonWriter w;
  if (json) {
    w.begin_object();
    w.key("kind").value("lint");
    w.key("programs").begin_array();
  }
  bool failed = false;
  for (const driver::SweepJob& job : jobs) {
    staticforay::CheckReport rep;
    const util::Status st = staticforay::lint_source(job.source, &rep);
    if (!st.ok()) {
      failed = true;
      if (json) {
        w.begin_object();
        w.key("program").value(job.name);
        w.key("ok").value(false);
        util::write_error_fields(w, st);
        w.end_object();
      } else {
        std::printf("== %s ==\n%s\n", job.name.c_str(),
                    st.message().c_str());
      }
      continue;
    }
    failed = failed || rep.must_fault();
    if (json) {
      w.begin_object();
      w.key("program").value(job.name);
      w.key("ok").value(!rep.must_fault());
      w.key("must_fault").value(rep.must_fault());
      w.key("diags").begin_array();
      for (const staticforay::CheckDiag& d : rep.diags) {
        w.begin_object();
        w.key("kind").value(staticforay::check_kind_name(d.kind));
        w.key("severity").value(staticforay::severity_name(d.severity));
        w.key("line").value(static_cast<int64_t>(d.line));
        w.key("node").value(static_cast<int64_t>(d.node_id));
        w.key("message").value(d.message);
        w.end_object();
      }
      w.end_array();
      w.key("cost").begin_object();
      lint_bound_json(w, "max_steps", rep.cost.max_steps);
      lint_bound_json(w, "max_records", rep.cost.max_records);
      w.key("min_steps").value(rep.cost.min_steps);
      w.key("min_records").value(rep.cost.min_records);
      w.key("exact").value(rep.cost.exact);
      w.end_object();
      w.end_object();
    } else {
      std::printf("== %s ==\n%s", job.name.c_str(), rep.str().c_str());
    }
  }
  if (json) {
    w.end_array();
    w.key("ok").value(!failed);
    w.end_object();
    if (json_path == "-") {
      std::printf("%s\n", w.take().c_str());
    } else {
      std::ofstream out(json_path, std::ios::binary);
      if (!out) return fail_with(unwritable(json_path));
      out << w.take() << '\n';
      if (!out.flush()) return fail_with(unwritable(json_path));
    }
  }
  return failed ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const bool known_command =
      command == "model" || command == "emit" || command == "annotate" ||
      command == "trace" || command == "stats" || command == "hints" ||
      command == "run" || command == "profile" || command == "spm" ||
      command == "sweep" || command == "lint" || command == "serve";
  if (!known_command) {
    usage();
    return option_error("unknown command '" + command + "'");
  }
  // serve takes no program argument; sweep's and lint's are optional
  // (default: the whole benchsuite).
  const bool optional_path = command == "sweep" || command == "lint";
  const bool takes_path =
      command != "serve" &&
      !(optional_path && (argc < 3 || util::starts_with(argv[2], "--")));
  if (takes_path && !optional_path && argc < 3) return usage();
  const std::string path = takes_path ? argv[2] : "";

  core::PipelineOptions opts;
  int threads = 1;
  bool replay = false;
  driver::SweepSpec spec;
  std::string json_path;
  std::string ndjson_path;
  std::string resume_path;
  std::string cache_dir;
  if (const char* env = std::getenv("FORAY_CACHE_DIR")) cache_dir = env;
  bool no_cache = false;
  uint64_t cache_max_bytes = 0;
  uint64_t max_points = 4096;
  bool static_admission = false;
  bool lint_first = false;
  for (int i = takes_path ? 3 : 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!util::starts_with(arg, "--")) {
      return option_error(
          "unexpected argument '" + arg +
          (takes_path ? "' after the program path"
                      : "' (command '" + command +
                            "' takes no program argument)"));
    }
    if (!flag_applies(command, arg)) {
      return option_error("option '" + arg +
                          "' does not apply to command '" + command + "'");
    }
    auto next_value = [&](const char** out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    auto next_u64 = [&](uint64_t* out) {
      const char* s = nullptr;
      if (!next_value(&s)) return false;
      // strtoull silently wraps a leading '-' (so "--max-steps -1" would
      // become a ~1.8e19-step budget) and saturates out-of-range values
      // to ULLONG_MAX; both must be usage errors, not huge numbers.
      if (*s == '+' || *s == '-') return false;
      char* end = nullptr;
      errno = 0;
      *out = std::strtoull(s, &end, 10);
      return end != s && *end == '\0' && errno != ERANGE;
    };
    auto parse_axis = [&](const char* axis) -> int {
      const char* s = nullptr;
      if (!next_value(&s)) {
        return option_error("option '" + arg + "' requires a value");
      }
      util::Status st = spec.parse_axis(axis, s);
      if (!st.ok()) {
        return option_error(arg + (": " + st.message()));
      }
      return 0;
    };
    uint64_t v = 0;
    if (arg == "--nexec") {
      if (!next_u64(&opts.filter.min_exec)) {
        return option_error("option '--nexec' requires a number");
      }
    } else if (arg == "--nloc") {
      if (!next_u64(&opts.filter.min_locations)) {
        return option_error("option '--nloc' requires a number");
      }
    } else if (arg == "--seed") {
      if (!next_u64(&opts.run.rng_seed)) {
        return option_error("option '--seed' requires a number");
      }
    } else if (arg == "--compare-cache") {
      opts.spm.compare_cache = true;
    } else if (arg == "--replay") {
      replay = true;
    } else if (arg == "--json") {
      const char* s = nullptr;
      if (!next_value(&s)) {
        return option_error("option '--json' requires a path");
      }
      json_path = s;
    } else if (arg == "--ndjson") {
      const char* s = nullptr;
      if (!next_value(&s)) {
        return option_error("option '--ndjson' requires a path (or -)");
      }
      ndjson_path = s;
    } else if (arg == "--resume") {
      const char* s = nullptr;
      if (!next_value(&s)) {
        return option_error("option '--resume' requires a journal path");
      }
      resume_path = s;
    } else if (arg == "--max-steps") {
      if (!next_u64(&opts.run.budget.max_steps)) {
        return option_error(
            "option '--max-steps' requires a number (0 = unlimited)");
      }
    } else if (arg == "--max-records") {
      if (!next_u64(&opts.run.budget.max_records)) {
        return option_error(
            "option '--max-records' requires a number (0 = unlimited)");
      }
    } else if (arg == "--timeout") {
      const char* s = nullptr;
      if (!next_value(&s)) {
        return option_error("option '--timeout' requires seconds");
      }
      char* end = nullptr;
      const double secs = std::strtod(s, &end);
      if (end == s || *end != '\0' || !(secs >= 0.0)) {
        return option_error(
            "option '--timeout' requires non-negative seconds");
      }
      opts.run.budget.timeout_seconds = secs;
    } else if (arg == "--fault") {
      const char* s = nullptr;
      if (!next_value(&s)) {
        return option_error("option '--fault' requires a site spec");
      }
      util::Status st = util::fault::configure(s);
      if (!st.ok()) {
        return option_error("--fault: " + st.message());
      }
    } else if (arg == "--spec") {
      const char* s = nullptr;
      if (!next_value(&s)) {
        return option_error("option '--spec' requires a path");
      }
      std::string text;
      if (!read_file(s, &text)) {
        return option_error(std::string("cannot read spec file ") + s);
      }
      util::Status st = spec.parse_file(text);
      if (!st.ok()) {
        return option_error(std::string(s) + ": " + st.message());
      }
    } else if (arg == "--capacity") {
      // 0 is allowed: the degenerate no-SPM report is a supported probe.
      if (!next_u64(&v)) {
        return option_error("option '--capacity' requires a byte count");
      }
      if (v > UINT32_MAX) {
        return option_error("option '--capacity' is out of range (max " +
                            std::to_string(UINT32_MAX) + " bytes)");
      }
      opts.spm.dse.spm_capacity = static_cast<uint32_t>(v);
    } else if (arg == "--threads") {
      if (!next_u64(&v)) {
        return option_error("option '--threads' requires a number");
      }
      if (v > INT_MAX) {
        return option_error("option '--threads' is out of range (max " +
                            std::to_string(INT_MAX) + ")");
      }
      threads = static_cast<int>(v);
    } else if (arg == "--cache-dir") {
      const char* s = nullptr;
      if (!next_value(&s) || *s == '\0') {
        return option_error("option '--cache-dir' requires a directory");
      }
      cache_dir = s;
    } else if (arg == "--no-cache") {
      no_cache = true;
    } else if (arg == "--cache-max-bytes") {
      if (!next_u64(&cache_max_bytes)) {
        return option_error(
            "option '--cache-max-bytes' requires a byte count "
            "(0 = unbounded)");
      }
    } else if (arg == "--static-admission") {
      static_admission = true;
    } else if (arg == "--lint-first") {
      lint_first = true;
    } else if (arg == "--max-points") {
      if (!next_u64(&max_points)) {
        return option_error(
            "option '--max-points' requires a number (0 = unlimited)");
      }
    } else if (arg == "--capacity-sweep") {
      if (int rc = parse_axis("capacity")) return rc;
    } else if (arg == "--energy-sweep") {
      if (int rc = parse_axis("energy")) return rc;
    } else if (arg == "--cache-sweep") {
      if (int rc = parse_axis("cache")) return rc;
    } else if (arg == "--algo-sweep") {
      if (int rc = parse_axis("algorithm")) return rc;
    } else if (arg == "--replay-sweep") {
      if (int rc = parse_axis("replay")) return rc;
    } else {
      return option_error("unknown option '" + arg + "'");
    }
  }
  if (replay && spec.replays.empty()) spec.replays = {true};

  // The model cache: explicit --cache-dir (or FORAY_CACHE_DIR) enables
  // it for sweep; serve always gets at least the in-memory layer —
  // reusing Phase I across requests is the point of serving.
  std::unique_ptr<driver::ModelCache> cache;
  if (!no_cache && (!cache_dir.empty() || command == "serve")) {
    cache = std::make_unique<driver::ModelCache>(
        driver::ModelCacheOptions{cache_dir, cache_max_bytes});
  }
  auto print_cache_stats = [&cache] {
    if (cache == nullptr) return;
    const driver::ModelCache::Stats s = cache->stats();
    std::fprintf(
        stderr,
        "foraygen: model cache: %llu hit(s) (%llu in-memory), "
        "%llu miss(es), %llu rejected, %llu store(s), %llu store "
        "failure(s), %llu evicted, %llu evicted from memory\n",
        static_cast<unsigned long long>(s.hits),
        static_cast<unsigned long long>(s.memory_hits),
        static_cast<unsigned long long>(s.misses),
        static_cast<unsigned long long>(s.rejected),
        static_cast<unsigned long long>(s.stores),
        static_cast<unsigned long long>(s.store_failures),
        static_cast<unsigned long long>(s.evictions),
        static_cast<unsigned long long>(s.memory_evictions));
  };

  // The replay and cache memos' counts, one line each.
  auto print_memo_stats = [](const char* memo, const auto& s) {
    std::fprintf(stderr,
                 "foraygen: %s memo: %llu hit(s), %llu simulation(s), "
                 "%llu evicted\n",
                 memo, static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.simulations),
                 static_cast<unsigned long long>(s.evictions));
  };

  if (command == "lint") {
    std::vector<driver::SweepJob> jobs;
    if (!path.empty()) {
      std::string source;
      if (!read_file(path, &source)) {
        return fail_with(unreadable(path));
      }
      jobs.push_back(driver::SweepJob{path, source});
    } else {
      jobs = driver::SweepDriver::benchsuite_jobs();
    }
    return cmd_lint(jobs, json_path);
  }

  if (command == "serve") {
#if !defined(_WIN32)
    // A client that vanishes mid-response must surface as a write error
    // on the response stream (which cancels that request), not as a
    // process-killing SIGPIPE.
    std::signal(SIGPIPE, SIG_IGN);
#endif
    driver::ServeOptions svopts;
    svopts.threads = threads;
    svopts.pipeline = opts;
    svopts.max_points = max_points;
    svopts.model_cache = cache.get();
    svopts.static_admission = static_admission;
    driver::ReplayMemo replays;
    svopts.replay_memo = &replays;
    driver::CacheMemo caches;
    svopts.cache_memo = &caches;
    util::Status st = driver::serve_loop(std::cin, std::cout, svopts);
    print_cache_stats();
    print_memo_stats("replay", replays.stats());
    print_memo_stats("cache", caches.stats());
    if (!st.ok()) return fail_with(st);
    return 0;
  }

  if (command == "sweep") {
    driver::SweepOptions sopts;
    sopts.threads = threads;
    sopts.pipeline = opts;
    sopts.spec = spec;
    sopts.model_cache = cache.get();
    sopts.lint_first = lint_first;
    // One memo for the run, reported on stderr when some point replays.
    driver::ReplayMemo replays;
    sopts.replay_memo = &replays;
    driver::SweepDriver sweep(sopts);
    const std::vector<bool>& axis = sweep.grid().replays;
    const bool replaying =
        std::find(axis.begin(), axis.end(), true) != axis.end();
    auto print_stats = [&] {
      print_cache_stats();
      if (replaying) print_memo_stats("replay", replays.stats());
    };
    std::vector<driver::SweepJob> jobs;
    if (!path.empty()) {
      std::string source;
      if (!read_file(path, &source)) {
        return fail_with(unreadable(path));
      }
      jobs.push_back(driver::SweepJob{path, source});
    } else {
      jobs = driver::SweepDriver::benchsuite_jobs();
    }

    if (!resume_path.empty() && ndjson_path.empty()) {
      return option_error("option '--resume' requires --ndjson");
    }

    if (!ndjson_path.empty()) {
      // Resume: parse the prior journal BEFORE opening the output —
      // the two paths are usually the same file, and ofstream::open
      // truncates.
      driver::SweepCheckpoint checkpoint;
      const driver::SweepCheckpoint* resume = nullptr;
      if (!resume_path.empty()) {
        std::string journal;
        if (!read_file(resume_path, &journal)) {
          return fail_with(unreadable(resume_path));
        }
        util::Status st = sweep.parse_resume(journal, &checkpoint);
        if (!st.ok()) return fail_with(st);
        resume = &checkpoint;
      }
      // Streaming mode: the grid is written point by point in
      // deterministic order while it runs; nothing is retained.
      std::ofstream file;
      std::ostream* out = &std::cout;
      if (ndjson_path != "-") {
        file.open(ndjson_path, std::ios::binary);
        if (!file) {
          return fail_with(unwritable(ndjson_path));
        }
        out = &file;
      }
      util::Status st = sweep.run_ndjson(jobs, *out, resume);
      print_stats();
      if (!st.ok()) {
        // A transform-replay counter mismatch is the analysis-negative
        // outcome (exit 1), not an error class.
        if (st.phase() == "replay") {
          std::fprintf(stderr, "%s\n", st.message().c_str());
          return 1;
        }
        return fail_with(st);
      }
      return 0;
    }

    auto report = sweep.run(jobs);
    print_stats();
    std::fputs(report.table().c_str(), stdout);
    std::printf("\n-- Pareto frontier (SPM bytes used -> nJ saved) --\n");
    auto print_frontier = [&](const std::string& label,
                              const std::vector<driver::ParetoPoint>& pts) {
      std::printf("%s:", label.c_str());
      for (const auto& p : pts) {
        std::printf(" %lluB=%.1fnJ",
                    static_cast<unsigned long long>(p.bytes_used),
                    p.saved_nj);
      }
      std::printf("\n");
    };
    for (size_t j = 0; j < report.programs.size(); ++j) {
      print_frontier(report.programs[j], report.pareto(j));
    }
    if (report.programs.size() > 1) {
      print_frontier("(aggregate)", report.pareto_aggregate());
    }
    int rc = 0;
    // A Phase I failure is copied into every grid point of its program;
    // report each distinct (program, message) once, not once per point.
    std::string last_error;
    for (const auto& item : report.items) {
      if (!item.status.ok()) {
        if (rc == 0 || rc == 1) rc = exit_code_for(item.status);
        std::string error = item.program + ": " + item.status.message();
        if (error != last_error) {
          std::fprintf(stderr, "%s\n", error.c_str());
          last_error = std::move(error);
        }
      } else if (item.replay_ran && !item.replay.matches()) {
        std::fprintf(stderr, "%s @%uB: transform-replay mismatch\n",
                     item.program.c_str(), item.point.capacity_bytes);
        if (rc == 0) rc = 1;
      }
    }
    return rc;
  }

  std::string source;
  if (!read_file(path, &source)) {
    return fail_with(unreadable(path));
  }

  if (command == "annotate") return cmd_annotate(source);
  if (command == "trace") return cmd_trace(source, opts.run);
  if (command == "run") return cmd_run(source, opts.run);

  if (command == "spm") {
    // A one-point sweep: every axis inherits its single value from opts
    // and the --replay value set above.
    driver::SweepOptions sopts;
    sopts.pipeline = opts;
    sopts.spec = spec;
    const driver::SweepReport report =
        driver::SweepDriver(sopts).run({driver::SweepJob{path, source}});
    const driver::SweepItem& item = report.items.front();
    if (!item.status.ok()) return fail_with(item.status);
    const core::ForayModel& model = report.results.front().model;
    std::printf("model: %zu reference(s), %zu buffer candidate(s)\n",
                item.model_refs, item.spm.candidate_count);
    std::fputs(core::describe_spm_report(item.spm, model).c_str(), stdout);
    if (!item.replay_ran) return 0;
    std::fputs(spm::describe_replay_report(item.replay, model).c_str(),
               stdout);
    if (!item.replay.matches()) {
      std::fprintf(stderr,
                   "replay: simulated traffic of the transformed program "
                   "diverges from the analytic counters\n");
      return 1;
    }
    return 0;
  }

  // These reports read every reference of the loop tree, scalars
  // included, so they need the full trace.
  opts.census =
      command == "profile" || command == "stats" || command == "model";
  auto res = core::run_pipeline(source, opts);
  if (!res.ok()) {
    return fail_with(res.status);
  }

  if (command == "profile") {
    const auto& ex = *res.extractor;
    std::printf("trace records: %llu (%llu accesses, %llu checkpoints)\n",
                static_cast<unsigned long long>(res.trace_records),
                static_cast<unsigned long long>(ex.accesses_processed()),
                static_cast<unsigned long long>(ex.checkpoints_processed()));
    std::printf("loop tree: %d loop node(s), %d reference(s)\n",
                ex.tree().loop_node_count(), ex.tree().ref_node_count());
    std::printf("analyzer state: %zu bytes\n", ex.state_bytes());
    std::printf("model: %zu reference(s) survive the Step 4 filter\n",
                res.model.refs.size());
    return 0;
  }
  if (command == "model") {
    std::printf("%zu references (of %d candidates) in the FORAY model:\n\n",
                res.model.refs.size(), res.build_stats.total_refs);
    std::fputs(res.foray_paper_style.c_str(), stdout);
    return 0;
  }
  if (command == "emit") {
    std::fputs(res.foray_source.c_str(), stdout);
    return 0;
  }
  if (command == "stats") return cmd_stats(res, opts.filter);
  if (command == "hints") {
    auto hints = core::compute_inline_hints(res.model, res.loop_sites);
    if (hints.empty()) {
      std::printf("no duplication hints\n");
      return 0;
    }
    for (const auto& h : hints) {
      std::printf("function '%s': %d contexts, patterns %s\n",
                  h.func_name.c_str(), h.contexts,
                  h.patterns_differ ? "differ" : "match");
      for (const auto& d : h.details) std::printf("  %s\n", d.c_str());
    }
    return 0;
  }
  return usage();
}
