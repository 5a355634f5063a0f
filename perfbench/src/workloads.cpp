#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <utility>
#include <vector>

#include "benchsuite/generator.h"
#include "benchsuite/suite.h"
#include "child.h"
#include "driver/model_cache.h"
#include "driver/serve.h"
#include "driver/sweep.h"
#include "foray/pipeline.h"
#include "sim/bytecode.h"
#include "sim/interp_impl.h"
#include "spm/address_stream.h"
#include "spm/cache_sim.h"
#include "spm/dse.h"
#include "spm/replay.h"
#include "spm/reuse.h"
#include "spm/spm_sim.h"
#include "staticforay/checker.h"
#include "stats.h"
#include "trace/sink.h"
#include "util/json.h"
#include "util/rng.h"

namespace perfbench {

namespace {

namespace core = foray::core;
namespace driver = foray::driver;
namespace spm = foray::spm;
namespace util = foray::util;
using driver::ModelCache;
using driver::SweepDriver;
using driver::SweepGrid;
using driver::SweepJob;
using driver::SweepOptions;
using driver::SweepSpec;

using Axes = std::vector<std::pair<std::string, std::string>>;

constexpr const char* kCapacities[] = {"256",  "512",  "1024",  "2048",
                                       "4096", "8192", "16384", "32768"};
constexpr const char* kEnergies[] = {"default", "dram-heavy", "lowpower-dram",
                                     "fast-spm", "cache-costly"};
constexpr const char* kAllEnergies =
    "default,dram-heavy,lowpower-dram,fast-spm,cache-costly";

const Axes& cold_axes() {
  static const Axes axes = {{"capacity", "1024,4096,16384"}};
  return axes;
}

const Axes& warm_axes() {
  static const Axes axes = {
      {"capacity", "256,512,1024,2048,4096,8192,16384,32768"},
      {"energy", kAllEnergies},
      {"cache", "off,32x2"},
      {"algorithm", "dp,greedy"}};
  return axes;
}

/// Parses axes this file wrote; a failure is a bug in the benchmark.
SweepSpec spec_of(const Axes& axes) {
  SweepSpec spec;
  for (const auto& [axis, values] : axes) {
    const util::Status st = spec.parse_axis(axis, values);
    if (!st.ok()) {
      std::fprintf(stderr, "foraybench: bad axis %s: %s\n", axis.c_str(),
                   st.message().c_str());
      std::exit(2);
    }
  }
  return spec;
}

/// cold_sweep and warm_dse feed the seed to the simulated rand(), which
/// every kernel uses for its input data: a new seed is new input data.
core::PipelineOptions pipeline_for(uint64_t seed) {
  core::PipelineOptions p;
  p.run.rng_seed = seed;
  return p;
}

std::string sweep_ndjson(const SweepOptions& opts,
                         const std::vector<SweepJob>& jobs, bool* ok) {
  SweepDriver sweep(opts);
  std::ostringstream out;
  *ok = sweep.run_ndjson(jobs, out).ok();
  return out.str();
}

OpResult timed_sweep(const SweepOptions& opts,
                     const std::vector<SweepJob>& jobs,
                     const std::string& reference) {
  OpResult r;
  bool ok = false;
  const double cpu0 = process_cpu_s();
  const double t0 = wall_s();
  const std::string out = sweep_ndjson(opts, jobs, &ok);
  r.wall_s = wall_s() - t0;
  r.cpu_s = process_cpu_s() - cpu0;
  r.ok = ok && out == reference;
  return r;
}

/// Runs `foraybench --reference` in a subprocess, so computing the
/// reference never raises the measured process's peak RSS.
std::string reference_from_child(const RunConfig& cfg, bool* ok) {
  *ok = false;
  std::string error;
  auto child = Child::spawn({cfg.self, "--reference", cfg.workload, "--seed",
                             std::to_string(cfg.seed)},
                            cfg.out_dir + "/reference.log", &error);
  if (child == nullptr) {
    std::fprintf(stderr, "foraybench: %s\n", error.c_str());
    return "";
  }
  std::string out;
  const bool read = child->read_all(&out, 120'000);
  *ok = read && child->finish(10.0).ok && !out.empty();
  if (!*ok) std::fprintf(stderr, "foraybench: reference subprocess failed\n");
  return out;
}

bool same_solve(const driver::SweepPoint& a, const driver::SweepPoint& b) {
  return a.key.capacity == b.key.capacity && a.key.energy == b.key.energy &&
         a.key.cache == b.key.cache && a.replay == b.replay;
}

/// Re-drives sweep jobs one layer call at a time, each call in a span,
/// in the order SweepDriver runs them per job (driver/sweep.cpp): model
/// cache lookup, Phase I on a miss, candidates once per job, then per
/// solve group the DP, greedy, energy evaluation, cache comparison and
/// replay. Rendering and scheduling are not re-driven; they are what
/// driver.self_ms measures.
class Redriver {
 public:
  explicit Redriver(core::PipelineOptions base) : base_(std::move(base)) {}

  const core::PipelineOptions& base() const { return base_; }

  void job(const SweepJob& job, const SweepGrid& grid, ModelCache* cache,
           Tracer& t, Counters& c) {
    Scope job_span(t, "driver.job");
    c["jobs"] += 1;
    core::ForayModel model;
    bool hit = false;
    std::string key;
    if (cache != nullptr) {
      key = ModelCache::key(job.source, base_);
      util::Status why;
      Scope s(t, "driver.cache_lookup");
      hit = cache->lookup(key, &model, &why);
    }
    if (hit) {
      c["cache_hits"] += 1;
    } else {
      if (!phase1(job, &model, t, c)) return;
      if (cache != nullptr) {
        Scope s(t, "driver.cache_store");
        cache->store(key, model);
      }
    }
    c["foray.model_refs"] += static_cast<double>(model.refs.size());
    std::vector<spm::BufferCandidate> candidates;
    {
      Scope s(t, "spm.candidates");
      candidates = spm::enumerate_candidates(model, base_.spm.reuse);
    }
    c["spm.candidates"] += static_cast<double>(candidates.size());
    const auto& points = grid.points;
    for (size_t begin = 0, end = 0; begin < points.size(); begin = end) {
      // A solve group: the algorithm axis only relabels the headline.
      end = begin + 1;
      while (end < points.size() && same_solve(points[begin], points[end])) {
        ++end;
      }
      solve_group(model, candidates, points, begin, end, t, c);
    }
  }

  /// `--static-admission` lints every program a request names.
  void lint(const SweepJob& job, Tracer& t, Counters& c) {
    foray::staticforay::CheckReport report;
    {
      Scope s(t, "staticforay.lint");
      foray::staticforay::lint_source(job.source, &report);
    }
    c["staticforay.programs"] += 1;
  }

  /// Phase I of every program the last job() calls profiled, split into
  /// the calls the fused online path hides.
  void probe(Tracer& t) {
    for (const auto& [source, records] : profiled_) {
      core::PipelineResult res;
      if (!core::frontend_phase(source, &res).ok()) continue;
      core::instrument_phase(&res);
      foray::sim::CompiledProgram code;
      {
        Scope s(t, "sim.compile");
        code = foray::sim::compile_program(*res.program);
      }
      foray::trace::VectorSink sink(records);
      {
        Scope s(t, "sim.run");
        foray::sim::run_compiled_with(code, &sink, base_.run);
      }
      core::Extractor extractor(base_.extractor);
      {
        Scope s(t, "foray.extract");
        extractor.on_chunk(sink.records().data(), sink.size());
      }
    }
    profiled_.clear();
  }

 private:
  bool phase1(const SweepJob& job, core::ForayModel* model, Tracer& t,
              Counters& c) {
    const int64_t start = Tracer::now_ns();
    core::PipelineResult res;
    {
      Scope s(t, "minic.frontend");
      core::frontend_phase(job.source, &res);
    }
    c["minic.source_bytes"] += static_cast<double>(job.source.size());
    if (!res.ok()) return false;
    {
      Scope s(t, "instrument.annotate");
      core::instrument_phase(&res);
    }
    c["instrument.loop_sites"] +=
        static_cast<double>(res.loop_sites.sites.size());
    {
      Scope s(t, "foray.profile");
      core::profile_phase(base_, &res);
    }
    c["sim.records"] += static_cast<double>(res.trace_records);
    c["sim.steps"] += static_cast<double>(res.run.steps);
    if (!res.ok()) return false;
    {
      Scope s(t, "foray.model");
      core::extract_phase(base_, &res);
    }
    const double ms = static_cast<double>(Tracer::now_ns() - start) / 1e6;
    c["driver.critical_path_ms"] = std::max(c["driver.critical_path_ms"], ms);
    profiled_.emplace_back(job.source, res.trace_records);
    *model = std::move(res.model);
    return true;
  }

  void solve_group(const core::ForayModel& model,
                   const std::vector<spm::BufferCandidate>& candidates,
                   const std::vector<driver::SweepPoint>& points,
                   size_t begin, size_t end, Tracer& t, Counters& c) {
    const driver::SweepPoint& head = points[begin];
    const core::SpmPhaseOptions popts = head.spm_options(base_.spm);
    spm::Selection exact;
    spm::Selection greedy;
    {
      Scope s(t, "spm.dp");
      exact = spm::select_buffers(candidates, popts.dse);
    }
    c["spm.dp_calls"] += 1;
    {
      Scope s(t, "spm.greedy");
      greedy = spm::select_buffers_greedy(candidates, popts.dse);
    }
    {
      Scope s(t, "spm.energy");
      spm::evaluate_baseline(model, popts.dse.energy);
      spm::evaluate_selection(model, exact, popts.dse);
    }
    if (popts.compare_cache) {
      Scope s(t, "spm.cache_sim");
      for (int assoc : popts.cache_assocs) {
        spm::CacheSim cache(spm::CacheConfig{popts.dse.spm_capacity,
                                             popts.cache_line_bytes, assoc});
        spm::for_each_address(model,
                              [&cache](uint32_t addr) { cache.access(addr); });
        c["spm.cache_accesses"] += static_cast<double>(cache.accesses());
      }
    }
    for (size_t i = begin; i < end; ++i) {
      // Greedy headline points re-evaluate their own selection.
      if (points[i].algorithm != driver::Algorithm::kGreedy) continue;
      Scope s(t, "spm.energy");
      spm::evaluate_selection(model, greedy,
                              points[i].spm_options(base_.spm).dse);
    }
    if (head.replay) {
      spm::ReplayOptions ropts;
      ropts.run = base_.run;
      ropts.dse = popts.dse;
      spm::ReplayReport report;
      {
        Scope s(t, "spm.replay");
        report = spm::replay_selection(model, exact, ropts);
      }
      c["spm.replay_runs"] += 1;
      if (!report.matches()) {
        c["spm.replay_mismatches"] +=
            static_cast<double>(std::max<size_t>(1, report.mismatches.size()));
      }
    }
  }

  core::PipelineOptions base_;
  /// (source, trace records) of each program Phase I ran on since the
  /// last probe().
  std::vector<std::pair<std::string, uint64_t>> profiled_;
};

// -- cold_sweep and warm_dse --------------------------------------------------

/// A fixed benchsuite sweep through SweepDriver::run_ndjson in this
/// process, checked against reference NDJSON from a subprocess: for
/// cold_sweep the AST engine (the independent oracle) at one thread, for
/// warm_dse the same grid swept without the model cache.
class SweepWorkload final : public Workload {
 public:
  SweepWorkload(const RunConfig& cfg, const Axes& axes, bool warm)
      : cfg_(cfg), warm_(warm), redriver_(pipeline_for(cfg.seed)) {
    opts_.threads = kThreads;
    opts_.pipeline = pipeline_for(cfg.seed);
    opts_.spec = spec_of(axes);
  }

  bool setup() override {
    jobs_ = SweepDriver::benchsuite_jobs();
    grid_ = SweepGrid::expand(opts_.spec, opts_.pipeline);
    if (warm_) {
      cache_ = std::make_unique<ModelCache>();
      SweepOptions fill;
      fill.threads = kThreads;
      fill.pipeline = opts_.pipeline;
      fill.model_cache = cache_.get();
      bool ok = false;
      sweep_ndjson(fill, jobs_, &ok);
      if (!ok || cache_->stats().stores != jobs_.size()) return false;
      opts_.model_cache = cache_.get();
    }
    bool ok = false;
    reference_ = reference_from_child(cfg_, &ok);
    return ok;
  }

  OpResult run_op(uint64_t) override {
    return timed_sweep(opts_, jobs_, reference_);
  }
  double peak_rss_mb() override { return perfbench::peak_rss_mb(); }

  OpResult run_op_single(uint64_t) override {
    SweepOptions one = opts_;
    one.threads = 1;
    return timed_sweep(one, jobs_, reference_);
  }
  void trace_op(uint64_t, Tracer& t, Counters& c) override {
    for (const SweepJob& job : jobs_) {
      redriver_.job(job, grid_, opts_.model_cache, t, c);
    }
  }
  void probe_op(Tracer& t) override { redriver_.probe(t); }

 private:
  RunConfig cfg_;
  bool warm_;
  SweepOptions opts_;
  std::vector<SweepJob> jobs_;
  SweepGrid grid_;
  std::unique_ptr<ModelCache> cache_;
  std::string reference_;
  Redriver redriver_;
};

// -- serve_mix ------------------------------------------------------------------

enum class Kind {
  kBench,       ///< benchsuite program, small random axes: a cache hit
  kInline,      ///< generated source with a fresh seed: a cache miss
  kReplay,      ///< benchsuite program with replay on
  kMalformed,   ///< not JSON
  kUnknown,     ///< names no benchsuite program
  kOverGrid,    ///< grid over the server's --max-points
  kOverBudget,  ///< static record bound over the request's budget
};

/// 820 capacities x 5 energy presets = 4100 points, over the default
/// --max-points of 4096.
constexpr int kOverGridCapacities = 820;
constexpr int kOverBudgetRecords = 10;
constexpr int kResponseTimeoutMs = 60'000;

struct Request {
  Kind kind = Kind::kBench;
  SweepJob job;  ///< the program the request names or carries
  Axes axes;
  std::string line;  ///< the request as sent
};

/// The error class a request must be refused with; null when it must
/// succeed.
const char* expected_refusal(Kind kind) {
  switch (kind) {
    case Kind::kMalformed:
    case Kind::kUnknown:
      return "invalid_input";
    case Kind::kOverGrid:
    case Kind::kOverBudget:
      return "resource_exhausted";
    default:
      return nullptr;
  }
}

std::string request_line(const Request& r, uint64_t id) {
  if (r.kind == Kind::kMalformed) {
    return "{\"id\":" + std::to_string(id) + ",\"program\":\"adpcm\"";
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("id").value(id);
  if (r.kind == Kind::kInline) {
    w.key("name").value(r.job.name);
    w.key("source").value(r.job.source);
  } else {
    w.key("program").value(r.kind == Kind::kUnknown ? "mpeg" : r.job.name);
  }
  if (r.kind == Kind::kOverBudget) {
    w.key("budget").begin_object();
    w.key("max_records").value(kOverBudgetRecords);
    w.end_object();
  }
  if (!r.axes.empty()) {
    w.key("axes").begin_object();
    for (const auto& [axis, values] : r.axes) w.key(axis).value(values);
    w.end_object();
  }
  w.end_object();
  return w.take();
}

/// The mix, per block of 20 consecutive requests: 60% benchsuite hits,
/// 25% fresh generated sources, 10% replay, 5% requests that must be
/// refused. Each block is shuffled by the seed; fixing the shares per
/// block keeps the seed from moving the mix, and with it the metrics.
constexpr Kind kBlock[] = {
    Kind::kBench,  Kind::kBench,  Kind::kBench,  Kind::kBench,
    Kind::kBench,  Kind::kBench,  Kind::kBench,  Kind::kBench,
    Kind::kBench,  Kind::kBench,  Kind::kBench,  Kind::kBench,
    Kind::kInline, Kind::kInline, Kind::kInline, Kind::kInline,
    Kind::kInline, Kind::kReplay, Kind::kReplay, Kind::kMalformed};
constexpr uint64_t kBenchPerBlock = 12;
constexpr uint64_t kReplaysPerBlock = 2;
static_assert(static_cast<uint64_t>(std::count(
                  std::begin(kBlock), std::end(kBlock), Kind::kBench)) ==
              kBenchPerBlock);
static_assert(static_cast<uint64_t>(std::count(
                  std::begin(kBlock), std::end(kBlock), Kind::kReplay)) ==
              kReplaysPerBlock);

// What a request costs is set mostly by its kernel and largest capacity,
// which spread it from 1 ms to 250 ms. Drawn at random per request, the
// share of costly requests, and with it the median, the mean and the
// tail, moved with the seed. So kernels and capacities rotate through
// the stream, and the seed only picks where the rotation starts, the
// order within a block and the cheap axes.

/// Benchsuite requests rotate through the kernels (each twice a block)
/// and through the pairs of these capacities. Capacities up to 32768
/// made an fft request up to 250 ms, the knapsack DP growing with them;
/// these keep every benchsuite request cheaper than an fft replay.
constexpr const char* kBenchCapacities[] = {"512", "1024", "2048", "4096",
                                            "8192"};
/// Every other replay request replays this kernel at this capacity. It
/// is the costliest request of the mix, one in twenty, so in any run of
/// more than ~220 requests the 11th-costliest op, op_cpu_ms_tail, is one
/// of them, and the tail does not step with the number of ops.
constexpr const char* kTailKernel = "fft";
constexpr const char* kTailCapacity = "4096";
/// The other replay requests rotate through the other kernels x these
/// capacities.
constexpr const char* kReplayCapacities[] = {"1024", "4096", "16384"};

struct Slot {
  Kind kind = Kind::kBench;
  uint64_t bench = 0;   ///< index of this benchsuite request in the stream
  uint64_t replay = 0;  ///< index of this replay request in the stream
};

Slot slot_of(uint64_t seed, uint64_t i) {
  constexpr uint64_t n = std::size(kBlock);
  util::Rng rng(seed * 0xbf58476d1ce4e5b9ull + i / n);
  Kind block[n];
  std::copy(std::begin(kBlock), std::end(kBlock), block);
  for (uint64_t k = n - 1; k > 0; --k) {
    std::swap(block[k], block[rng.next_below(k + 1)]);
  }
  Slot s;
  s.kind = block[i % n];
  s.bench = seed + (i / n) * kBenchPerBlock +
            static_cast<uint64_t>(std::count(block, block + i % n, Kind::kBench));
  s.replay = seed + (i / n) * kReplaysPerBlock +
             static_cast<uint64_t>(
                 std::count(block, block + i % n, Kind::kReplay));
  return s;
}

/// Request `i` of the stream for `seed`; it depends on nothing else.
Request make_request(uint64_t seed, uint64_t i) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull + i);
  const auto& suite = foray::benchsuite::all_benchmarks();
  const Slot slot = slot_of(seed, i);
  auto capacity = [&] {
    return std::string(kCapacities[rng.next_below(std::size(kCapacities))]);
  };
  Request r;
  r.kind = slot.kind;
  if (r.kind == Kind::kBench) {
    static constexpr const char* kAlgorithms[] = {"dp", "greedy",
                                                  "dp,greedy"};
    const auto& kernel = suite[slot.bench % suite.size()];
    r.job = SweepJob{kernel.name, kernel.source};
    // Two values on each of three axes: 8 solve groups, enough work that
    // the few wake-ups a request costs do not dominate its latency.
    auto two = [&rng](const auto& values) {
      const size_t n = std::size(values);
      const size_t a = rng.next_below(n);
      const size_t b = (a + 1 + rng.next_below(n - 1)) % n;
      return std::string(values[std::min(a, b)]) + "," + values[std::max(a, b)];
    };
    // The (slot.bench / kernels)-th pair (lo, hi) of kBenchCapacities.
    constexpr size_t kCaps = std::size(kBenchCapacities);
    size_t pair = slot.bench / suite.size() % (kCaps * (kCaps - 1) / 2);
    size_t lo = 0;
    while (pair >= kCaps - 1 - lo) pair -= kCaps - 1 - lo++;
    r.axes = {{"capacity", std::string(kBenchCapacities[lo]) + "," +
                               kBenchCapacities[lo + 1 + pair]},
              {"energy", two(kEnergies)},
              {"cache", "off,32x2"},
              {"algorithm", kAlgorithms[rng.next_below(3)]}};
  } else if (r.kind == Kind::kInline) {
    foray::benchsuite::GeneratorOptions gen;
    gen.seed = rng.next();
    r.job = SweepJob{"generated",
                     foray::benchsuite::generate_affine_program(gen).source};
    r.axes = {{"capacity", capacity()}};
  } else if (r.kind == Kind::kReplay) {
    if (slot.replay % 2 == 0) {
      const auto& b = foray::benchsuite::get_benchmark(kTailKernel);
      r.job = SweepJob{b.name, b.source};
      r.axes = {{"capacity", kTailCapacity}, {"replay", "on"}};
    } else {
      std::vector<const foray::benchsuite::Benchmark*> others;
      for (const auto& b : suite) {
        if (b.name != kTailKernel) others.push_back(&b);
      }
      const uint64_t k = slot.replay / 2;
      const auto& b = *others[k % others.size()];
      r.job = SweepJob{b.name, b.source};
      r.axes = {{"capacity", kReplayCapacities[k / others.size() %
                                               std::size(kReplayCapacities)]},
                {"replay", "on"}};
    }
  } else {
    // The block's refusal slot: one of the four refusal kinds.
    static constexpr Kind kRefusals[] = {Kind::kMalformed, Kind::kUnknown,
                                         Kind::kOverGrid, Kind::kOverBudget};
    r.kind = kRefusals[rng.next_below(std::size(kRefusals))];
    const auto& adpcm = foray::benchsuite::get_benchmark("adpcm");
    r.job = SweepJob{adpcm.name, adpcm.source};
    if (r.kind == Kind::kOverGrid) {
      std::string caps;
      for (int cap = 1; cap <= kOverGridCapacities; ++cap) {
        if (cap > 1) caps += ',';
        caps += std::to_string(cap);
      }
      r.axes = {{"capacity", caps}, {"energy", kAllEnergies}};
    }
  }
  r.line = request_line(r, i);
  return r;
}

struct Response {
  bool done = false;
  bool ok = false;
  std::string error_class;
  std::string body;  ///< the sweep NDJSON between the ack and done rows
};

/// Feeds one response row; true when it was the done row.
bool absorb(const std::string& row, Response* r) {
  if (row.rfind("{\"kind\":\"done\"", 0) == 0) {
    util::JsonValue v;
    if (util::parse_json(row, &v)) {
      const util::JsonValue* ok = v.find("ok");
      r->ok = ok != nullptr && ok->is_bool() && ok->b;
      const util::JsonValue* cls = v.find("error_class");
      if (cls != nullptr && cls->is_string()) r->error_class = cls->str;
    }
    r->done = true;
    return true;
  }
  if (row.rfind("{\"kind\":\"request\"", 0) != 0) {
    r->body += row;
    r->body += '\n';
  }
  return false;
}

/// Every point row of a replay request carries a matching replay check.
bool replay_rows_match(const std::string& body) {
  std::istringstream rows(body);
  std::string row;
  size_t points = 0;
  while (std::getline(rows, row)) {
    if (row.rfind("{\"kind\":\"point\"", 0) != 0) continue;
    util::JsonValue v;
    if (!util::parse_json(row, &v)) return false;
    const util::JsonValue* check = v.find("replay_check");
    const util::JsonValue* ok =
        check != nullptr ? check->find("ok") : nullptr;
    if (ok == nullptr || !ok->is_bool() || !ok->b) return false;
    ++points;
  }
  return points > 0;
}

bool check_response(const Request& q, const Response& r) {
  if (!r.done) return false;
  if (const char* refusal = expected_refusal(q.kind)) {
    return !r.ok && r.error_class == refusal;
  }
  return r.ok && (q.kind != Kind::kReplay || replay_rows_match(r.body));
}

/// Requests to `foraygen serve --threads 2 --static-admission` over
/// pipes. The traced run re-drives the same request stream in process
/// through driver::serve_loop, which is the server's own request path.
class ServeMix final : public Workload {
 public:
  explicit ServeMix(const RunConfig& cfg)
      : cfg_(cfg), redriver_(core::PipelineOptions{}) {}

  bool setup() override {
    if (cfg_.trace) {
      // Both caches start primed like the server: one sweep per kernel.
      for (ModelCache* cache : {&untraced_cache_, &traced_cache_}) {
        SweepOptions prime;
        prime.threads = kThreads;
        prime.model_cache = cache;
        bool ok = false;
        sweep_ndjson(prime, SweepDriver::benchsuite_jobs(), &ok);
        if (!ok) return false;
      }
      return true;
    }
    std::string error;
    server_ = Child::spawn({cfg_.foraygen, "serve", "--threads",
                            std::to_string(kThreads), "--static-admission"},
                           cfg_.out_dir + "/serve.log", &error);
    if (server_ == nullptr) {
      std::fprintf(stderr, "foraybench: %s\n", error.c_str());
      return false;
    }
    requests_.open(cfg_.out_dir + "/requests-seed" + std::to_string(cfg_.seed) +
                   ".ndjson");
    for (const auto& b : foray::benchsuite::all_benchmarks()) {
      Request prime;
      prime.job = SweepJob{b.name, b.source};
      prime.axes = {{"capacity", "4096"}};
      prime.line = request_line(prime, 0);
      Response r;
      if (!exchange(prime.line, &r) || !check_response(prime, r)) {
        std::fprintf(stderr, "foraybench: priming request for %s failed\n",
                     b.name.c_str());
        return false;
      }
    }
    return true;
  }

  OpResult run_op(uint64_t i) override {
    const Request q = make_request(cfg_.seed, i);
    Response r;
    OpResult res;
    const double cpu0 = server_->cpu_s();
    const double t0 = wall_s();
    const bool io = exchange(q.line, &r);
    res.wall_s = wall_s() - t0;
    const double cpu1 = server_->cpu_s();
    res.cpu_s = cpu1 - cpu0;
    requests_ << q.line << '\n';
    res.ok = io && cpu0 >= 0 && cpu1 >= 0 && check_response(q, r);
    if (res.ok) defer(q, std::move(r.body));
    return res;
  }

  uint64_t finish() override {
    uint64_t failed = verify_deferred();
    if (server_ != nullptr) {
      const Child::Exit e = server_->finish(30.0);
      server_rss_mb_ = e.peak_rss_mb;
      if (!e.ok) ++failed;
    }
    return failed;
  }

  double peak_rss_mb() override { return server_rss_mb_; }
  double server_cpu_s() override {
    return server_ != nullptr ? std::max(server_->cpu_s(), 0.0) : 0.0;
  }

  OpResult run_op_single(uint64_t i) override {
    const Request q = make_request(cfg_.seed, i);
    driver::ServeOptions so;
    so.threads = 1;
    so.model_cache = &untraced_cache_;
    so.static_admission = true;
    std::istringstream in(q.line + "\n");
    std::ostringstream out;
    OpResult res;
    const double t0 = wall_s();
    const util::Status st = driver::serve_loop(in, out, so);
    res.wall_s = wall_s() - t0;
    Response r;
    std::istringstream rows(out.str());
    std::string row;
    while (std::getline(rows, row)) absorb(row, &r);
    res.ok = st.ok() && check_response(q, r);
    if (res.ok) defer(q, std::move(r.body));
    return res;
  }

  void trace_op(uint64_t i, Tracer& t, Counters& c) override {
    const Request q = make_request(cfg_.seed, i);
    util::JsonValue parsed;
    // serve_loop refuses these before any layer runs.
    if (!util::parse_json(q.line, &parsed) || q.kind == Kind::kUnknown) {
      return;
    }
    redriver_.lint(q.job, t, c);  // static admission
    if (q.kind == Kind::kOverBudget) return;
    const SweepGrid grid = SweepGrid::expand(spec_of(q.axes), redriver_.base());
    if (grid.points.size() > driver::ServeOptions{}.max_points) return;
    redriver_.job(q.job, grid, &traced_cache_, t, c);
  }
  void probe_op(Tracer& t) override { redriver_.probe(t); }

 private:
  /// One closed-loop round trip. After an I/O failure or timeout the
  /// server is treated as gone: later requests fail without waiting.
  bool exchange(const std::string& line, Response* r) {
    if (broken_ || !server_->send(line)) {
      broken_ = true;
      return false;
    }
    std::string row;
    while (!r->done) {
      if (!server_->read_line(&row, kResponseTimeoutMs)) {
        broken_ = true;
        return false;
      }
      absorb(row, r);
    }
    return true;
  }

  struct Deferred {
    SweepJob job;
    Axes axes;
    std::string body;
  };

  void defer(const Request& q, std::string body) {
    if (q.kind == Kind::kBench || q.kind == Kind::kReplay) {
      deferred_.push_back(Deferred{q.job, q.axes, std::move(body)});
    }
  }

  /// Benchsuite response bodies must equal run_ndjson over the same
  /// axes. Checked after the measured window; each distinct request is
  /// computed once.
  uint64_t verify_deferred() {
    ModelCache cache;
    std::map<std::string, std::string> references;
    uint64_t failed = 0;
    for (const Deferred& d : deferred_) {
      std::string key = d.job.name;
      for (const auto& [axis, values] : d.axes) key += "|" + axis + "=" + values;
      auto it = references.find(key);
      if (it == references.end()) {
        SweepOptions o;
        o.threads = kThreads;
        o.model_cache = &cache;
        o.spec = spec_of(d.axes);
        bool ok = false;
        std::string ndjson = sweep_ndjson(o, {d.job}, &ok);
        it = references.emplace(key, ok ? std::move(ndjson) : "").first;
      }
      if (it->second.empty() || it->second != d.body) ++failed;
    }
    deferred_.clear();
    return failed;
  }

  RunConfig cfg_;
  std::unique_ptr<Child> server_;
  std::ofstream requests_;  ///< every measured request line, as sent
  bool broken_ = false;
  double server_rss_mb_ = 0.0;
  std::vector<Deferred> deferred_;
  ModelCache untraced_cache_;
  ModelCache traced_cache_;
  Redriver redriver_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const RunConfig& cfg) {
  if (cfg.workload == "cold_sweep") {
    return std::make_unique<SweepWorkload>(cfg, cold_axes(), false);
  }
  if (cfg.workload == "warm_dse") {
    return std::make_unique<SweepWorkload>(cfg, warm_axes(), true);
  }
  if (cfg.workload == "serve_mix") return std::make_unique<ServeMix>(cfg);
  return nullptr;
}

int emit_reference(const std::string& workload, uint64_t seed) {
  SweepOptions opts;
  opts.pipeline = pipeline_for(seed);
  if (workload == "cold_sweep") {
    opts.threads = 1;
    opts.pipeline.run.engine = foray::sim::Engine::Ast;
    opts.spec = spec_of(cold_axes());
  } else if (workload == "warm_dse") {
    opts.threads = kThreads;
    opts.spec = spec_of(warm_axes());
  } else {
    return 2;
  }
  bool ok = false;
  const std::string ndjson =
      sweep_ndjson(opts, SweepDriver::benchsuite_jobs(), &ok);
  std::fwrite(ndjson.data(), 1, ndjson.size(), stdout);
  return ok && std::fflush(stdout) == 0 ? 0 : 1;
}

}  // namespace perfbench
