// The `foraygen serve` loop (driver/serve.h): per-request sweep
// streaming, structured error rows for malformed requests (the loop
// never dies on bad input), admission control, per-request budgets,
// static admission and its per-source verdict memo, model-cache reuse
// across requests, and the kIoError exit when the response stream fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "driver/model_cache.h"
#include "driver/serve.h"
#include "serve_requests.h"
#include "util/json.h"
#include "util/status.h"

namespace foray::driver {
namespace {

using requests::deep_request;
using requests::good_request;

ServeOptions serve_opts(ModelCache* cache = nullptr) {
  ServeOptions o;
  o.threads = 2;
  o.pipeline.filter.min_exec = 1;
  o.pipeline.filter.min_locations = 1;
  o.model_cache = cache;
  return o;
}

struct ServeRun {
  util::Status status;
  std::vector<std::string> lines;
  std::vector<util::JsonValue> rows;
};

ServeRun run_serve(const std::string& requests, const ServeOptions& opts) {
  ServeRun r;
  std::istringstream in(requests);
  std::ostringstream out;
  r.status = serve_loop(in, out, opts);
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) {
    r.lines.push_back(line);
    util::JsonValue v;
    std::string err;
    EXPECT_TRUE(util::parse_json(line, &v, &err)) << line << ": " << err;
    r.rows.push_back(std::move(v));
  }
  return r;
}

std::string kind(const util::JsonValue& v) {
  const util::JsonValue* k = v.find("kind");
  return k != nullptr && k->is_string() ? k->str : "";
}

TEST(Serve, StreamsSweepBetweenAckAndDoneRows) {
  const ServeRun r = run_serve(good_request(7) + "\n", serve_opts());
  EXPECT_TRUE(r.status.ok()) << r.status.message();
  // ack, sweep header, 2 points, program pareto, aggregate pareto, done.
  ASSERT_EQ(r.rows.size(), 7u);
  EXPECT_EQ(kind(r.rows[0]), "request");
  EXPECT_EQ(kind(r.rows[1]), "sweep");
  EXPECT_EQ(kind(r.rows[2]), "point");
  EXPECT_EQ(kind(r.rows[3]), "point");
  EXPECT_EQ(kind(r.rows[4]), "pareto");
  EXPECT_EQ(kind(r.rows[5]), "pareto");
  EXPECT_EQ(kind(r.rows[6]), "done");

  // The ack names the job and grid size; the done row carries ok:true.
  const util::JsonValue* programs = r.rows[0].find("programs");
  ASSERT_NE(programs, nullptr);
  ASSERT_EQ(programs->items.size(), 1u);
  EXPECT_EQ(programs->items[0].str, "alpha");
  EXPECT_EQ(r.rows[0].find("points")->num, 2.0);
  EXPECT_EQ(r.rows[0].find("id")->num, 7.0);
  EXPECT_TRUE(r.rows[6].find("ok")->b);
  for (size_t i = 2; i <= 3; ++i) {
    EXPECT_TRUE(r.rows[i].find("ok")->b) << i;
    EXPECT_EQ(r.rows[i].find("program")->str, "alpha") << i;
  }
}

/// A request for an unknown program, padded with JSON whitespace to
/// `bytes` bytes.
std::string padded_request(int id, size_t bytes) {
  const std::string head = "{\"id\":" + std::to_string(id) +
                           ",\"program\":\"no-such-kernel\"";
  return head + std::string(bytes - head.size() - 1, ' ') + "}";
}

TEST(Serve, BadRequestsGetErrorRowsAndTheLoopSurvives) {
  // Seven broken requests then one good one: the loop must answer all
  // eight and exit ok at EOF. Line 6 is one byte over the request-line
  // cap, line 7 exactly at it.
  const std::string requests =
      "this is not json\n"
      "[1,2,3]\n"
      "{\"id\":2,\"axes\":{\"capacity\":\"bogus\"}}\n"
      "{\"id\":3,\"program\":\"no-such-kernel\"}\n" +
      deep_request(5) + "\n" + padded_request(6, kMaxRequestBytes + 1) +
      "\n" + padded_request(7, kMaxRequestBytes) + "\n" + good_request(4) +
      "\n";
  std::istringstream in(requests);
  std::ostringstream out;
  const util::Status st = serve_loop(in, out, serve_opts());
  EXPECT_TRUE(st.ok()) << st.message();

  std::vector<util::JsonValue> rows;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) {
    util::JsonValue v;
    std::string err;
    ASSERT_TRUE(util::parse_json(line, &v, &err)) << line << ": " << err;
    rows.push_back(std::move(v));
  }

  // Row 0: bad JSON — a done row keyed by input line, not id.
  ASSERT_GE(rows.size(), 2u);
  EXPECT_EQ(kind(rows[0]), "done");
  EXPECT_FALSE(rows[0].find("ok")->b);
  EXPECT_EQ(rows[0].find("error_class")->str, "invalid_input");
  ASSERT_NE(rows[0].find("line"), nullptr);
  EXPECT_EQ(rows[0].find("line")->num, 1.0);
  EXPECT_EQ(rows[0].find("id"), nullptr);

  // Row 1: a JSON array is not a request object.
  EXPECT_EQ(kind(rows[1]), "done");
  EXPECT_FALSE(rows[1].find("ok")->b);
  EXPECT_EQ(rows[1].find("line")->num, 2.0);

  // id 2: bad axis value, classified invalid_input, echoing the id.
  int done_rows = 0;
  const util::JsonValue* oversized = nullptr;
  for (const auto& row : rows) {
    if (kind(row) != "done") continue;
    ++done_rows;
    const util::JsonValue* line_no = row.find("line");
    if (line_no != nullptr && line_no->num == 6.0) oversized = &row;
  }
  EXPECT_EQ(done_rows, 8);
  // The oversized line is refused unread: keyed by its line, not its id.
  ASSERT_NE(oversized, nullptr);
  EXPECT_FALSE(oversized->find("ok")->b);
  EXPECT_EQ(oversized->find("error_class")->str, "invalid_input");
  EXPECT_EQ(oversized->find("phase")->str, "serve");
  EXPECT_EQ(oversized->find("id"), nullptr);
  const util::JsonValue* bad_axis = nullptr;
  const util::JsonValue* bad_prog = nullptr;
  const util::JsonValue* deep = nullptr;
  const util::JsonValue* at_cap = nullptr;
  const util::JsonValue* good = nullptr;
  for (const auto& row : rows) {
    if (kind(row) != "done") continue;
    const util::JsonValue* id = row.find("id");
    if (id == nullptr || !id->is_number()) continue;
    if (id->num == 2.0) bad_axis = &row;
    if (id->num == 3.0) bad_prog = &row;
    if (id->num == 4.0) good = &row;
    if (id->num == 5.0) deep = &row;
    if (id->num == 7.0) at_cap = &row;
  }
  ASSERT_NE(bad_axis, nullptr);
  EXPECT_FALSE(bad_axis->find("ok")->b);
  EXPECT_EQ(bad_axis->find("error_class")->str, "invalid_input");
  EXPECT_NE(bad_axis->find("error")->str.find("bogus"), std::string::npos);
  ASSERT_NE(bad_prog, nullptr);
  EXPECT_EQ(bad_prog->find("error_class")->str, "invalid_input");
  EXPECT_NE(bad_prog->find("error")->str.find("no-such-kernel"),
            std::string::npos);
  ASSERT_NE(deep, nullptr);
  EXPECT_EQ(deep->find("error_class")->str, "invalid_input");
  EXPECT_NE(deep->find("error")->str.find("nesting deeper than"),
            std::string::npos);
  // A line exactly at the cap is read and parsed as usual.
  ASSERT_NE(at_cap, nullptr);
  EXPECT_NE(at_cap->find("error")->str.find("no-such-kernel"),
            std::string::npos);
  // ...and the good request after them still ran to completion.
  ASSERT_NE(good, nullptr);
  EXPECT_TRUE(good->find("ok")->b);
}

TEST(Serve, CacheGeometriesOverTheSimulatorBoundGetErrorRows) {
  // 1 GiB of 32 B lines and 2 GiB of 1 B lines are 2^25 and 2^31 lines:
  // each point is refused as invalid_input instead of allocating the
  // table, the 4096 B point still solves, and the next request is served.
  const ServeRun r = run_serve(
      requests::huge_cache_request(1) + "\n" + good_request(2) + "\n",
      serve_opts());
  EXPECT_TRUE(r.status.ok()) << r.status.message();
  std::vector<const util::JsonValue*> points;
  std::vector<const util::JsonValue*> done;
  for (const util::JsonValue& row : r.rows) {
    if (kind(row) == "point") points.push_back(&row);
    if (kind(row) == "done") done.push_back(&row);
  }
  ASSERT_EQ(points.size(), 8u);  // 6 for request 1, 2 for request 2
  ASSERT_EQ(done.size(), 2u);
  for (size_t i = 0; i < 6; ++i) {
    const util::JsonValue& p = *points[i];
    const bool small = p.find("capacity_bytes")->num == 4096.0;
    EXPECT_EQ(p.find("ok")->b, small) << i;
    if (small) continue;
    EXPECT_EQ(p.find("error_class")->str, "invalid_input") << i;
    EXPECT_EQ(p.find("phase")->str, "spm-solve") << i;
    EXPECT_NE(p.find("error")->str.find("over the simulator's 1048576-line "
                                        "limit"),
              std::string::npos)
        << p.find("error")->str;
  }
  EXPECT_FALSE(done[0]->find("ok")->b);
  EXPECT_EQ(done[0]->find("error_class")->str, "invalid_input");
  EXPECT_EQ(done[1]->find("id")->num, 2.0);
  EXPECT_TRUE(done[1]->find("ok")->b);
  EXPECT_TRUE(points[6]->find("ok")->b);
  EXPECT_TRUE(points[7]->find("ok")->b);
}

TEST(Serve, AdmissionControlRefusesOversizedGrids) {
  ServeOptions opts = serve_opts();
  opts.max_points = 1;  // the good request expands to 2 points
  std::istringstream in(good_request(9) + "\n");
  std::ostringstream out;
  ASSERT_TRUE(serve_loop(in, out, opts).ok());

  // Refused before any work: exactly one response row, the done row.
  std::vector<std::string> lines;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 1u);
  util::JsonValue row;
  std::string err;
  ASSERT_TRUE(util::parse_json(lines[0], &row, &err)) << err;
  EXPECT_EQ(kind(row), "done");
  EXPECT_FALSE(row.find("ok")->b);
  EXPECT_EQ(row.find("error_class")->str, "resource_exhausted");
  EXPECT_EQ(row.find("phase")->str, "serve-admission");
}

TEST(Serve, PerRequestBudgetTripsAsResourceExhausted) {
  std::istringstream in(
      requests::budget_request(1, nullptr, "max_steps", 50) + "\n");
  std::ostringstream out;
  ASSERT_TRUE(serve_loop(in, out, serve_opts()).ok());

  // Phase I trips the 50-step budget; the point rows and the done row
  // all report resource_exhausted, and the loop is ready for the next
  // request.
  bool saw_failed_point = false;
  bool saw_done = false;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) {
    util::JsonValue row;
    std::string err;
    ASSERT_TRUE(util::parse_json(line, &row, &err)) << line << ": " << err;
    if (kind(row) == "point" && !row.find("ok")->b) {
      saw_failed_point = true;
      EXPECT_EQ(row.find("error_class")->str, "resource_exhausted");
    }
    if (kind(row) == "done") {
      saw_done = true;
      EXPECT_FALSE(row.find("ok")->b);
      EXPECT_EQ(row.find("error_class")->str, "resource_exhausted");
    }
  }
  EXPECT_TRUE(saw_failed_point);
  EXPECT_TRUE(saw_done);
}

TEST(Serve, StaticAdmissionRefusesProvablyOverBudgetRequests) {
  ServeOptions opts = serve_opts();
  opts.static_admission = true;
  const ServeRun r = run_serve(
      requests::budget_request(1, "big", "max_records", 10) + "\n", opts);
  EXPECT_TRUE(r.status.ok()) << r.status.message();

  // The static record floor of kGood is far above 10, so the refusal is
  // the ONLY output: no ack, no sweep rows — nothing ran.
  ASSERT_EQ(r.rows.size(), 1u) << r.lines[0];
  EXPECT_EQ(kind(r.rows[0]), "done");
  EXPECT_FALSE(r.rows[0].find("ok")->b);
  EXPECT_EQ(r.rows[0].find("error_class")->str, "resource_exhausted");
  EXPECT_EQ(r.rows[0].find("phase")->str, "lint-admission");
  EXPECT_NE(r.rows[0].find("error")->str.find("static bound"),
            std::string::npos);
}

TEST(Serve, StaticAdmissionKeepsAdmittedResponsesByteIdentical) {
  // A request the checker admits must produce the exact same byte stream
  // whether the gate is on or off — admission is a pure filter.
  const std::string requests = good_request(3) + "\n";
  std::istringstream in_off(requests);
  std::istringstream in_on(requests);
  std::ostringstream out_off;
  std::ostringstream out_on;
  ServeOptions gated = serve_opts();
  gated.static_admission = true;
  ASSERT_TRUE(serve_loop(in_off, out_off, serve_opts()).ok());
  ASSERT_TRUE(serve_loop(in_on, out_on, gated).ok());
  EXPECT_EQ(out_on.str(), out_off.str());
}

TEST(Serve, StaticAdmissionChecksEachRequestsBudgetAgainstTheKeptBound) {
  // The over-budget source twice: the second verdict comes from the
  // memo, and the refusal is the same row. The same source under a
  // budget its bound fits is admitted: the budget is the request's own.
  ServeOptions opts = serve_opts();
  opts.static_admission = true;
  const std::string refused =
      requests::budget_request(1, "big", "max_records", 10);
  const ServeRun r = run_serve(
      refused + "\n" + refused + "\n" +
          requests::budget_request(2, "big", "max_records", 1000000000) +
          "\n",
      opts);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  ASSERT_GE(r.rows.size(), 4u);
  EXPECT_EQ(r.rows[0].find("phase")->str, "lint-admission");
  EXPECT_EQ(r.lines[1], r.lines[0]);
  EXPECT_EQ(kind(r.rows[2]), "request");
  EXPECT_EQ(kind(r.rows.back()), "done");
  EXPECT_TRUE(r.rows.back().find("ok")->b) << r.lines.back();
}

TEST(Serve, StaticAdmissionPassesFrontendFailuresToTheSweep) {
  // A source the frontend rejects is not admission's to refuse, memo or
  // not: both requests stream the sweep's own frontend error, byte for
  // byte what the server without admission sends.
  const std::string broken =
      "{\"id\":7,\"source\":\"int main(void) { return x; }\"}\n";
  const std::string requests = broken + broken;
  ServeOptions gated = serve_opts();
  gated.static_admission = true;
  const ServeRun on = run_serve(requests, gated);
  const ServeRun off = run_serve(requests, serve_opts());
  ASSERT_TRUE(on.status.ok()) << on.status.message();
  EXPECT_EQ(on.lines, off.lines);
  int done_rows = 0;
  for (const util::JsonValue& row : on.rows) {
    if (kind(row) != "done") continue;
    ++done_rows;
    EXPECT_FALSE(row.find("ok")->b);
    EXPECT_EQ(row.find("error_class")->str, "invalid_input");
    EXPECT_NE(row.find("phase")->str, "lint-admission");
  }
  EXPECT_EQ(done_rows, 2);
}

TEST(Serve, InvalidBudgetAndUnknownFieldsAreRejected) {
  const std::string requests =
      "{\"id\":1,\"source\":\"int main(void){return 0;}\","
      "\"budget\":{\"max_steps\":-5}}\n"
      "{\"id\":2,\"source\":\"int main(void){return 0;}\","
      "\"budget\":{\"warp_speed\":1}}\n"
      "{\"id\":3,\"frobnicate\":true}\n"
      "{\"id\":4,\"threads\":0}\n"
      "{\"id\":5,\"source\":\"int main(void){return 0;}\","
      "\"engine\":\"ast\"}\n"
      "{\"id\":6,\"axes\":[\"capacity\"]}\n"
      "{\"id\":7,\"axes\":{\"capacity\":1024}}\n"
      "{\"id\":8,\"source\":42}\n"
      "{\"id\":9,\"program\":[\"adpcm\"]}\n"
      "{\"id\":true,\"program\":\"adpcm\"}\n";
  const ServeRun r = run_serve(requests, serve_opts());
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  std::vector<std::string> errors;
  for (size_t i = 0; i < r.rows.size(); ++i) {
    ASSERT_EQ(kind(r.rows[i]), "done") << r.lines[i];
    EXPECT_FALSE(r.rows[i].find("ok")->b);
    EXPECT_EQ(r.rows[i].find("error_class")->str, "invalid_input");
    errors.push_back(r.rows[i].find("error")->str);
  }
  ASSERT_EQ(errors.size(), 10u);
  // Profiling always runs the VM: there is no engine field to pick the
  // tree-walking oracle with.
  EXPECT_NE(errors[4].find("unknown request field \"engine\""),
            std::string::npos);
  EXPECT_NE(errors[5].find("\"axes\" must be an object"), std::string::npos);
  EXPECT_NE(errors[6].find("axis \"capacity\" must be a comma-separated "
                           "string"),
            std::string::npos);
  EXPECT_NE(errors[7].find("\"source\" must be a MiniC program string"),
            std::string::npos);
  EXPECT_NE(errors[8].find("\"program\" must be a benchsuite kernel name"),
            std::string::npos);
  // An id that is neither a string nor a number cannot be echoed: the
  // row carries the input line instead.
  EXPECT_NE(errors[9].find("\"id\" must be a string or number"),
            std::string::npos);
  ASSERT_NE(r.rows[9].find("line"), nullptr);
  EXPECT_EQ(r.rows[9].find("line")->num, 10.0);
}

TEST(Serve, StringIdsAndTimeoutBudgetsAreAccepted) {
  util::JsonWriter w;
  w.begin_object();
  w.key("id").value("tenth");
  w.key("source").value(requests::kGood);
  w.key("budget").begin_object();
  w.key("timeout_seconds").value(60.0);
  w.end_object();
  w.end_object();
  const ServeRun r = run_serve(w.take() + "\n", serve_opts());
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  ASSERT_GE(r.rows.size(), 2u);
  EXPECT_EQ(kind(r.rows.front()), "request");
  EXPECT_EQ(kind(r.rows.back()), "done");
  for (const util::JsonValue* row : {&r.rows.front(), &r.rows.back()}) {
    const util::JsonValue* id = row->find("id");
    ASSERT_NE(id, nullptr);
    ASSERT_TRUE(id->is_string());
    EXPECT_EQ(id->str, "tenth");
  }
  EXPECT_TRUE(r.rows.back().find("ok")->b) << r.lines.back();
}

TEST(Serve, ModelCacheMakesRepeatRequestsPurePhaseTwo) {
  ModelCache cache(ModelCacheOptions{/*dir=*/""});
  const std::string requests =
      good_request(1) + "\n" + good_request(2) + "\n";
  std::istringstream in(requests);
  std::ostringstream out;
  ASSERT_TRUE(serve_loop(in, out, serve_opts(&cache)).ok());

  const ModelCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 1u);       // request 1 extracted
  EXPECT_EQ(s.hits, 1u);         // request 2 reused it
  EXPECT_EQ(s.memory_hits, 1u);  // without touching disk

  // And the two responses' sweep bodies are byte-identical: extract the
  // lines between each ack and done row and compare.
  std::vector<std::vector<std::string>> bodies;
  std::istringstream split(out.str());
  std::string line;
  while (std::getline(split, line)) {
    if (line.find("\"kind\":\"request\"") != std::string::npos) {
      bodies.emplace_back();
    } else if (line.find("\"kind\":\"done\"") != std::string::npos) {
      continue;
    } else if (!bodies.empty()) {
      bodies.back().push_back(line);
    }
  }
  ASSERT_EQ(bodies.size(), 2u);
  EXPECT_EQ(bodies[0], bodies[1]);
  EXPECT_FALSE(bodies[0].empty());
}

TEST(Serve, TheTreeWalkingOracleServesTheSameResponses) {
  // A server whose Phase I and replays run on the tree-walking oracle
  // (a library option; requests cannot choose it) streams the VM
  // server's bytes: sweeps, a malformed axis, a repeat served from the
  // model cache and a repeat replay served from the replay memo.
  const std::string requests =
      "{\"id\":1,\"program\":\"adpcm\",\"axes\":{\"capacity\":\"1024,4096\"}}\n"
      "{\"id\":2,\"axes\":{\"capacity\":\"bogus\"}}\n"
      "{\"id\":3,\"program\":\"adpcm\",\"axes\":{\"capacity\":\"1024\"}}\n"
      "{\"id\":4,\"program\":\"adpcm\",\"axes\":{\"capacity\":\"1024\","
      "\"replay\":\"on\"}}\n"
      "{\"id\":5,\"program\":\"adpcm\",\"axes\":{\"capacity\":\"1024\","
      "\"replay\":\"on\"}}\n"
      + good_request(6) + "\n";
  std::string streamed[2];
  for (sim::Engine engine : {sim::Engine::Bytecode, sim::Engine::Ast}) {
    ModelCache cache(ModelCacheOptions{/*dir=*/""});
    ReplayMemo memo;
    ServeOptions opts = serve_opts(&cache);
    opts.replay_memo = &memo;
    opts.pipeline.run.engine = engine;
    const ServeRun r = run_serve(requests, opts);
    ASSERT_TRUE(r.status.ok()) << r.status.message();
    EXPECT_GE(cache.stats().hits, 1u);
    EXPECT_EQ(memo.stats().simulations, 1u);
    EXPECT_EQ(memo.stats().hits, 1u);
    for (const std::string& line : r.lines) {
      streamed[engine == sim::Engine::Ast] += line + "\n";
    }
  }
  EXPECT_EQ(streamed[1], streamed[0]);
  EXPECT_NE(streamed[0].find("\"replay_check\":{\"ok\":true"),
            std::string::npos);
}

TEST(Serve, RepeatReplayRequestsSimulateTheTransformedProgramOnce) {
  // The same fft replay request three times: the first simulates its
  // transformed program, the other two reuse the kept simulation, and
  // all three responses are byte-identical apart from the id.
  ModelCache cache(ModelCacheOptions{/*dir=*/""});
  ReplayMemo memo;
  ServeOptions opts;
  opts.threads = 2;
  opts.model_cache = &cache;
  opts.replay_memo = &memo;
  std::string requests;
  for (int id = 1; id <= 3; ++id) {
    requests += "{\"id\":" + std::to_string(id) +
                ",\"program\":\"fft\",\"axes\":{\"capacity\":\"4096\","
                "\"replay\":\"on\"}}\n";
  }
  const ServeRun r = run_serve(requests, opts);
  ASSERT_TRUE(r.status.ok()) << r.status.message();

  std::vector<std::string> responses(1);
  for (std::string line : r.lines) {
    const std::string id = "\"id\":" + std::to_string(responses.size());
    const size_t at = line.find(id);
    if (at != std::string::npos) line.replace(at, id.size(), "\"id\":0");
    responses.back() += line + "\n";
    if (line.find("\"kind\":\"done\"") != std::string::npos) {
      responses.emplace_back();
    }
  }
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[3].empty());
  EXPECT_NE(responses[0].find("\"replay_check\":{\"ok\":true"),
            std::string::npos)
      << responses[0];
  EXPECT_NE(responses[0].find("\"kind\":\"done\",\"id\":0,\"ok\":true"),
            std::string::npos)
      << responses[0];
  EXPECT_EQ(responses[1], responses[0]);
  EXPECT_EQ(responses[2], responses[0]);
  EXPECT_EQ(memo.stats().simulations, 1u);
  EXPECT_EQ(memo.stats().hits, 2u);
}

/// A small inline program, distinct per `k`.
std::string distinct_source(int k) {
  return "int a[64];\nint main(void) {\n"
         "  for (int i = 0; i < 64; i++) a[i] = i + " +
         std::to_string(k) + ";\n  return 0;\n}\n";
}

/// A one-point request for distinct_source(k).
std::string distinct_request(int id, int k) {
  util::JsonWriter w;
  w.begin_object();
  w.key("id").value(static_cast<int64_t>(id));
  w.key("source").value(distinct_source(k));
  w.key("axes").begin_object();
  w.key("capacity").value("1024");
  w.end_object();
  w.end_object();
  return w.take();
}

/// The lines of `out` answering request `id`, its ack and done rows
/// excluded.
std::vector<std::string> response_body(const std::vector<std::string>& out,
                                       int id) {
  const std::string ack =
      "{\"kind\":\"request\",\"id\":" + std::to_string(id) + ",";
  std::vector<std::string> body;
  bool in = false;
  for (const std::string& line : out) {
    if (line.rfind(ack, 0) == 0) {
      in = true;
    } else if (in && line.find("\"kind\":\"done\"") != std::string::npos) {
      break;
    } else if (in) {
      body.push_back(line);
    }
  }
  return body;
}

TEST(Serve, RepeatCacheRequestsSimulateEachCellOnce) {
  // The same cache-on request twice: the first simulates its one cell,
  // the second prices the kept counts, and the bodies are byte-identical.
  CacheMemo memo;
  ServeOptions opts = serve_opts();
  opts.cache_memo = &memo;
  const std::string request =
      "\"program\":\"adpcm\",\"axes\":{\"capacity\":\"1024\","
      "\"cache\":\"32x2\"}}\n";
  const ServeRun r = run_serve(
      "{\"id\":1," + request + "{\"id\":2," + request, opts);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  const std::vector<std::string> first = response_body(r.lines, 1);
  ASSERT_EQ(first.size(), 4u);  // header, point, two pareto lines
  EXPECT_NE(first[1].find("\"caches\":[{\"line_bytes\":32,\"assoc\":2,"),
            std::string::npos)
      << first[1];
  EXPECT_EQ(response_body(r.lines, 2), first);
  EXPECT_EQ(memo.stats().simulations, 1u);
  EXPECT_EQ(memo.stats().hits, 1u);
}

TEST(Serve, MemoryLayerIsBoundedLeastRecentlyUsedFirst) {
  // More distinct inline sources than the memory layer holds, with a
  // kernel asked for again every 16 of them: the kernel stays a memory
  // hit throughout (first-in-first-out would have evicted it), the layer
  // stops growing at the bound, and the oldest source, evicted, is
  // recomputed to the same response.
  ModelCache cache(ModelCacheOptions{/*dir=*/""});
  const std::string kernel =
      "{\"id\":0,\"program\":\"adpcm\",\"axes\":{\"capacity\":\"1024\"}}";
  const int distinct = static_cast<int>(kMemoryEntries) + 8;
  std::string requests = kernel + "\n";
  int kernel_repeats = 0;
  for (int k = 1; k <= distinct; ++k) {
    requests += distinct_request(k, k) + "\n";
    if (k % 16 == 0) {
      requests += kernel + "\n";
      ++kernel_repeats;
    }
  }
  requests += distinct_request(distinct + 1, 1) + "\n";
  const ServeRun r = run_serve(requests, serve_opts(&cache));
  ASSERT_TRUE(r.status.ok()) << r.status.message();

  const ModelCache::Stats s = cache.stats();
  // The kernel plus `distinct` sources, then source 1 again.
  const uint64_t keys = 1 + static_cast<uint64_t>(distinct);
  EXPECT_EQ(s.stores, keys + 1);
  EXPECT_EQ(s.misses, keys + 1);
  EXPECT_EQ(s.hits, static_cast<uint64_t>(kernel_repeats));
  EXPECT_EQ(s.memory_hits, static_cast<uint64_t>(kernel_repeats));
  // Every store past the bound evicted exactly one model.
  EXPECT_EQ(s.memory_evictions, keys + 1 - kMemoryEntries);
  EXPECT_EQ(s.evictions, 0u);  // the disk counter is separate

  const std::vector<std::string> first = response_body(r.lines, 1);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(response_body(r.lines, distinct + 1), first);
}

TEST(Serve, StaticAdmissionMemoIsBoundedAndReLintsEvictedSources) {
  StaticVerdictMemo memo;
  const StaticVerdict first = memo.verdict(distinct_source(0));
  ASSERT_TRUE(first.frontend_ok);
  EXPECT_GE(first.cost.min_records, 64u);
  memo.verdict(distinct_source(0));
  EXPECT_EQ(memo.lints(), 1u);

  const int distinct = static_cast<int>(kMemoryEntries) + 8;
  for (int k = 1; k < distinct; ++k) {
    memo.verdict(distinct_source(k));
    EXPECT_LE(memo.size(), kMemoryEntries);
  }
  EXPECT_EQ(memo.size(), kMemoryEntries);
  EXPECT_EQ(memo.lints(), static_cast<uint64_t>(distinct));

  // Source 0 was evicted: it is linted again, to the same verdict.
  const StaticVerdict again = memo.verdict(distinct_source(0));
  EXPECT_EQ(memo.lints(), static_cast<uint64_t>(distinct) + 1);
  EXPECT_EQ(again.frontend_ok, first.frontend_ok);
  EXPECT_EQ(again.cost.min_steps, first.cost.min_steps);
  EXPECT_EQ(again.cost.min_records, first.cost.min_records);
  EXPECT_EQ(again.cost.max_steps, first.cost.max_steps);
  EXPECT_EQ(again.cost.max_records, first.cost.max_records);
  EXPECT_EQ(again.must_fault, first.must_fault);

  // A frontend failure is kept as one too.
  EXPECT_FALSE(memo.verdict("int main(void) { return x; }").frontend_ok);
  EXPECT_FALSE(memo.verdict("int main(void) { return x; }").frontend_ok);
  EXPECT_EQ(memo.lints(), static_cast<uint64_t>(distinct) + 2);
}

TEST(Serve, StaticAdmissionRefusesAnEvictedSourceAgainTheSameWay) {
  // kMemoryEntries + 8 distinct sources, each over a one-record budget,
  // then the first again after the memo evicted it: every request is
  // refused, and the re-linted first source gets its first row verbatim.
  ServeOptions opts = serve_opts();
  opts.static_admission = true;
  const auto over_budget = [](int k) {
    std::string line = distinct_request(k, k);
    line.pop_back();  // reopen the object for a budget
    return line + ",\"budget\":{\"max_records\":1}}";
  };
  const int distinct = static_cast<int>(kMemoryEntries) + 8;
  std::string requests;
  for (int k = 1; k <= distinct; ++k) requests += over_budget(k) + "\n";
  requests += over_budget(1) + "\n";
  const ServeRun r = run_serve(requests, opts);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  ASSERT_EQ(r.rows.size(), static_cast<size_t>(distinct) + 1);
  for (const util::JsonValue& row : r.rows) {
    ASSERT_NE(row.find("phase"), nullptr) << kind(row);
    EXPECT_EQ(row.find("phase")->str, "lint-admission");
  }
  EXPECT_EQ(r.lines.back(), r.lines.front());
}

/// An ostream whose buffer accepts `budget` bytes, then fails forever —
/// the shape of a client that disconnected mid-response.
class FailAfterBuf : public std::streambuf {
 public:
  explicit FailAfterBuf(size_t budget) : budget_(budget) {}
  const std::string& written() const { return written_; }

 protected:
  int overflow(int ch) override {
    if (budget_ == 0) return traits_type::eof();
    --budget_;
    written_ += static_cast<char>(ch);
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::streamsize take =
        std::min<std::streamsize>(n, static_cast<std::streamsize>(budget_));
    written_.append(s, static_cast<size_t>(take));
    budget_ -= static_cast<size_t>(take);
    return take;
  }

 private:
  size_t budget_;
  std::string written_;
};

TEST(Serve, DisconnectedClientEndsTheLoopWithIoError) {
  FailAfterBuf sink(64);  // enough for the ack, not the sweep
  std::ostream out(&sink);
  std::istringstream in(good_request(1) + "\n" + good_request(2) + "\n");
  const util::Status st = serve_loop(in, out, serve_opts());
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), util::ErrorCode::kIoError);
  EXPECT_EQ(st.phase(), "serve");
  // The loop died on the first request; the second was never served.
  EXPECT_EQ(sink.written().find("\"id\":2"), std::string::npos);
}

}  // namespace
}  // namespace foray::driver
