#include "driver/serve.h"

#include <algorithm>
#include <istream>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "benchsuite/suite.h"
#include "driver/model_cache.h"
#include "driver/sweep.h"
#include "sim/budget.h"
#include "util/hash.h"
#include "util/json.h"

namespace foray::driver {

namespace {

/// Identifies a request on its response rows: the client's id when it
/// sent one (string or number), the input line number otherwise.
struct RequestTag {
  bool has_id = false;
  bool id_is_string = false;
  std::string id_str;
  double id_num = 0.0;
  int line = 0;

  void write(util::JsonWriter& w) const {
    if (!has_id) {
      w.key("line").value(static_cast<int64_t>(line));
    } else if (id_is_string) {
      w.key("id").value(id_str);
    } else {
      w.key("id").value(id_num);
    }
  }
};

/// Cancels the request's token the moment the client-facing stream stops
/// accepting bytes, so in-flight simulations die cooperatively at their
/// next chunk boundary instead of sweeping on for a client that is gone.
class CancelOnErrorBuf : public std::streambuf {
 public:
  CancelOnErrorBuf(std::streambuf* dst, sim::CancelToken* token)
      : dst_(dst), token_(token) {}

 protected:
  int overflow(int ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return sync() == 0 ? 0 : traits_type::eof();
    }
    if (traits_type::eq_int_type(
            dst_->sputc(traits_type::to_char_type(ch)),
            traits_type::eof())) {
      token_->cancel();
      return traits_type::eof();
    }
    return ch;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const std::streamsize written = dst_->sputn(s, n);
    if (written != n) token_->cancel();
    return written;
  }
  int sync() override {
    const int r = dst_->pubsync();
    if (r != 0) token_->cancel();
    return r;
  }

 private:
  std::streambuf* dst_;
  sim::CancelToken* token_;
};

util::Status bad_request(const std::string& msg) {
  return util::Status::failure(util::ErrorCode::kInvalidInput, "serve", 0,
                               msg);
}

/// Layers the request's optional "budget" object over the server
/// defaults. Field values arrive as JSON numbers (doubles); the step and
/// record guards take their integer part.
util::Status apply_budget(const util::JsonValue& req, sim::Budget* budget) {
  const util::JsonValue* b = req.find("budget");
  if (b == nullptr) return util::Status();
  if (!b->is_object()) return bad_request("\"budget\" must be an object");
  for (const auto& [key, v] : b->fields) {
    if (!v.is_number() || v.num < 0 || !std::isfinite(v.num)) {
      return bad_request("budget field \"" + key +
                         "\" must be a non-negative number");
    }
    if (key == "max_steps") {
      budget->max_steps = static_cast<uint64_t>(v.num);
    } else if (key == "max_records") {
      budget->max_records = static_cast<uint64_t>(v.num);
    } else if (key == "timeout_seconds") {
      budget->timeout_seconds = v.num;
    } else {
      return bad_request("unknown budget field \"" + key + "\"");
    }
  }
  return util::Status();
}

/// Builds the request's SweepOptions and job list. Every failure is a
/// classified status for the done row; the loop itself never dies on a
/// bad request.
util::Status parse_request(const util::JsonValue& req,
                           const ServeOptions& opts, SweepOptions* sopts,
                           std::vector<SweepJob>* jobs) {
  static constexpr const char* kKnown[] = {
      "id", "axes", "program", "source", "name", "threads", "budget"};
  for (const auto& [key, value] : req.fields) {
    (void)value;
    if (std::find_if(std::begin(kKnown), std::end(kKnown),
                     [&key = key](const char* k) { return key == k; }) ==
        std::end(kKnown)) {
      return bad_request("unknown request field \"" + key + "\"");
    }
  }

  sopts->pipeline = opts.pipeline;
  sopts->model_cache = opts.model_cache;
  sopts->threads = std::max(opts.threads, 1);
  if (const util::JsonValue* t = req.find("threads"); t != nullptr) {
    if (!t->is_number() || t->num < 1) {
      return bad_request("\"threads\" must be a positive number");
    }
    // A request may use fewer workers than the server allows, never more.
    sopts->threads =
        std::min(sopts->threads, static_cast<int>(std::min(t->num, 1024.0)));
  }

  if (const util::JsonValue* axes = req.find("axes"); axes != nullptr) {
    if (!axes->is_object()) {
      return bad_request("\"axes\" must be an object of axis -> values");
    }
    for (const auto& [axis, values] : axes->fields) {
      if (!values.is_string()) {
        return bad_request("axis \"" + axis +
                           "\" must be a comma-separated string");
      }
      util::Status st = sopts->spec.parse_axis(axis, values.str);
      if (!st.ok()) return st;
    }
  }

  util::Status st = apply_budget(req, &sopts->pipeline.run.budget);
  if (!st.ok()) return st;

  const util::JsonValue* source = req.find("source");
  const util::JsonValue* program = req.find("program");
  if (source != nullptr && program != nullptr) {
    return bad_request("request has both \"source\" and \"program\"");
  }
  if (source != nullptr) {
    if (!source->is_string()) {
      return bad_request("\"source\" must be a MiniC program string");
    }
    std::string name = "inline";
    if (const util::JsonValue* n = req.find("name"); n != nullptr) {
      if (!n->is_string()) return bad_request("\"name\" must be a string");
      name = n->str;
    }
    jobs->push_back(SweepJob{std::move(name), source->str});
  } else if (program != nullptr) {
    if (!program->is_string()) {
      return bad_request("\"program\" must be a benchsuite kernel name");
    }
    for (const auto& b : benchsuite::all_benchmarks()) {
      if (b.name == program->str) {
        jobs->push_back(SweepJob{b.name, b.source});
        break;
      }
    }
    if (jobs->empty()) {
      return bad_request("unknown benchsuite program \"" + program->str +
                         "\" (send \"source\" for a custom program)");
    }
  } else {
    *jobs = SweepDriver::benchsuite_jobs();
  }
  return util::Status();
}

/// `--static-admission`: refuses a request whose static *minimum* cost
/// bound already exceeds the request's effective execution budget — the
/// run provably cannot finish inside it, so simulating would only burn
/// the budget to learn what the checker already knows. Runs before any
/// Phase I work or response row. Programs the frontend rejects pass
/// (the sweep classifies them itself), so admitted requests stream
/// byte-identical responses with or without admission.
util::Status admit_static(const std::vector<SweepJob>& jobs,
                          const sim::Budget& budget,
                          StaticVerdictMemo* memo) {
  for (const SweepJob& job : jobs) {
    const StaticVerdict& v = memo->verdict(job.source);
    if (!v.frontend_ok) continue;
    const staticforay::StaticCost& cost = v.cost;
    const bool over_records =
        budget.max_records != 0 && cost.min_records > budget.max_records;
    const bool over_steps =
        budget.max_steps != 0 && cost.min_steps > budget.max_steps;
    if (!over_records && !over_steps) continue;
    const uint64_t need = over_records ? cost.min_records : cost.min_steps;
    const uint64_t cap =
        over_records ? budget.max_records : budget.max_steps;
    return util::Status::failure(
        util::ErrorCode::kResourceExhausted, "lint-admission", 0,
        job.name + ": static bound of at least " + std::to_string(need) +
            (over_records ? " trace records" : " steps") +
            " exceeds the request budget of " + std::to_string(cap) +
            " (raise the budget or drop the program)");
  }
  return util::Status();
}

/// Reads one line into `line`, newline dropped, like std::getline. Past
/// kMaxRequestBytes the rest of the line is skipped instead of stored and
/// `*oversized` is set. Returns false at end of input with nothing read.
bool read_request_line(std::istream& in, std::string* line,
                       bool* oversized) {
  line->clear();
  *oversized = false;
  std::streambuf* buf = in.rdbuf();
  bool any = false;
  for (;;) {
    const int ch = buf->sbumpc();
    if (ch == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      return any;
    }
    any = true;
    if (ch == '\n') return true;
    if (line->size() < kMaxRequestBytes) {
      line->push_back(static_cast<char>(ch));
    } else {
      *oversized = true;
    }
  }
}

void done_row(std::ostream& out, const RequestTag& tag,
              const util::Status& st) {
  util::JsonWriter w;
  w.begin_object();
  w.key("kind").value("done");
  tag.write(w);
  w.key("ok").value(st.ok());
  if (!st.ok()) util::write_error_fields(w, st);
  w.end_object();
  out << w.take() << '\n';
}

}  // namespace

const StaticVerdict& StaticVerdictMemo::verdict(std::string_view source) {
  const uint64_t key = util::fnv1a(source);
  if (const StaticVerdict* kept = verdicts_.find(key)) return *kept;
  ++lints_;
  return verdicts_.put(key, static_verdict(source));
}

util::Status serve_loop(std::istream& in, std::ostream& out,
                        const ServeOptions& opts) {
  StaticVerdictMemo verdicts;
  ReplayMemo own_replays;
  ReplayMemo* const replays =
      opts.replay_memo != nullptr ? opts.replay_memo : &own_replays;
  CacheMemo own_caches;
  CacheMemo* const caches =
      opts.cache_memo != nullptr ? opts.cache_memo : &own_caches;
  std::string line;
  bool oversized = false;
  int line_no = 0;
  while (read_request_line(in, &line, &oversized)) {
    ++line_no;
    if (!oversized &&
        line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;  // blank lines are keepalives, not requests
    }
    RequestTag tag;
    tag.line = line_no;
    util::Status st;
    util::JsonValue req;
    std::string err;
    if (oversized) {
      st = bad_request("request line longer than " +
                       std::to_string(kMaxRequestBytes) + " bytes");
    } else if (!util::parse_json(line, &req, &err)) {
      st = bad_request("request is not valid JSON: " + err);
    } else if (!req.is_object()) {
      st = bad_request("request must be a JSON object");
    } else if (const util::JsonValue* id = req.find("id"); id != nullptr) {
      if (id->is_string()) {
        tag.has_id = true;
        tag.id_is_string = true;
        tag.id_str = id->str;
      } else if (id->is_number()) {
        tag.has_id = true;
        tag.id_num = id->num;
      } else {
        st = bad_request("\"id\" must be a string or number");
      }
    }

    SweepOptions sopts;
    std::vector<SweepJob> jobs;
    if (st.ok() && req.is_object()) {
      st = parse_request(req, opts, &sopts, &jobs);
    }
    if (st.ok() && opts.static_admission) {
      st = admit_static(jobs, sopts.pipeline.run.budget, &verdicts);
    }
    if (st.ok()) {
      auto token = std::make_shared<sim::CancelToken>();
      sopts.pipeline.run.budget.cancel = token;
      sopts.replay_memo = replays;
      sopts.cache_memo = caches;
      SweepDriver driver(std::move(sopts));
      const uint64_t total =
          static_cast<uint64_t>(driver.grid().points_per_job()) * jobs.size();
      if (opts.max_points != 0 && total > opts.max_points) {
        // Admission control: refused before any Phase I/II work runs.
        st = util::Status::failure(
            util::ErrorCode::kResourceExhausted, "serve-admission", 0,
            "request expands to " + std::to_string(total) +
                " grid points, over this server's cap of " +
                std::to_string(opts.max_points) +
                " (split the request or restart with --max-points)");
      } else {
        util::JsonWriter w;
        w.begin_object();
        w.key("kind").value("request");
        tag.write(w);
        w.key("programs").begin_array();
        for (const SweepJob& job : jobs) w.value(job.name);
        w.end_array();
        w.key("points").value(total);
        w.end_object();
        out << w.take() << '\n';
        out.flush();
        // The sweep body streams through the cancel-wiring buffer; the
        // protocol rows above/below go straight to `out` so a mid-sweep
        // sink failure still attempts an honest done row (and the flush
        // check below ends the loop if the client is truly gone).
        CancelOnErrorBuf guard(out.rdbuf(), token.get());
        std::ostream guarded(&guard);
        st = driver.run_ndjson(jobs, guarded);
      }
    }
    done_row(out, tag, st);
    out.flush();
    if (!out) {
      return util::Status::failure(
          util::ErrorCode::kIoError, "serve", line_no,
          "response stream failed (client disconnected?)");
    }
  }
  return util::Status();
}

}  // namespace foray::driver
