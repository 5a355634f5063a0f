// Serve request lines under mutation: every request line serve_test
// sends, mutated by a seeded generator — byte flips, truncations and
// duplicated keys — and fed through driver::serve_loop in process. Each
// line must end in exactly one classified done row (or none, for a line
// the mutation left blank, which serve treats as a keepalive), with
// every response row valid JSON, no internal error, no signal and bounded
// time. The generator is deterministic, so a failure names a line that
// reproduces.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "driver/serve.h"
#include "serve_requests.h"
#include "util/json.h"
#include "util/rng.h"

namespace foray::driver {
namespace {

/// Small budgets keep every mutated program bounded: a flipped loop
/// condition spins into the step guard, not for minutes.
ServeOptions fuzz_opts() {
  ServeOptions o;
  o.threads = 1;
  o.max_points = 64;
  o.pipeline.filter.min_exec = 1;
  o.pipeline.filter.min_locations = 1;
  o.pipeline.run.budget.max_steps = 2'000'000;
  o.pipeline.run.budget.timeout_seconds = 10.0;
  return o;
}

/// `line` with one byte replaced by a different one. A newline would end
/// the request line early, so it is never produced.
std::string flip_byte(const std::string& line, util::Rng& rng) {
  std::string out = line;
  const size_t pos = rng.next_below(out.size());
  char c = out[pos];
  while (c == out[pos] || c == '\n') {
    c = static_cast<char>(rng.next_in(1, 255));
  }
  out[pos] = c;
  return out;
}

/// A copy of `line` with `field` inserted as the object's first member,
/// so an existing key of the same name appears twice.
std::string duplicate_key(const std::string& line, const std::string& field) {
  if (line.empty() || line[0] != '{') return line;
  return "{" + field + "," + line.substr(1);
}

std::vector<std::string> mutated_requests() {
  static const char* const kDuplicates[] = {
      "\"id\":999",
      "\"program\":\"adpcm\"",
      "\"source\":\"int main(void){return 1;}\"",
      "\"axes\":{\"capacity\":\"64\"}",
      "\"budget\":{\"max_steps\":1000}",
      "\"threads\":3",
      "\"engine\":\"ast\"",
  };
  util::Rng rng(20261017);
  std::vector<std::string> out;
  for (const std::string& line : requests::sample_requests()) {
    for (int i = 0; i < 24; ++i) {
      std::string flipped = flip_byte(line, rng);
      for (int k = rng.next_in(0, 2); k > 0; --k) {
        flipped = flip_byte(flipped, rng);
      }
      out.push_back(std::move(flipped));
    }
    for (int i = 0; i < 4; ++i) {
      out.push_back(line.substr(0, rng.next_below(line.size())));
    }
    for (const char* field : kDuplicates) {
      out.push_back(duplicate_key(line, field));
    }
  }
  return out;
}

std::string field_str(const util::JsonValue& row, const char* key) {
  const util::JsonValue* v = row.find(key);
  return v != nullptr && v->is_string() ? v->str : "";
}

TEST(ServeMutation, EveryMutatedLineGetsOneClassifiedDoneRow) {
  const std::set<std::string> kClasses = {
      "invalid_input", "resource_exhausted", "deadline_exceeded",
      "io_error", "cancelled"};
  const std::vector<std::string> lines = mutated_requests();
  ASSERT_GT(lines.size(), 450u);
  int refused = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    SCOPED_TRACE("mutation " + std::to_string(i) + ": " +
                 line.substr(0, 160));
    std::istringstream in(line + "\n");
    std::ostringstream out;
    const auto start = std::chrono::steady_clock::now();
    const util::Status st = serve_loop(in, out, fuzz_opts());
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ASSERT_TRUE(st.ok()) << st.message();
    EXPECT_LT(seconds, 30.0);

    std::vector<util::JsonValue> rows;
    std::istringstream split(out.str());
    std::string row_text;
    while (std::getline(split, row_text)) {
      util::JsonValue row;
      std::string err;
      ASSERT_TRUE(util::parse_json(row_text, &row, &err))
          << row_text << ": " << err;
      ASSERT_TRUE(row.is_object()) << row_text;
      rows.push_back(std::move(row));
    }
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      EXPECT_TRUE(rows.empty());  // a blank line is a keepalive
      continue;
    }
    ASSERT_FALSE(rows.empty());
    int done = 0;
    for (const util::JsonValue& row : rows) {
      if (field_str(row, "kind") == "done") ++done;
    }
    EXPECT_EQ(done, 1);
    const util::JsonValue& last = rows.back();
    ASSERT_EQ(field_str(last, "kind"), "done");
    const util::JsonValue* ok = last.find("ok");
    ASSERT_NE(ok, nullptr);
    if (!ok->b) {
      ++refused;
      EXPECT_EQ(kClasses.count(field_str(last, "error_class")), 1u)
          << field_str(last, "error_class") << ": "
          << field_str(last, "error");
      EXPECT_FALSE(field_str(last, "phase").empty());
      EXPECT_FALSE(field_str(last, "error").empty());
    }
  }
  // The mutations mostly break requests: most lines are refused.
  EXPECT_GT(refused, static_cast<int>(lines.size()) / 2);
}

}  // namespace
}  // namespace foray::driver
