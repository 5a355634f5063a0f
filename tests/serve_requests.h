// Request lines shared by serve_test.cpp and serve_mutation_test.cpp:
// the inline program both tests sweep and builders for the requests
// serve_test sends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"

namespace foray::driver::requests {

inline const char* const kGood =
    "int a[256];\n"
    "int main(void) {\n"
    "  for (int r = 0; r < 40; r++)\n"
    "    for (int i = 0; i < 256; i++) a[i] = a[i] + r;\n"
    "  return a[0] & 255;\n"
    "}\n";

/// One request asking for a 2-point capacity sweep of the inline kGood.
inline std::string good_request(int id) {
  util::JsonWriter w;
  w.begin_object();
  w.key("id").value(static_cast<int64_t>(id));
  w.key("name").value("alpha");
  w.key("source").value(kGood);
  w.key("axes").begin_object();
  w.key("capacity").value("1024,4096");
  w.end_object();
  w.end_object();
  return w.take();
}

/// An inline source nested 10,000 levels deep: past the parser's bound,
/// and deep enough to overflow the host stack of an unbounded
/// recursive-descent parser.
inline std::string deep_request(int id) {
  util::JsonWriter w;
  w.begin_object();
  w.key("id").value(static_cast<int64_t>(id));
  w.key("source").value("int main(void) { return " + std::string(10000, '(') +
                        "0" + std::string(10000, ')') + "; }");
  w.end_object();
  return w.take();
}

/// kGood, named `name` unless it is null, under a per-request budget of
/// `field` = `value`.
inline std::string budget_request(int id, const char* name, const char* field,
                                  int64_t value) {
  util::JsonWriter w;
  w.begin_object();
  w.key("id").value(static_cast<int64_t>(id));
  if (name != nullptr) w.key("name").value(name);
  w.key("source").value(kGood);
  w.key("budget").begin_object();
  w.key(field).value(value);
  w.end_object();
  w.end_object();
  return w.take();
}

/// kGood over cache geometries past the simulator's bound.
inline std::string huge_cache_request(int id) {
  util::JsonWriter w;
  w.begin_object();
  w.key("id").value(static_cast<int64_t>(id));
  w.key("name").value("alpha");
  w.key("source").value(kGood);
  w.key("axes").begin_object();
  w.key("capacity").value("1073741824,2147483648,4096");
  w.key("cache").value("32x1,1x1");
  w.end_object();
  w.end_object();
  return w.take();
}

/// Every request line serve_test sends, but the two 1 MiB padding lines.
inline std::vector<std::string> sample_requests() {
  return {
      "this is not json",
      "[1,2,3]",
      "{\"id\":2,\"axes\":{\"capacity\":\"bogus\"}}",
      "{\"id\":3,\"program\":\"no-such-kernel\"}",
      deep_request(5),
      good_request(4),
      huge_cache_request(1),
      budget_request(1, nullptr, "max_steps", 50),
      budget_request(1, "big", "max_records", 10),
      "{\"id\":1,\"source\":\"int main(void){return 0;}\","
      "\"budget\":{\"max_steps\":-5}}",
      "{\"id\":2,\"source\":\"int main(void){return 0;}\","
      "\"budget\":{\"warp_speed\":1}}",
      "{\"id\":3,\"frobnicate\":true}",
      "{\"id\":4,\"threads\":0}",
      // No request picks the engine: refused as unknown request field
      // "engine".
      "{\"id\":5,\"source\":\"int main(void){return 0;}\","
      "\"engine\":\"ast\"}",
  };
}

}  // namespace foray::driver::requests
