#include "util/fault.h"

#include <atomic>
#include <mutex>

#include "util/strings.h"

namespace foray::util::fault {

namespace {

// The registry is a fixed list: a site is part of the robustness
// contract (tests iterate all_sites()), so adding one is a deliberate,
// reviewed act, not a side effect of a stray string.
constexpr const char* kKnownSites[] = {
    "trace.buffer.alloc",  // trace-chunk buffer growth fails (ENOMEM)
    "sim.slow",            // the simulated program stalls (param: ms/flush)
    "sweep.sink.io",       // the NDJSON sink write fails (EIO/ENOSPC)
    "spm.solve",           // Phase II solver dies mid-solve-group (keyed)
};

struct SiteState {
  bool armed = false;
  uint64_t skip = 0;       // hits to pass through before firing
  int64_t remaining = -1;  // fires left; <0 = unlimited
  uint64_t param = 0;
};

constexpr size_t kNumSites = sizeof(kKnownSites) / sizeof(kKnownSites[0]);

std::atomic<bool> g_enabled{false};
std::mutex g_mutex;
SiteState g_sites[kNumSites];

int site_index(std::string_view name) {
  for (size_t i = 0; i < kNumSites; ++i) {
    if (name == kKnownSites[i]) return static_cast<int>(i);
  }
  return -1;
}

Status configure_locked(std::string_view spec) {
  for (auto& s : g_sites) s = SiteState{};
  bool any = false;
  for (std::string_view entry : split(spec, ';')) {
    for (std::string_view trig : split(entry, ',')) {
      trig = trim(trig);
      if (trig.empty()) continue;
      auto fields = split(trig, ':');
      const int idx = site_index(trim(fields[0]));
      if (idx < 0) {
        return Status::failure(ErrorCode::kInvalidInput, "fault-spec", 0,
                               "unknown fault site '" +
                                   std::string(trim(fields[0])) + "'");
      }
      SiteState st;
      st.armed = true;
      for (size_t f = 1; f < fields.size(); ++f) {
        const std::string_view kv = trim(fields[f]);
        const size_t eq = kv.find('=');
        const std::string_view key =
            eq == std::string_view::npos ? kv : kv.substr(0, eq);
        int64_t v = 0;
        if (eq == std::string_view::npos ||
            !parse_i64(kv.substr(eq + 1), &v) || v < 0) {
          return Status::failure(ErrorCode::kInvalidInput, "fault-spec", 0,
                                 "bad fault trigger field '" +
                                     std::string(kv) + "'");
        }
        if (key == "skip") {
          st.skip = static_cast<uint64_t>(v);
        } else if (key == "count") {
          st.remaining = v;
        } else if (key == "param") {
          st.param = static_cast<uint64_t>(v);
        } else {
          return Status::failure(ErrorCode::kInvalidInput, "fault-spec", 0,
                                 "unknown fault trigger field '" +
                                     std::string(key) + "'");
        }
      }
      g_sites[idx] = st;
      any = true;
    }
  }
  g_enabled.store(any, std::memory_order_relaxed);
  return Status();
}

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Hit hit(std::string_view site) {
  if (!enabled()) return Hit{};
  const int idx = site_index(site);
  FORAY_CHECK(idx >= 0, "unregistered fault site '" + std::string(site) + "'");
  std::lock_guard<std::mutex> lock(g_mutex);
  SiteState& st = g_sites[idx];
  if (!st.armed) return Hit{};
  if (st.skip > 0) {
    --st.skip;
    return Hit{};
  }
  if (st.remaining == 0) return Hit{};
  if (st.remaining > 0) --st.remaining;
  return Hit{true, st.param};
}

Hit hit_at(std::string_view site, uint64_t ordinal) {
  if (!enabled()) return Hit{};
  const int idx = site_index(site);
  FORAY_CHECK(idx >= 0, "unregistered fault site '" + std::string(site) + "'");
  std::lock_guard<std::mutex> lock(g_mutex);
  const SiteState& st = g_sites[idx];
  if (!st.armed || ordinal < st.skip) return Hit{};
  if (st.remaining >= 0 &&
      ordinal - st.skip >= static_cast<uint64_t>(st.remaining)) {
    return Hit{};
  }
  return Hit{true, st.param};
}

std::vector<std::string> all_sites() {
  return std::vector<std::string>(kKnownSites, kKnownSites + kNumSites);
}

Status configure(std::string_view spec) {
  std::lock_guard<std::mutex> lock(g_mutex);
  return configure_locked(spec);
}

void reset() {
  std::lock_guard<std::mutex> lock(g_mutex);
  for (auto& s : g_sites) s = SiteState{};
  g_enabled.store(false, std::memory_order_relaxed);
}

}  // namespace foray::util::fault
