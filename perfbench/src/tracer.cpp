#include "tracer.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint32_t Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.op = op_;
  s.id = static_cast<uint32_t>(spans_.size());
  s.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  spans_.push_back(s);
  open_.push_back(s.id);
  spans_.back().start_ns = now_ns();
  return s.id;
}

void Tracer::close(uint32_t id) {
  spans_[id].end_ns = now_ns();
  open_.pop_back();
}

std::vector<int64_t> Tracer::self_ns() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].duration_ns();
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.duration_ns();
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"op\":%u,\"id\":%u,\"parent\":%d,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 s.op, s.id, s.parent, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
