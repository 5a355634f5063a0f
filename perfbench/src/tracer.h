// In-memory spans for the traced run.
//
// The benchmark's own code opens a span around every call it makes into
// a layer's public function; nothing inside src/ is instrumented. Spans
// stay in memory while the run measures and are written out, one JSON
// object per line, when it ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string naming the layer call
  uint32_t op = 0;        ///< the operation the span belongs to
  uint32_t id = 0;        ///< index into Tracer::spans()
  int32_t parent = -1;    ///< enclosing span; -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  static int64_t now_ns();

  /// Spans opened from here on belong to operation `op`.
  void set_op(uint32_t op) { op_ = op; }
  /// Opens a span whose parent is the innermost open one.
  uint32_t open(const char* name);
  /// Closes `id`, which must be the innermost open span.
  void close(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span: its duration minus the time its children cover. Spans
  /// nest strictly on one thread, so children never overlap.
  std::vector<int64_t> self_ns() const;
  /// Writes every span as a JSON line; false if the file fails.
  bool write_jsonl(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
  uint32_t op_ = 0;
};

/// A span over the enclosing scope.
class Scope {
 public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.open(name)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  uint32_t id_;
};

}  // namespace perfbench
