// Trace sinks.
//
// The simulator pushes records into a Sink. Because the FORAY-GEN
// extractor is itself a Sink, analysis can run *online* during profiling
// — the paper's constant-space mode where the (typically large) trace
// file is never materialized. The transform replay classifies its run
// in a sink too (sim/classify_sink.h). Here, NullSink discards, and
// VectorSink materializes the trace where a caller needs the records
// themselves (`foraygen trace`, the offline column of the
// online-analysis ablation, the tests' two-pass oracle).
//
// Transport is chunked: a sink has one virtual method, on_chunk(), and
// producers hand it runs of records, paying one virtual call per chunk.
// The engines buffer RunOptions::chunk_records records per call; a
// caller holding a single record passes on_chunk(&r, 1).
#pragma once

#include <cstddef>
#include <vector>

#include "trace/record.h"
#include "util/fault.h"
#include "util/status.h"

namespace foray::trace {

/// Default number of records a chunking producer buffers before flushing
/// downstream. 1024 records = 12 KiB: comfortably L1-resident while still
/// amortizing the per-chunk dispatch to nothing.
inline constexpr size_t kDefaultChunkRecords = 1024;

class Sink {
 public:
  virtual ~Sink() = default;
  /// Delivery of `n` consecutive records, in trace order.
  virtual void on_chunk(const Record* r, size_t n) = 0;
};

/// Discards everything (pure-execution runs).
class NullSink final : public Sink {
 public:
  void on_chunk(const Record*, size_t) override {}
};

/// Materializes the full trace in memory (the "trace file" a two-pass
/// analysis would read).
///
/// Traces routinely run to millions of records, so callers that know the
/// expected volume (a previous run of the same program) should pass it
/// here: a single up-front reserve avoids the growth reallocations that
/// would otherwise copy the whole trace several times over.
class VectorSink final : public Sink {
 public:
  VectorSink() = default;
  explicit VectorSink(size_t reserve_hint) { records_.reserve(reserve_hint); }

  void on_chunk(const Record* r, size_t n) override {
    // Fault site "trace.buffer.alloc": models the materialized trace
    // outgrowing memory. Consulted per chunk, so the unfaulted cost is
    // one relaxed load per ~1024 records.
    if (util::fault::enabled() &&
        util::fault::should_fail("trace.buffer.alloc")) {
      throw util::StatusError(util::Status::failure(
          util::ErrorCode::kResourceExhausted, "trace", 0,
          "injected trace-buffer allocation failure"));
    }
    records_.insert(records_.end(), r, r + n);
  }
  const std::vector<Record>& records() const { return records_; }
  std::vector<Record> take() { return std::move(records_); }
  void clear() { records_.clear(); }
  size_t size() const { return records_.size(); }

 private:
  std::vector<Record> records_;
};

}  // namespace foray::trace
