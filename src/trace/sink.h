// Trace sinks.
//
// The simulator pushes records into a Sink. Because the FORAY-GEN
// extractor is itself a Sink, analysis can run *online* during profiling
// — the paper's constant-space mode where the (typically large) trace
// file is never materialized. VectorSink materializes the trace where a
// caller needs the records themselves (`foraygen trace`, the tests'
// two-pass oracle).
//
// Transport is *chunked*: producers deliver runs of records through
// on_chunk(), paying one (virtual) call per chunk instead of one per
// record; on_record() remains as the single-record convenience and the
// default on_chunk() loops over it, so a sink only implementing
// on_record() still sees every record. Concrete sinks that can do better
// (bulk append, tight counting loops) override on_chunk().
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
  virtual void on_record(const Record& r) = 0;
  /// Bulk delivery of `n` consecutive records. Equivalent to calling
  /// on_record() for each; the base implementation does exactly that.
  virtual void on_chunk(const Record* r, size_t n) {
    for (size_t i = 0; i < n; ++i) on_record(r[i]);
  }
};

/// Discards everything (pure-execution runs).
class NullSink final : public Sink {
 public:
  void on_record(const Record&) override {}
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

  void on_record(const Record& r) override { records_.push_back(r); }
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

/// Counts records by type without storing them (used to measure trace
/// volume in the online-analysis ablation).
class CountingSink final : public Sink {
 public:
  void on_record(const Record& r) override { tally(r); }
  void on_chunk(const Record* r, size_t n) override {
    for (size_t i = 0; i < n; ++i) tally(r[i]);
  }
  uint64_t total() const { return total_; }
  uint64_t checkpoints() const { return checkpoints_; }
  uint64_t accesses() const { return accesses_; }
  uint64_t calls() const { return calls_; }
  uint64_t rets() const { return rets_; }

 private:
  void tally(const Record& r) {
    ++total_;
    switch (r.type()) {
      case RecordType::Checkpoint: ++checkpoints_; break;
      case RecordType::Access: ++accesses_; break;
      case RecordType::Call: ++calls_; break;
      case RecordType::Ret: ++rets_; break;
    }
  }

  uint64_t total_ = 0, checkpoints_ = 0, accesses_ = 0, calls_ = 0,
           rets_ = 0;
};

}  // namespace foray::trace
