#include "foray/online_pipeline.h"

#include <algorithm>
#include <exception>
#include <thread>

#include "sim/interp_impl.h"
#include "trace/chunk_ring.h"

namespace foray::core {

namespace {

using trace::ChunkRing;
using trace::Record;

// Ring geometry: a handful of slots big enough to amortize the lock to
// ~nothing (one mutex round-trip per 32K records) while keeping the
// in-flight working set cache-friendly (4 x 384 KiB).
constexpr size_t kRingSlots = 4;
constexpr size_t kSlotRecords = 1u << 15;

/// The producer's sink: copies records into the ring's current slot and
/// publishes each slot as it fills.
class RingSink final {
 public:
  explicit RingSink(ChunkRing* ring) : ring_(ring) {}

  void on_chunk(const Record* r, size_t n) {
    while (n > 0) {
      if (slot_ == nullptr || slot_->used == slot_->records.size()) {
        if (slot_ != nullptr) ring_->producer_publish();
        slot_ = ring_->producer_acquire();
        if (slot_ == nullptr) return;  // consumer aborted: discard
      }
      const size_t take = std::min(n, slot_->records.size() - slot_->used);
      std::copy_n(r, take, slot_->records.data() + slot_->used);
      slot_->used += take;
      r += take;
      n -= take;
    }
  }

  /// Publishes a partial slot (end of stream).
  void flush() {
    if (slot_ != nullptr && slot_->used > 0) {
      ring_->producer_publish();
      slot_ = nullptr;
    }
  }

 private:
  ChunkRing* ring_;
  ChunkRing::Slot* slot_ = nullptr;
};

void consume(ChunkRing* ring, Extractor* ex, std::exception_ptr* err) {
  try {
    while (ChunkRing::Slot* s = ring->consumer_pop()) {
      ex->on_chunk(s->records.data(), s->used);
      ring->consumer_release(s);
    }
  } catch (...) {
    *err = std::current_exception();
    ring->consumer_abort();
  }
}

}  // namespace

sim::RunResult run_profile_pipelined(const minic::Program& prog,
                                     const sim::RunOptions& run_opts,
                                     Extractor* out) {
  ChunkRing ring(kRingSlots, kSlotRecords);
  RingSink sink(&ring);
  std::exception_ptr consumer_err;
  std::thread consumer(consume, &ring, out, &consumer_err);

  sim::RunResult run;
  std::exception_ptr producer_err;
  try {
    run = sim::run_program_with(prog, &sink, run_opts);
    sink.flush();
  } catch (...) {
    producer_err = std::current_exception();
  }
  ring.close();
  consumer.join();

  // A consumer failure (a malformed trace tripping a FORAY_CHECK) outranks
  // a producer one — the producer may only have failed because the
  // aborted ring made it drop records.
  if (consumer_err) std::rethrow_exception(consumer_err);
  if (producer_err) std::rethrow_exception(producer_err);
  return run;
}

}  // namespace foray::core
