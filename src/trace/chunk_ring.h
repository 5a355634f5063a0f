// A bounded ring of reusable record buffers between one trace producer
// (the simulator) and one consumer (an Extractor running on its own
// thread) — the transport behind pipeline-overlapped profiling
// (foray/online_pipeline.h). Slots are consumed in the order they were
// published, so the consumer sees the trace in order.
//
// Locking is deliberately coarse: one mutex + two condition variables per
// ring, taken once per slot (thousands of records), not per record. The
// slots themselves are reused, so steady-state operation performs no
// allocation.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "trace/record.h"

namespace foray::trace {

class ChunkRing {
 public:
  struct Slot {
    std::vector<Record> records;
    size_t used = 0;  ///< records filled by the producer
  };

  ChunkRing(size_t slots, size_t slot_records)
      : slots_(slots == 0 ? 2 : slots) {
    for (auto& s : slots_) s.records.resize(slot_records == 0 ? 1 : slot_records);
  }

  /// Producer: the slot currently being filled (blocks while the ring is
  /// full). Returns nullptr after consumer_abort() — the producer should
  /// then drop records on the floor (the run is failing anyway).
  Slot* producer_acquire() {
    std::unique_lock<std::mutex> lock(mu_);
    not_full_.wait(lock, [&] {
      return aborted_ || produced_ - consumed_ < slots_.size();
    });
    if (aborted_) return nullptr;
    Slot* s = &slots_[produced_ % slots_.size()];
    return s;
  }

  /// Producer: hands the acquired slot to the consumer.
  void producer_publish() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++produced_;
    }
    not_empty_.notify_one();
  }

  /// Producer: no more slots will be published.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_one();
  }

  /// Consumer: next published slot, or nullptr once the ring is closed
  /// and drained.
  Slot* consumer_pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return consumed_ < produced_ || closed_; });
    if (consumed_ == produced_) return nullptr;
    return &slots_[consumed_ % slots_.size()];
  }

  /// Consumer: returns the popped slot to the producer's free pool.
  void consumer_release(Slot* s) {
    s->used = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++consumed_;
    }
    not_full_.notify_one();
  }

  /// Consumer died (extraction threw): permanently unblocks the producer
  /// so the simulator can run to completion discarding records.
  void consumer_abort() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      aborted_ = true;
    }
    not_full_.notify_one();
  }

 private:
  std::vector<Slot> slots_;
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  uint64_t produced_ = 0;  ///< slots published
  uint64_t consumed_ = 0;  ///< slots released
  bool closed_ = false;
  bool aborted_ = false;
};

}  // namespace foray::trace
