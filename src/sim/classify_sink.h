// Traffic classification for transform-replay validation.
//
// The SPM transform-replay phase (spm/replay.h) executes the Phase II
// transformed program on the simulator and must attribute every Data
// access to either an SPM buffer array or a main-memory array, and must
// separate *program* accesses (the reference's own loads/stores) from
// *transfer* traffic (the fill / write-back copy loops). Two pieces live
// here, next to the engines whose behavior they mirror:
//
//  - global_regions(): the simulated address of every global variable,
//    computed from the one shared allocation rule both engines use
//    (sim/global_layout.h); tests/transform_replay_test additionally
//    locks the map against real trace addresses from both engines.
//
//  - ClassifyingSink: a trace::Sink that buckets Data accesses by region
//    and segments transfer events using the loop checkpoints the
//    annotator already emits. A fill loop executes as one innermost loop
//    instance whose body does nothing but `spm[_] = main[_]` byte copies,
//    so a loop instance whose per-buffer tally is exactly "N main reads +
//    N spm writes" is one fill event of N bytes (and symmetrically for
//    write-back). Everything else is program traffic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "minic/ast.h"
#include "trace/sink.h"

namespace foray::sim {

/// One global variable's simulated address range [base, base + size).
struct GlobalRegion {
  std::string name;
  uint32_t base = 0;
  uint32_t size = 0;
};

/// Address map of `prog`'s globals, in declaration order, exactly as both
/// execution engines will allocate them.
std::vector<GlobalRegion> global_regions(const minic::Program& prog);

class ClassifyingSink final : public trace::Sink {
 public:
  /// One address range the sink attributes accesses to. Ranges must not
  /// overlap. `buffer` links a main array and its SPM buffer: regions of
  /// the same non-negative buffer id form a fill/write-back pair and get
  /// transfer-event detection; buffer < 0 means plain main memory.
  struct Region {
    uint32_t base = 0;
    uint32_t size = 0;
    int buffer = -1;     ///< pair id, or -1 for unpaired main memory
    bool is_spm = false; ///< SPM side of the pair (ignored for buffer < 0)
  };

  /// Per-pair traffic decomposition.
  struct BufferCounters {
    uint64_t spm_accesses = 0;   ///< program accesses served by the buffer
    uint64_t main_accesses = 0;  ///< program accesses that hit main anyway
    uint64_t fill_events = 0;    ///< DRAM->SPM copy loop executions
    uint64_t fill_bytes = 0;
    uint64_t writeback_events = 0;  ///< SPM->DRAM copy loop executions
    uint64_t writeback_bytes = 0;
    /// Transfer words, 4 bytes each, rounded up *per event* — the same
    /// granularity spm::candidate_at charges analytically.
    uint64_t transfer_words = 0;
  };

  explicit ClassifyingSink(std::vector<Region> regions, int num_buffers);

  void on_chunk(const trace::Record* r, size_t n) override {
    for (size_t i = 0; i < n; ++i) classify(r[i]);
  }

  /// Classifies any traffic still attributed to open loop frames (a
  /// program that faulted mid-loop); idempotent. Called automatically by
  /// the accessors below.
  void finalize();

  const std::vector<BufferCounters>& buffers() {
    finalize();
    return buffers_;
  }
  /// Data accesses that fell inside no configured region.
  uint64_t unclassified_accesses() const { return unclassified_; }

  uint64_t total_spm_accesses();
  uint64_t total_main_accesses();
  uint64_t total_transfer_words();

 private:
  /// What one loop instance did to one buffer pair.
  struct Tally {
    int buffer = 0;
    uint64_t main_reads = 0, main_writes = 0;
    uint64_t spm_reads = 0, spm_writes = 0;
  };
  /// One dynamic loop execution (LoopEnter .. LoopExit).
  struct Frame {
    int32_t loop_id = 0;
    std::vector<Tally> tallies;  ///< few buffers per loop; linear scan
  };

  void classify(const trace::Record& r);
  Tally* tally_in(Frame* f, int buffer);
  void account(const Tally& t);
  void classify_frame(const Frame& f);

  std::vector<Region> regions_;  ///< sorted by base
  std::vector<BufferCounters> buffers_;
  std::vector<Frame> stack_;
  uint64_t unpaired_main_ = 0;
  uint64_t unclassified_ = 0;
  bool finalized_ = false;
};

}  // namespace foray::sim
