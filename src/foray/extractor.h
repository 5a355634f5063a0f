// Algorithm 2 + driver: reconstructs the loop tree from the checkpoint
// stream and feeds every memory access into Algorithm 3.
//
// The extractor is a trace::Sink, so it can be attached directly to the
// simulator (online analysis: "the proposed algorithm can be executed
// during profiling and there is no need to save the trace file" — §4) or
// fed from a stored trace, as the tests' oracle does. Both paths produce
// identical trees (tests/pipeline_equivalence_test.cpp) — unless the
// fused pass elides scalar traffic (PipelineOptions::census off), when
// the tree lacks the Scalar references Step 4 would drop and the model
// built from it is still identical.
//
// That pass elides BodyEnd checkpoints too. BodyEnd changes no
// iterator; its only effect here is an epoch bump. Without it, an
// access between BodyEnd(N) and BodyBegin(N+1) may take the duplicate
// fast path of on_access(). That needs the address of the reference's
// previous observation in the same epoch, hence the same iterators, and
// for such an access the full Algorithm 3 path also reduces to counting
// the observation (the invariant predict(ITP) == INDP), so the tree is
// the same either way.
//
// Delivery is by chunk: on_chunk() consumes a run of records with a
// single dispatch, and the engines call it through trace::Sink once per
// RunOptions::chunk_records records. Inside a chunk the per-record path
// is inlined, so no record costs a virtual call.
#pragma once

#include <cstdint>
#include <vector>

#include "foray/looptree.h"
#include "trace/record.h"
#include "trace/sink.h"

namespace foray::core {

struct ExtractorOptions {
  /// Use hash-table indices for loop-child and reference lookup (the
  /// paper's constant-average-complexity claim); false = linear scans
  /// (the E8 ablation baseline).
  bool hash_index = true;
};

class Extractor final : public trace::Sink {
 public:
  explicit Extractor(ExtractorOptions opts = {});

  // trace::Sink
  void on_chunk(const trace::Record* r, size_t n) override {
    records_ += n;
    for (size_t i = 0; i < n; ++i) process(r[i]);
  }

  const LoopTree& tree() const { return tree_; }
  LoopTree& tree() { return tree_; }

  // -- stream statistics ------------------------------------------------

  uint64_t records_processed() const { return records_; }
  uint64_t accesses_processed() const { return accesses_; }
  uint64_t checkpoints_processed() const { return checkpoints_; }

  /// Analyzer working-set size in bytes (constant w.r.t. trace length).
  size_t state_bytes() const { return tree_.state_bytes(); }

 private:
  /// One record through Algorithm 2 (records_ already counted).
  void process(const trace::Record& r) {
    switch (r.type()) {
      case trace::RecordType::Checkpoint:
        ++checkpoints_;
        ++epoch_;
        on_checkpoint(r);
        break;
      case trace::RecordType::Access:
        ++accesses_;
        on_access(r);
        break;
      case trace::RecordType::Call:
      case trace::RecordType::Ret:
        // Function boundaries do not affect the loop tree: the model
        // treats functions as inlined (§4).
        break;
    }
  }

  void on_checkpoint(const trace::Record& r);
  void on_access(const trace::Record& r);
  void rebuild_iters();
  RefNode* lookup_ref(uint32_t instr);

  ExtractorOptions opts_;
  LoopTree tree_;
  LoopNode* cur_;
  /// Iterator values of the current loop path, innermost first. Only a
  /// checkpoint changes them: BodyBegin of the current loop updates
  /// iter_buf_[0] in place, and a change of loop path (LoopEnter,
  /// LoopExit, or a BodyBegin that pops past loops whose exits the trace
  /// omits) marks the buffer stale, to be rebuilt at the next access.
  std::vector<int64_t> iter_buf_;
  bool iters_valid_ = false;
  /// Checkpoint counter; two accesses in the same epoch provably see
  /// identical iterator values (used for the duplicate fast path).
  uint64_t epoch_ = 0;
  /// Direct-indexed reference cache. Synthetic instruction addresses are
  /// dense (kInstrBase + 4*node_id), so `(instr - base) / 4` indexes a
  /// flat table; an entry is valid only for the context it was filled
  /// under (owner == cur_), which makes shadowing across call contexts
  /// self-invalidating. Adjacent source expressions get adjacent
  /// entries, so a loop body's whole working set shares cache lines.
  struct RefCacheEntry {
    LoopNode* owner = nullptr;
    RefNode* ref = nullptr;
  };
  std::vector<RefCacheEntry> ref_cache_;
  uint64_t records_ = 0;
  uint64_t accesses_ = 0;
  uint64_t checkpoints_ = 0;
};

}  // namespace foray::core
