// The dynamic loop/reference tree of Algorithm 2.
//
// Nodes are created lazily as checkpoints stream by. The tree is
// *call-context sensitive*: the same source loop reached through two
// different dynamic paths (e.g. a function called from two places) yields
// two distinct LoopNodes — this is exactly the paper's "functions appear
// to be inlined in our model" behavior (§4, inter-function optimizations).
//
// Every node maintains the normalized iteration counter the paper
// describes ("each loop node maintains the current value of a variable
// that counts the number of loop iterations"); these counters are the
// iterator values consumed by Algorithm 3.
//
// Indices are insert-only flat hash tables (util/flat_hash.h) — the
// child and reference lookups run once per checkpoint / per access and
// were the analyzer's hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "foray/affine.h"
#include "trace/record.h"
#include "util/flat_hash.h"

namespace foray::core {

struct RefNode;

class LoopNode {
 public:
  /// Distinct addresses a reference's footprint set holds; past it the
  /// footprint is reported as saturated (a lower bound).
  static constexpr size_t kFootprintCap = 1u << 20;

  LoopNode(int loop_id, LoopNode* parent, bool hash_index)
      : loop_id_(loop_id),
        parent_(parent),
        depth_(parent == nullptr ? 0 : parent->depth_ + 1),
        hash_index_(hash_index) {}

  int loop_id() const { return loop_id_; }
  LoopNode* parent() const { return parent_; }
  /// Number of loops enclosing references attached here (root = 0).
  int depth() const { return depth_; }

  // -- Algorithm 2 state ------------------------------------------------

  int64_t cur_iter = -1;       ///< normalized iterator value (this entry)
  int64_t max_trip = 0;        ///< max iterations over all entries
  uint64_t entries = 0;        ///< times this loop was entered
  uint64_t total_iterations = 0;

  // -- children / references ---------------------------------------------

  /// Child for `site_id`, creating it on first sight.
  LoopNode* get_or_create_child(int site_id) {
    if (LoopNode* found = find_child(site_id)) return found;
    return create_child(site_id);
  }
  /// Child for `site_id` or nullptr. Inline — this runs per checkpoint.
  LoopNode* find_child(int site_id) {
    if (hash_index_) {
      LoopNode** found = child_index_.find(static_cast<uint32_t>(site_id));
      return found == nullptr ? nullptr : *found;
    }
    return find_child_linear(site_id);
  }

  /// Reference node for `instr`, creating it on first sight. Sets
  /// `*created` when a new node was made.
  RefNode* get_or_create_ref(uint32_t instr, bool* created) {
    if (RefNode* found = find_ref(instr)) {
      if (created != nullptr) *created = false;
      return found;
    }
    if (created != nullptr) *created = true;
    return create_ref(instr);
  }
  /// Reference for `instr` or nullptr. Inline — this runs per access.
  RefNode* find_ref(uint32_t instr) {
    if (hash_index_) {
      RefNode** found = ref_index_.find(instr);
      return found == nullptr ? nullptr : *found;
    }
    return find_ref_linear(instr);
  }

  const std::vector<std::unique_ptr<LoopNode>>& children() const {
    return children_;
  }
  const std::vector<std::unique_ptr<RefNode>>& refs() const { return refs_; }

  /// Approximate heap bytes held by this node (excluding children),
  /// used by the constant-space ablation (E7/E9).
  size_t state_bytes() const;

 private:
  LoopNode* create_child(int site_id);
  LoopNode* find_child_linear(int site_id);
  RefNode* create_ref(uint32_t instr);
  RefNode* find_ref_linear(uint32_t instr);

  int loop_id_;
  LoopNode* parent_;
  int depth_;
  bool hash_index_;

  std::vector<std::unique_ptr<LoopNode>> children_;
  util::FlatMap32<LoopNode*> child_index_;
  std::vector<std::unique_ptr<RefNode>> refs_;
  util::FlatMap32<RefNode*> ref_index_;
};

/// Per-reference dynamic information: identity, traffic counters, the
/// affine-recovery state of Algorithm 3 and the footprint set used by the
/// Step 4 filter and Table III.
struct RefNode {
  RefNode(uint32_t instr_id, LoopNode* owner_node)
      : instr(instr_id), owner(owner_node) {}

  // Hot-first layout: everything the extractor touches per access
  // (identity, counters, the affine fast-path head) packs into the
  // node's first cache lines; bookkeeping read at model-build time
  // trails at the end.
  uint32_t instr;
  uint8_t access_size = 0;
  bool has_read = false;
  bool has_write = false;
  trace::AccessKind kind = trace::AccessKind::Data;

  uint64_t exec_count = 0;
  /// Extractor epoch (checkpoint count) of the last observation; lets
  /// the extractor prove "same iterators as my previous execution"
  /// without comparing iterator vectors.
  uint64_t last_epoch = ~0ull;
  AffineState affine;

  void note_address(uint32_t addr) {
    // One-entry MRU: the dominant patterns — a scalar touched every
    // iteration, the load/store pair of a compound assignment — hit the
    // same address back to back.
    if (addr == last_addr_) return;
    last_addr_ = addr;
    if (footprint_.size() < LoopNode::kFootprintCap) {
      footprint_.insert(addr);
    } else if (!footprint_.contains(addr)) {
      saturated_ = true;
    }
  }
  uint64_t footprint_size() const { return footprint_.size(); }
  bool footprint_saturated() const { return saturated_; }
  const util::PagedAddrSet& footprint() const { return footprint_; }

  LoopNode* owner;

 private:
  uint64_t last_addr_ = ~0ull;  ///< out of the u32 range = no MRU yet
  util::PagedAddrSet footprint_;
  bool saturated_ = false;
};

/// Owns the root node and the indexing policy (hash-table indices per the
/// paper's complexity argument, or linear scans for the E8 ablation).
class LoopTree {
 public:
  explicit LoopTree(bool hash_index = true)
      : root_(std::make_unique<LoopNode>(-1, nullptr, hash_index)),
        hash_index_(hash_index) {}

  LoopNode* root() { return root_.get(); }
  const LoopNode* root() const { return root_.get(); }
  bool hash_index() const { return hash_index_; }

  /// Total heap footprint of all nodes — the analyzer's working-set size
  /// (constant in trace length, linear in distinct loop contexts).
  size_t state_bytes() const;

  /// Total loop nodes / reference nodes in the tree.
  int loop_node_count() const;
  int ref_node_count() const;

 private:
  std::unique_ptr<LoopNode> root_;
  bool hash_index_;
};

/// Depth-first visit of all loop nodes (pre-order, root included).
template <typename Fn>
void for_each_node(const LoopNode& node, Fn&& fn) {
  fn(node);
  for (const auto& child : node.children()) {
    for_each_node(*child, fn);
  }
}

}  // namespace foray::core
