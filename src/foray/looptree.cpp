#include "foray/looptree.h"

namespace foray::core {

LoopNode* LoopNode::create_child(int site_id) {
  auto child = std::make_unique<LoopNode>(site_id, this, hash_index_);
  LoopNode* raw = child.get();
  children_.push_back(std::move(child));
  if (hash_index_) {
    child_index_.insert(static_cast<uint32_t>(site_id), raw);
  }
  return raw;
}

LoopNode* LoopNode::find_child_linear(int site_id) {
  for (const auto& c : children_) {
    if (c->loop_id() == site_id) return c.get();
  }
  return nullptr;
}

RefNode* LoopNode::create_ref(uint32_t instr) {
  auto ref = std::make_unique<RefNode>(instr, this);
  RefNode* raw = ref.get();
  refs_.push_back(std::move(ref));
  if (hash_index_) ref_index_.insert(instr, raw);
  return raw;
}

RefNode* LoopNode::find_ref_linear(uint32_t instr) {
  for (const auto& r : refs_) {
    if (r->instr == instr) return r.get();
  }
  return nullptr;
}

size_t LoopNode::state_bytes() const {
  size_t bytes = sizeof(LoopNode);
  bytes += children_.capacity() * sizeof(void*);
  bytes += child_index_.heap_bytes();
  bytes += refs_.capacity() * sizeof(void*);
  bytes += ref_index_.heap_bytes();
  for (const auto& r : refs_) {
    bytes += sizeof(RefNode);
    bytes += r->affine.heap_bytes();
    bytes += r->footprint().heap_bytes();
  }
  return bytes;
}

size_t LoopTree::state_bytes() const {
  size_t total = 0;
  for_each_node(*root_, [&](const LoopNode& n) { total += n.state_bytes(); });
  return total;
}

int LoopTree::loop_node_count() const {
  int n = -1;  // exclude the synthetic root
  for_each_node(*root_, [&](const LoopNode&) { ++n; });
  return n;
}

int LoopTree::ref_node_count() const {
  int n = 0;
  for_each_node(*root_, [&](const LoopNode& node) {
    n += static_cast<int>(node.refs().size());
  });
  return n;
}

}  // namespace foray::core
