#include "foray/extractor.h"

#include <algorithm>

#include "minic/ast.h"
#include "util/status.h"

namespace foray::core {

using trace::CheckpointType;
using trace::Record;
using trace::RecordType;

Extractor::Extractor(ExtractorOptions opts)
    : opts_(opts), tree_(opts.hash_index) {
  cur_ = tree_.root();
}

void Extractor::on_checkpoint(const Record& r) {
  switch (r.cp()) {
    case CheckpointType::LoopEnter: {
      cur_ = cur_->get_or_create_child(r.loop_id());
      cur_->cur_iter = -1;
      ++cur_->entries;
      iters_valid_ = false;
      break;
    }
    case CheckpointType::BodyBegin: {
      // Tolerate traces that omit exit records for early-terminated
      // loops (the paper's three-checkpoint encoding): pop to the loop.
      while (cur_->loop_id() != r.loop_id() && cur_->parent() != nullptr) {
        cur_ = cur_->parent();
        iters_valid_ = false;
      }
      FORAY_CHECK(cur_->loop_id() == r.loop_id(),
                  "body_begin checkpoint for a loop that never entered");
      ++cur_->cur_iter;
      ++cur_->total_iterations;
      if (cur_->cur_iter + 1 > cur_->max_trip) {
        cur_->max_trip = cur_->cur_iter + 1;
      }
      // Empty only at the root, which a hand-made trace can name.
      if (iters_valid_ && !iter_buf_.empty()) iter_buf_[0] = cur_->cur_iter;
      break;
    }
    case CheckpointType::BodyEnd:
      // Iteration counting keys off body_begin; nothing to update.
      break;
    case CheckpointType::LoopExit: {
      while (cur_->loop_id() != r.loop_id() && cur_->parent() != nullptr) {
        cur_ = cur_->parent();
      }
      FORAY_CHECK(cur_->parent() != nullptr,
                  "loop_exit checkpoint without matching loop_enter");
      cur_ = cur_->parent();
      iters_valid_ = false;
      break;
    }
  }
}

void Extractor::rebuild_iters() {
  // Gather current normalized iterator values, innermost first
  // (Algorithm 2 hands these to Algorithm 3).
  iter_buf_.clear();
  for (LoopNode* n = cur_; n->parent() != nullptr; n = n->parent()) {
    iter_buf_.push_back(n->cur_iter);
  }
  iters_valid_ = true;
}

RefNode* Extractor::lookup_ref(uint32_t instr) {
  // Instruction addresses outside the synthetic text segment (traces
  // fed by hand or from other tools) skip the cache.
  const uint32_t idx = (instr - minic::kInstrBase) / 4u;
  if (idx >= (1u << 22)) {
    return cur_->get_or_create_ref(instr, nullptr);
  }
  if (idx >= ref_cache_.size()) {
    ref_cache_.resize(std::max<size_t>(idx + 1, 256));
  }
  RefCacheEntry& entry = ref_cache_[idx];
  if (entry.owner != cur_) {
    entry.owner = cur_;
    entry.ref = cur_->get_or_create_ref(instr, nullptr);
  }
  return entry.ref;
}

void Extractor::on_access(const Record& r) {
  RefNode* ref = lookup_ref(r.instr());
  if (r.is_write()) {
    ref->has_write = true;
  } else {
    ref->has_read = true;
  }
  ++ref->exec_count;

  const int64_t ind = static_cast<int64_t>(r.addr());

  // Duplicate fast path: this reference already executed in the current
  // epoch (so every iterator provably equals its ITP) at the same
  // address with the same shape. Algorithm 3 then sees H = 0 and — by
  // the post-observation invariant predict(ITP) == INDP — a correct
  // prediction, so its entire effect is the observation count; the
  // address is in the footprint since the previous execution put it
  // there. This is the load/store pair of every compound assignment and
  // increment.
  if (ref->last_epoch == epoch_ && ref->affine.initialized &&
      ind == ref->affine.indp && r.size() == ref->access_size &&
      r.kind() == ref->kind) {
    ++ref->affine.observations;
    return;
  }
  ref->last_epoch = epoch_;
  ref->access_size = r.size();
  ref->kind = r.kind();
  ref->note_address(r.addr());

  if (!iters_valid_) rebuild_iters();
  observe_access(ref->affine, iter_buf_, ind);
}

}  // namespace foray::core
