#include "sim/classify_sink.h"

#include <algorithm>

#include "sim/global_layout.h"
#include "sim/memory.h"
#include "util/status.h"

namespace foray::sim {

namespace {

uint32_t align_up(uint32_t v, uint32_t align) {
  return (v + align - 1) / align * align;
}

}  // namespace

std::vector<GlobalRegion> global_regions(const minic::Program& prog) {
  std::vector<GlobalRegion> out;
  out.reserve(prog.globals.size());
  uint32_t offset = 0;
  for (const minic::VarDecl& d : prog.globals) {
    const GlobalShape shape = global_shape(d);
    FORAY_CHECK(shape.align > 0, "global with zero-sized element type");
    offset = align_up(offset, shape.align);
    out.push_back(
        GlobalRegion{d.name, Memory::kGlobalBase + offset, shape.bytes});
    offset += shape.bytes;
  }
  return out;
}

ClassifyingSink::ClassifyingSink(std::vector<Region> regions, int num_buffers)
    : regions_(std::move(regions)),
      buffers_(static_cast<size_t>(std::max(num_buffers, 0))) {
  std::sort(regions_.begin(), regions_.end(),
            [](const Region& a, const Region& b) { return a.base < b.base; });
  for (size_t i = 1; i < regions_.size(); ++i) {
    FORAY_CHECK(regions_[i - 1].base + regions_[i - 1].size <=
                    regions_[i].base,
                "ClassifyingSink: overlapping regions");
  }
  for (const Region& r : regions_) {
    FORAY_CHECK(r.buffer < num_buffers, "ClassifyingSink: buffer id range");
  }
}

ClassifyingSink::Tally* ClassifyingSink::innermost_tally(int buffer) {
  for (size_t i = stack_.back().first; i < tallies_.size(); ++i) {
    if (tallies_[i].buffer == buffer) return &tallies_[i];
  }
  tallies_.push_back(Tally{buffer, 0, 0, 0, 0});
  return &tallies_.back();
}

const ClassifyingSink::Region* ClassifyingSink::region_of(uint32_t addr) {
  // Consecutive accesses mostly stay in one array: try the last hit first.
  if (last_hit_ < regions_.size() &&
      addr - regions_[last_hit_].base < regions_[last_hit_].size) {
    return &regions_[last_hit_];
  }
  // Last region with base <= addr, then a range check.
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), addr,
      [](uint32_t a, const Region& reg) { return a < reg.base; });
  if (it == regions_.begin()) return nullptr;
  --it;
  if (addr - it->base >= it->size) return nullptr;
  last_hit_ = static_cast<size_t>(it - regions_.begin());
  return &*it;
}

void ClassifyingSink::classify(const trace::Record& r) {
  switch (r.type()) {
    case trace::RecordType::Checkpoint:
      switch (r.cp()) {
        case trace::CheckpointType::LoopEnter:
          stack_.push_back(
              Frame{r.loop_id(), static_cast<uint32_t>(tallies_.size())});
          break;
        case trace::CheckpointType::LoopExit:
          // Unwinding (break / return) can exit several loops with one
          // record each; pop down to the matching frame.
          while (!stack_.empty()) {
            const bool match = stack_.back().loop_id == r.loop_id();
            pop_frame();
            if (match) break;
          }
          break;
        case trace::CheckpointType::BodyBegin:
        case trace::CheckpointType::BodyEnd:
          break;
      }
      return;
    case trace::RecordType::Access:
      break;
    case trace::RecordType::Call:
    case trace::RecordType::Ret:
      return;
  }
  if (r.kind() != trace::AccessKind::Data) return;

  const Region* hit = region_of(r.addr());
  if (hit == nullptr) {
    ++unclassified_;
    return;
  }
  const Region& reg = *hit;
  if (reg.buffer < 0) {
    ++unpaired_main_;
    return;
  }
  // Paired traffic is attributed to the innermost active loop and
  // classified when that loop instance completes; top-level accesses
  // (outside any loop) can never be a transfer loop, so they are program
  // traffic immediately.
  if (stack_.empty()) {
    BufferCounters& b = buffers_[static_cast<size_t>(reg.buffer)];
    (reg.is_spm ? b.spm_accesses : b.main_accesses) += 1;
    return;
  }
  Tally* t = innermost_tally(reg.buffer);
  if (reg.is_spm) {
    (r.is_write() ? t->spm_writes : t->spm_reads) += 1;
  } else {
    (r.is_write() ? t->main_writes : t->main_reads) += 1;
  }
}

void ClassifyingSink::account(const Tally& t) {
  BufferCounters& b = buffers_[static_cast<size_t>(t.buffer)];
  const uint64_t spm = t.spm_reads + t.spm_writes;
  const uint64_t main = t.main_reads + t.main_writes;
  if (t.main_reads == t.spm_writes && spm > 0 && t.spm_reads == 0 &&
      t.main_writes == 0 && t.main_reads > 0) {
    // DRAM -> SPM byte-copy loop: one fill event.
    b.fill_events += 1;
    b.fill_bytes += t.spm_writes;
    b.transfer_words += (t.spm_writes + 3) / 4;
    return;
  }
  if (t.spm_reads == t.main_writes && main > 0 && t.spm_writes == 0 &&
      t.main_reads == 0 && t.spm_reads > 0) {
    // SPM -> DRAM byte-copy loop: one write-back event.
    b.writeback_events += 1;
    b.writeback_bytes += t.main_writes;
    b.transfer_words += (t.main_writes + 3) / 4;
    return;
  }
  b.spm_accesses += spm;
  b.main_accesses += main;
}

void ClassifyingSink::pop_frame() {
  const size_t first = stack_.back().first;
  for (size_t i = first; i < tallies_.size(); ++i) account(tallies_[i]);
  tallies_.resize(first);
  stack_.pop_back();
}

void ClassifyingSink::finalize() {
  if (finalized_) return;
  finalized_ = true;
  while (!stack_.empty()) pop_frame();
}

uint64_t ClassifyingSink::total_spm_accesses() {
  finalize();
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b.spm_accesses;
  return n;
}

uint64_t ClassifyingSink::total_main_accesses() {
  finalize();
  uint64_t n = unpaired_main_;
  for (const auto& b : buffers_) n += b.main_accesses;
  return n;
}

uint64_t ClassifyingSink::total_transfer_words() {
  finalize();
  uint64_t n = 0;
  for (const auto& b : buffers_) n += b.transfer_words;
  return n;
}

}  // namespace foray::sim
