#include "sim/memory.h"

#include <algorithm>
#include <cstring>

#include "util/strings.h"

namespace foray::sim {

namespace {
uint32_t align_up(uint32_t v, uint32_t align) {
  return (v + align - 1) & ~(align - 1);
}

/// The stack store's first size; it doubles from here.
constexpr uint32_t kMinStackStore = 4096;
}  // namespace

uint32_t Memory::alloc_global(uint32_t size, uint32_t align) {
  uint32_t offset = align_up(static_cast<uint32_t>(globals_.size()), align);
  globals_.resize(offset + size, 0);
  return kGlobalBase + offset;
}

uint32_t Memory::alloc_rodata(const std::string& bytes) {
  uint32_t offset = static_cast<uint32_t>(rodata_.size());
  rodata_.insert(rodata_.end(), bytes.begin(), bytes.end());
  rodata_.push_back(0);  // NUL terminator
  // Keep subsequent blobs aligned for safe word access.
  rodata_.resize(align_up(static_cast<uint32_t>(rodata_.size()), 4), 0);
  return kRodataBase + offset;
}

uint32_t Memory::heap_alloc(uint32_t size) {
  uint32_t offset = align_up(heap_brk_, 8);
  if (size > kHeapCapacity || offset > kHeapCapacity - size) {
    throw RuntimeError("simulated heap exhausted (malloc of " +
                           std::to_string(size) + " bytes)",
                       util::ErrorCode::kResourceExhausted);
  }
  heap_brk_ = offset + size;
  if (heap_.size() < heap_brk_) heap_.resize(heap_brk_, 0);
  return kHeapBase + offset;
}

void Memory::set_sp(uint32_t sp) {
  if (sp > kStackTop || kStackTop - sp > kStackCapacity) {
    throw RuntimeError("simulated stack overflow",
                       util::ErrorCode::kResourceExhausted);
  }
  sp_ = sp;
}

uint32_t Memory::stack_alloc(uint32_t size, uint32_t align) {
  uint32_t new_sp = sp_ - size;
  new_sp &= ~(align - 1);
  set_sp(new_sp);
  return new_sp;
}

uint8_t* Memory::resolve_slow(uint32_t addr, uint32_t size) {
  const uint64_t end = static_cast<uint64_t>(addr) + size;
  if (addr < kStackBase || end > kStackTop) {
    throw RuntimeError("access to unmapped address 0x" + util::to_hex(addr) +
                       " (" + std::to_string(size) + " bytes)");
  }
  // Below the backed part of the stack window: double the store until it
  // reaches `addr`, keeping the bytes above at the top of the new store.
  uint32_t bytes = std::max<uint32_t>(stack_.size(), kMinStackStore);
  while (kStackTop - bytes > addr) bytes *= 2;
  bytes = std::min(bytes, kStackCapacity);
  std::vector<uint8_t> grown(bytes, 0);
  std::copy(stack_.begin(), stack_.end(), grown.end() - stack_.size());
  stack_.swap(grown);
  stack_lo_ = kStackTop - bytes;
  return stack_.data() + (addr - stack_lo_);
}

uint64_t Memory::digest() const {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  auto mix_u32 = [&](uint32_t v) {
    uint8_t b[4];
    std::memcpy(b, &v, 4);
    mix(b, 4);
  };
  auto mix_region = [&](const std::vector<uint8_t>& r) {
    mix_u32(static_cast<uint32_t>(r.size()));
    mix(r.data(), r.size());
  };
  mix_region(rodata_);
  mix_region(globals_);
  mix_region(heap_);
  // The stack as the whole zero-filled window once touched, however much
  // of it is backed: hashing a zero byte only multiplies by the prime, so
  // the unbacked bytes are one power of it.
  if (stack_.empty()) {
    mix_u32(0);
  } else {
    mix_u32(kStackCapacity);
    for (uint64_t n = kStackCapacity - stack_.size(), p = 0x100000001b3ull;
         n != 0; n >>= 1, p *= p) {
      if (n & 1) h *= p;
    }
    mix(stack_.data(), stack_.size());
  }
  mix_u32(heap_brk_);
  mix_u32(sp_);
  return h;
}

}  // namespace foray::sim
