#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "sim/memory.h"

namespace foray::sim {
namespace {

TEST(Memory, GlobalAllocationSequential) {
  Memory m;
  uint32_t a = m.alloc_global(4);
  uint32_t b = m.alloc_global(4);
  EXPECT_EQ(a, Memory::kGlobalBase);
  EXPECT_EQ(b, a + 4);
}

TEST(Memory, GlobalAlignmentRespected) {
  Memory m;
  m.alloc_global(1, 1);
  uint32_t b = m.alloc_global(4, 4);
  EXPECT_EQ(b % 4, 0u);
}

TEST(Memory, GlobalsZeroInitialized) {
  Memory m;
  uint32_t a = m.alloc_global(16);
  for (int i = 0; i < 16; i += 4) EXPECT_EQ(m.load_int(a + i, 4), 0);
}

TEST(Memory, IntRoundTripAllWidths) {
  Memory m;
  uint32_t a = m.alloc_global(16);
  m.store_int(a, 4, -123456);
  EXPECT_EQ(m.load_int(a, 4), -123456);
  m.store_int(a + 4, 2, -77);
  EXPECT_EQ(m.load_int(a + 4, 2), -77);
  m.store_int(a + 8, 1, -5);
  EXPECT_EQ(m.load_int(a + 8, 1), -5);
}

TEST(Memory, NarrowStoreTruncates) {
  Memory m;
  uint32_t a = m.alloc_global(4);
  m.store_int(a, 1, 0x1ff);  // truncates to 0xff == -1 signed
  EXPECT_EQ(m.load_int(a, 1), -1);
}

TEST(Memory, FloatRoundTrip) {
  Memory m;
  uint32_t a = m.alloc_global(4);
  m.store_float(a, 3.25);
  EXPECT_DOUBLE_EQ(m.load_float(a), 3.25);
}

TEST(Memory, RodataInterning) {
  Memory m;
  uint32_t a = m.alloc_rodata("abc");
  EXPECT_EQ(m.load_byte(a), 'a');
  EXPECT_EQ(m.load_byte(a + 2), 'c');
  EXPECT_EQ(m.load_byte(a + 3), 0);  // NUL terminated
}

TEST(Memory, HeapAllocationAligned) {
  Memory m;
  uint32_t a = m.heap_alloc(5);
  uint32_t b = m.heap_alloc(8);
  EXPECT_EQ(a, Memory::kHeapBase);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_GE(b, a + 5);
}

TEST(Memory, HeapExhaustionThrows) {
  Memory m;
  EXPECT_THROW(m.heap_alloc(Memory::kHeapCapacity + 1), RuntimeError);
  m.heap_alloc(Memory::kHeapCapacity - 64);
  EXPECT_THROW(m.heap_alloc(100), RuntimeError);
  EXPECT_NO_THROW(m.heap_alloc(64));
}

TEST(Memory, StackAllocGrowsDown) {
  Memory m;
  uint32_t sp0 = m.sp();
  uint32_t a = m.stack_alloc(16);
  EXPECT_LT(a, sp0);
  uint32_t b = m.stack_alloc(4);
  EXPECT_LT(b, a);
}

TEST(Memory, StackStoreLoad) {
  Memory m;
  uint32_t a = m.stack_alloc(8);
  m.store_int(a, 4, 42);
  m.store_int(a + 4, 4, 43);
  EXPECT_EQ(m.load_int(a, 4), 42);
  EXPECT_EQ(m.load_int(a + 4, 4), 43);
}

TEST(Memory, StackOverflowThrows) {
  Memory m;
  EXPECT_THROW(m.stack_alloc(Memory::kStackCapacity + 4), RuntimeError);
  EXPECT_NO_THROW(m.stack_alloc(Memory::kStackCapacity));
  EXPECT_THROW(m.stack_alloc(4), RuntimeError);
}

TEST(Memory, WholeStackWindowReadsZeroAndKeepsWhatWasWritten) {
  // The store backs the window by use: touching deeper addresses grows
  // it, and every byte not written reads as zero wherever it lies.
  Memory m;
  const uint32_t top = Memory::kStackTop - 4;
  const uint32_t bottom = Memory::kStackTop - Memory::kStackCapacity;
  m.store_int(top, 4, 0x12345678);
  EXPECT_EQ(m.load_int(top - 4, 4), 0);
  EXPECT_EQ(m.load_int(Memory::kStackTop - 70000, 4), 0);
  EXPECT_EQ(m.load_int(top, 4), 0x12345678);
  EXPECT_EQ(m.load_int(bottom, 4), 0);
  m.store_int(bottom, 2, -3);
  EXPECT_EQ(m.load_int(bottom, 2), -3);
  EXPECT_EQ(m.load_int(top, 4), 0x12345678);
  // A range that straddles either end of the window is unmapped.
  EXPECT_THROW(m.load_int(bottom - 2, 4), RuntimeError);
  EXPECT_THROW(m.load_int(Memory::kStackTop - 2, 4), RuntimeError);
}

/// The digest as a walk over every region, the stack as its whole
/// zero-filled window once touched: what Memory::digest() computes
/// however much of the window is backed.
uint64_t whole_window_digest(const std::string& rodata,
                             const std::vector<uint8_t>& globals,
                             const std::vector<uint8_t>& heap,
                             const std::vector<uint8_t>* stack, uint32_t brk,
                             uint32_t sp) {
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
  auto region = [&](const uint8_t* p, size_t n) {
    mix_u32(static_cast<uint32_t>(n));
    mix(p, n);
  };
  region(reinterpret_cast<const uint8_t*>(rodata.data()), rodata.size());
  region(globals.data(), globals.size());
  region(heap.data(), heap.size());
  if (stack == nullptr) {
    region(nullptr, 0);
  } else {
    region(stack->data(), stack->size());
  }
  mix_u32(brk);
  mix_u32(sp);
  return h;
}

TEST(Memory, DigestHashesTheWholeStackWindowOnceTouched) {
  Memory m;
  m.alloc_rodata("hi");  // "hi\0" padded to 4 bytes
  const uint32_t g = m.alloc_global(8);
  m.store_int(g, 4, 7);
  m.heap_alloc(3);
  const std::string rodata("hi\0\0", 4);
  std::vector<uint8_t> globals(8, 0);
  globals[0] = 7;
  const std::vector<uint8_t> heap(3, 0);
  const uint32_t brk = 3;
  EXPECT_EQ(m.digest(), whole_window_digest(rodata, globals, heap, nullptr,
                                            brk, Memory::kStackTop));

  const uint32_t a = m.stack_alloc(8);
  m.store_int(a, 4, -2);
  std::vector<uint8_t> stack(Memory::kStackCapacity, 0);
  const size_t off = a - (Memory::kStackTop - Memory::kStackCapacity);
  std::memset(&stack[off], 0xff, 4);
  stack[off] = 0xfe;
  const uint64_t want =
      whole_window_digest(rodata, globals, heap, &stack, brk, a);
  EXPECT_EQ(m.digest(), want);
  // Backing more of the window changes nothing the digest sees.
  EXPECT_EQ(m.load_int(Memory::kStackTop - Memory::kStackCapacity, 1), 0);
  EXPECT_EQ(m.digest(), want);
}

TEST(Memory, SpRestore) {
  Memory m;
  uint32_t sp0 = m.sp();
  m.stack_alloc(64);
  m.set_sp(sp0);
  EXPECT_EQ(m.sp(), sp0);
}

TEST(Memory, UnmappedAccessThrows) {
  Memory m;
  EXPECT_THROW(m.load_int(0x00000010, 4), RuntimeError);
  EXPECT_THROW(m.load_int(Memory::kGlobalBase, 4), RuntimeError);  // nothing allocated
  EXPECT_THROW(m.load_int(Memory::kHeapBase + 100, 4), RuntimeError);
}

TEST(Memory, OutOfBoundsGlobalThrows) {
  Memory m;
  uint32_t a = m.alloc_global(4);
  EXPECT_NO_THROW(m.load_int(a, 4));
  EXPECT_THROW(m.load_int(a + 4, 4), RuntimeError);
}

TEST(Memory, StackAddressesNearPaperRange) {
  // The paper's example traces show stack addresses like 0x7fff5934;
  // our stack segment lives in the same neighborhood.
  Memory m;
  uint32_t a = m.stack_alloc(4);
  EXPECT_GT(a, 0x7f000000u);
  EXPECT_LT(a, 0x80000000u);
}

}  // namespace
}  // namespace foray::sim
