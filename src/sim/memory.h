// Simulated 32-bit address space.
//
// Mirrors the memory map a SimpleScalar-profiled binary would see, so the
// addresses appearing in traces look like the paper's (globals in low
// memory, stack near 0x7fffffff):
//
//   rodata   0x08000000+   string literals
//   globals  0x10000000+   global variables
//   heap     0x20000000+   malloc arena (bump allocator), 16 MiB
//   stack    ..0x7fffff00  grows downward, 4 MiB
//
// The map and its caps (plus the cap on a run's output) are the fixed
// machine: constants below that both engines and the static checker
// (staticforay) read, so the checker's bounds describe the machine that
// runs.
//
// All loads/stores are bounds- and alignment-tolerant (byte-addressed);
// touching unmapped memory raises RuntimeError, which the interpreter
// converts into a failed run.
#pragma once

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/inline.h"
#include "util/status.h"

namespace foray::sim {

/// Raised for simulated-program faults (OOB access, overflow, bad free).
/// Carries the failure class the fault maps to: a wild pointer is the
/// program's fault (kInvalidInput, the default), a tripped budget is
/// kResourceExhausted / kDeadlineExceeded / kCancelled. execute_guarded
/// preserves the code on the resulting Status.
class RuntimeError : public std::runtime_error {
 public:
  explicit RuntimeError(
      const std::string& what,
      util::ErrorCode code = util::ErrorCode::kInvalidInput)
      : std::runtime_error(what), code_(code) {}
  util::ErrorCode code() const { return code_; }

 private:
  util::ErrorCode code_;
};

class Memory {
 public:
  static constexpr uint32_t kRodataBase = 0x08000000;
  static constexpr uint32_t kGlobalBase = 0x10000000;
  static constexpr uint32_t kHeapBase = 0x20000000;
  static constexpr uint32_t kStackTop = 0x7fffff00;
  static constexpr uint32_t kHeapCapacity = 1u << 24;   ///< malloc arena
  static constexpr uint32_t kStackCapacity = 1u << 22;  ///< below kStackTop
  /// printf/puts/putchar text one run may produce.
  static constexpr size_t kMaxOutputBytes = 1u << 24;

  // -- allocation -----------------------------------------------------------

  /// Allocate zero-initialized global storage; returns its address.
  uint32_t alloc_global(uint32_t size, uint32_t align = 4);

  /// Intern a read-only blob (string literal, incl. NUL); returns address.
  uint32_t alloc_rodata(const std::string& bytes);

  /// Bump-allocate from the heap (malloc). 8-byte aligned.
  uint32_t heap_alloc(uint32_t size);

  // -- stack ----------------------------------------------------------------

  uint32_t sp() const { return sp_; }
  void set_sp(uint32_t sp);
  /// Allocate `size` bytes below the current stack pointer.
  uint32_t stack_alloc(uint32_t size, uint32_t align = 4);

  // -- typed access ---------------------------------------------------------
  //
  // The loads/stores below run once per simulated memory operation —
  // tens of millions of times per profiling run — so they live in the
  // header and are forced inline into both engines' hot loops; an
  // out-of-line call here is directly visible in Mrec/s.

  /// Load a `size`-byte integer (1, 2 or 4), sign-extending.
  FORAY_ALWAYS_INLINE int64_t load_int(uint32_t addr, uint32_t size) {
    const uint8_t* p = resolve(addr, size);
    switch (size) {
      case 1: {
        int8_t v;
        std::memcpy(&v, p, 1);
        return v;
      }
      case 2: {
        int16_t v;
        std::memcpy(&v, p, 2);
        return v;
      }
      case 4: {
        int32_t v;
        std::memcpy(&v, p, 4);
        return v;
      }
      default:
        throw RuntimeError("unsupported load width " + std::to_string(size));
    }
  }

  FORAY_ALWAYS_INLINE void store_int(uint32_t addr, uint32_t size,
                                     int64_t value) {
    uint8_t* p = resolve(addr, size);
    switch (size) {
      case 1: {
        const int8_t v = static_cast<int8_t>(value);
        std::memcpy(p, &v, 1);
        break;
      }
      case 2: {
        const int16_t v = static_cast<int16_t>(value);
        std::memcpy(p, &v, 2);
        break;
      }
      case 4: {
        const int32_t v = static_cast<int32_t>(value);
        std::memcpy(p, &v, 4);
        break;
      }
      default:
        throw RuntimeError("unsupported store width " + std::to_string(size));
    }
  }

  FORAY_ALWAYS_INLINE double load_float(uint32_t addr) {
    const uint8_t* p = resolve(addr, 4);
    float v;
    std::memcpy(&v, p, 4);
    return static_cast<double>(v);
  }

  FORAY_ALWAYS_INLINE void store_float(uint32_t addr, double value) {
    uint8_t* p = resolve(addr, 4);
    const float v = static_cast<float>(value);
    std::memcpy(p, &v, 4);
  }

  FORAY_ALWAYS_INLINE uint8_t load_byte(uint32_t addr) {
    return *resolve(addr, 1);
  }

  FORAY_ALWAYS_INLINE void store_byte(uint32_t addr, uint8_t value) {
    *resolve(addr, 1) = value;
  }

  /// FNV-1a hash over every mapped region plus the allocator state
  /// (sp, heap break). Two runs that leave the simulated machine in the
  /// same state digest identically; the engine-equivalence harness uses
  /// this to compare final memory images without exposing the regions.
  uint64_t digest() const;

 private:
  static constexpr uint32_t kStackBase = kStackTop - kStackCapacity;

  /// Maps a simulated address range to host memory. Checked in the
  /// layout's hot order; a stack access below the part of the stack
  /// window backed so far takes the out-of-line path, which grows the
  /// backing store. Range ends are computed in 64 bits: a simulated
  /// address near 2^32 must fault, not wrap past a region check into
  /// host memory.
  FORAY_ALWAYS_INLINE uint8_t* resolve(uint32_t addr, uint32_t size) {
    const uint64_t end = static_cast<uint64_t>(addr) + size;
    if (addr >= stack_lo_ && end <= kStackTop) {
      return stack_.data() + (addr - stack_lo_);
    }
    if (addr >= kRodataBase && end <= kRodataBase + rodata_.size()) {
      return rodata_.data() + (addr - kRodataBase);
    }
    if (addr >= kGlobalBase && end <= kGlobalBase + globals_.size()) {
      return globals_.data() + (addr - kGlobalBase);
    }
    if (addr >= kHeapBase && end <= kHeapBase + heap_brk_) {
      return heap_.data() + (addr - kHeapBase);
    }
    return resolve_slow(addr, size);
  }

  /// The stack window below the backed part (grows the store, whose new
  /// bytes read as zero), or a RuntimeError for an unmapped range.
  uint8_t* resolve_slow(uint32_t addr, uint32_t size);

  std::vector<uint8_t> rodata_;
  std::vector<uint8_t> globals_;
  std::vector<uint8_t> heap_;
  /// Backing store for [stack_lo_, kStackTop), the top of the stack
  /// window: empty until the first stack access, then grown downward by
  /// doubling as deeper addresses are touched.
  std::vector<uint8_t> stack_;
  uint32_t stack_lo_ = kStackTop;
  uint32_t heap_brk_ = 0;  ///< bytes of heap handed out
  uint32_t sp_ = kStackTop;
};

}  // namespace foray::sim
