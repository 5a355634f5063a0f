// Trace records — the interface between the instruction-set simulator
// (profiling, Step 2 of Algorithm 1) and the FORAY-GEN analyzer.
//
// A trace is a flat stream of records in execution order:
//  - Checkpoint records delimit loop activity (Step 1's annotations). The
//    paper emits three checkpoint kinds and infers loop exit; we emit an
//    explicit LoopExit as well (the simulator always knows), which makes
//    loop-tree reconstruction exact under break/return unwinding.
//  - Access records are the "Instr: 4002a0 addr: 7fff5934 wr" lines of
//    Figure 4(c): instruction address, access address, size, direction.
//  - Call/Ret records mark user-function boundaries; the analyzer ignores
//    them, so the fused Phase I pass elides them along with Scalar
//    accesses. Stored traces always carry them.
//
// Records are a packed 12-byte tagged layout: one 32-bit payload word
// (instr / loop id / func id), the access address, a tag byte carrying
// the type and per-type flags, and the access size. Traces routinely run
// to millions of records, so the difference between this and a naively
// padded struct is the difference between a chunk fitting in L1 or not —
// the chunked transport (trace::Sink::on_chunk) moves records in bulk
// and the density is what makes that worthwhile.
#pragma once

#include <cstdint>
#include <type_traits>

namespace foray::trace {

enum class CheckpointType : uint8_t {
  LoopEnter,  ///< about to evaluate a loop for the first time (this entry)
  BodyBegin,  ///< an iteration's body is starting
  BodyEnd,    ///< an iteration's body finished normally (or via continue)
  LoopExit,   ///< the loop terminated (normal exit, break, or unwinding)
};

/// Provenance of a memory access, used only for statistics (Table III).
enum class AccessKind : uint8_t {
  Data,    ///< array element / pointer dereference
  /// Direct scalar variable access (register-like traffic): a global's
  /// or a frame slot's address. Most records of every trace; the fused
  /// Phase I pass elides them when they cannot reach a model
  /// (sim::RunOptions::elide_below_bases), traces never do.
  Scalar,
  System,  ///< performed inside an intrinsic ("system library") call
};

enum class RecordType : uint8_t { Checkpoint, Access, Call, Ret };

class Record {
 public:
  Record() = default;

  // Tag layout (one byte): bits 7..6 = RecordType; the low bits are
  // per-type. Checkpoint: bits 1..0 = CheckpointType. Access: bit 2 =
  // write, bits 1..0 = AccessKind. Call/Ret: low bits unused.
  RecordType type() const { return static_cast<RecordType>(tag_ >> 6); }
  CheckpointType cp() const {
    return static_cast<CheckpointType>(tag_ & 0x03);
  }
  AccessKind kind() const { return static_cast<AccessKind>(tag_ & 0x03); }
  bool is_write() const { return (tag_ & 0x04) != 0; }

  int32_t loop_id() const { return static_cast<int32_t>(word_); }
  uint32_t instr() const { return word_; }
  uint32_t addr() const { return addr_; }
  uint8_t size() const { return size_; }
  int32_t func_id() const { return static_cast<int32_t>(word_); }

  // -- factories ------------------------------------------------------------
  static Record checkpoint(CheckpointType t, int32_t loop) {
    Record r;
    r.tag_ = make_tag(RecordType::Checkpoint, static_cast<uint8_t>(t));
    r.word_ = static_cast<uint32_t>(loop);
    return r;
  }
  static Record access(uint32_t instr, uint32_t addr, uint8_t size,
                       bool is_write, AccessKind kind = AccessKind::Data) {
    Record r;
    r.tag_ = make_tag(RecordType::Access, static_cast<uint8_t>(
                                              static_cast<uint8_t>(kind) |
                                              (is_write ? 0x04 : 0x00)));
    r.word_ = instr;
    r.addr_ = addr;
    r.size_ = size;
    return r;
  }
  static Record call(int32_t func_id) {
    Record r;
    r.tag_ = make_tag(RecordType::Call, 0);
    r.word_ = static_cast<uint32_t>(func_id);
    return r;
  }
  static Record ret(int32_t func_id) {
    Record r;
    r.tag_ = make_tag(RecordType::Ret, 0);
    r.word_ = static_cast<uint32_t>(func_id);
    return r;
  }

  /// Factories zero every field a type does not use, so whole-record
  /// comparison is exactly the per-type payload comparison.
  bool operator==(const Record& o) const {
    return tag_ == o.tag_ && word_ == o.word_ && addr_ == o.addr_ &&
           size_ == o.size_;
  }

 private:
  static uint8_t make_tag(RecordType t, uint8_t low) {
    return static_cast<uint8_t>((static_cast<uint8_t>(t) << 6) | low);
  }

  uint32_t word_ = 0;  ///< instr (Access) / loop id (Checkpoint) / func id
  uint32_t addr_ = 0;  ///< data address accessed (Access only)
  uint8_t tag_ = static_cast<uint8_t>(static_cast<uint8_t>(RecordType::Access)
                                      << 6);
  uint8_t size_ = 0;   ///< access width in bytes (Access only)
  /// Explicitly zeroed tail padding: whole-record memcmp (the engine
  /// equivalence harness compares multi-million-record streams that way)
  /// must never see indeterminate bytes.
  uint16_t reserved_ = 0;
};

static_assert(sizeof(Record) == 12,
              "Record must stay a packed 12-byte tagged layout; the chunked "
              "trace transport and trace/io binary format budget for it");
static_assert(std::is_trivially_copyable_v<Record>,
              "chunks of Records are moved with bulk copies");

}  // namespace foray::trace
