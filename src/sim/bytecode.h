// Bytecode for the MiniC fast engine.
//
// compile_program() lowers a checked, loop-annotated MiniC AST into a
// flat instruction vector that the dispatch-loop VM (sim/vm.h) executes.
// The compilation uses the same static variable resolution as the AST
// interpreter (sim/resolver.h), so frame-slot layout, allocation order,
// and therefore every address appearing in traces are identical by
// construction. Compilation is option-independent: runtime knobs
// (checkpoints, calls, per-kind trace filters) stay runtime branches in
// the VM exactly like in the tree walker, so one CompiledProgram serves
// any RunOptions.
//
// The instruction set is a stack machine whose ops mirror the tree
// walker's evaluation steps one-to-one — each op either reproduces one
// eval()/exec() case or fuses an address computation into the adjacent
// memory access (which emits no trace of its own, so fusion is
// observationally invisible). Keeping that correspondence is what lets
// the differential harness demand *bit-identical* traces rather than
// "equivalent" ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "minic/ast.h"
#include "minic/intrinsics.h"

namespace foray::sim {

// The opcode list as an X-macro so the VM's computed-goto dispatch table
// (sim/vm.h) stays mechanically in sync with the enum. Operand roles:
//
//   PushInt            a = int-pool index
//   PushFloat          a = float-pool index
//   PushStr            a = intern-cell index (lazy rodata allocation)
//   LoadGlobal         a = global slot, b = instr, c = name; scalar read
//   LoadLocal          a = frame slot, b = instr, c = name; scalar read
//   PushGlobalPtr      a = global slot, c = name; array decay / address-of
//   PushLocalPtr       a = frame slot, c = name
//   ThrowUnbound       a = name; statically unresolved identifier
//   PushSlotAddr       a = frame slot, b = byte offset (initializers)
//   PushGlobalSlotAddr a = global slot, b = byte offset
//   IndexAddr          a = elem size; pop idx, base -> push address
//   LoadMem            b = instr; pop addr -> load, push value
//   IndexLoad          fused IndexAddr + LoadMem; a = elem size, b = instr
//   StoreMem           b = instr; pop value, addr -> convert, store, push
//   IndexStore         fused IndexAddr + StoreMem; a = elem size, b = instr
//   StoreInit          b = instr; pop value, addr -> store unconverted
//   CompoundLoad       b = instr; peek addr -> load, push old value
//   StoreBin           compound assign: flags bits 2-7 = BinaryOp; b = instr;
//                      pop rhs, old, addr -> apply, convert, store, push
//   CastToPtr          pop v -> push pointer-to-<type> at v's address
//   Truthy             normalize to int 0/1 (short-circuit results)
//   Binary             flags = BinaryOp; type fields = result type
//   ConvertOp          pop v -> push convert(v, type)
//   IncDec             a = signed delta, b = instr; flags bit 2 = postfix
//   IncDecLocal        fused PushLocalPtr + IncDec on a scalar slot:
//                      a = frame slot, b = instr, c = name;
//                      flags bit 2 = postfix, bit 3 = decrement
//   IncDecGlobal       same for a global slot
//   Jump/JumpIf*       a = target pc (conditionals pop)
//   RestoreSpN         a = n; unwind n scopes (break/continue past blocks)
//   DeclLocal          a = frame slot, b = bytes, flags = align
//   DeclGlobal         a = global index
//   CallFn             a = function index; args already on the value stack
//   CallIntr           a = intrinsic id, b = instr, flags = argc
//   CheckpointOp       flags = CheckpointType, a = loop id
//
// Memory ops carry the AccessKind in flags bits 0-1 and the static value
// type in tbase/tptr.
#define FORAY_VM_OPS(X) \
  X(PushInt)            \
  X(PushFloat)          \
  X(PushStr)            \
  X(LoadGlobal)         \
  X(LoadLocal)          \
  X(PushGlobalPtr)      \
  X(PushLocalPtr)       \
  X(ThrowUnbound)       \
  X(PushSlotAddr)       \
  X(PushGlobalSlotAddr) \
  X(IndexAddr)          \
  X(LoadMem)            \
  X(IndexLoad)          \
  X(StoreMem)           \
  X(IndexStore)         \
  X(StoreInit)          \
  X(CompoundLoad)       \
  X(StoreBin)           \
  X(CastToPtr)          \
  X(Neg)                \
  X(NotOp)              \
  X(BitNotOp)           \
  X(Truthy)             \
  X(Binary)             \
  X(ConvertOp)          \
  X(IncDec)             \
  X(IncDecLocal)        \
  X(IncDecGlobal)       \
  X(Jump)               \
  X(JumpIfFalse)        \
  X(JumpIfTrue)         \
  X(PopV)               \
  X(SaveSp)             \
  X(RestoreSp)          \
  X(RestoreSpN)         \
  X(DeclLocal)          \
  X(DeclGlobal)         \
  X(CallFn)             \
  X(CallIntr)           \
  X(RetValue)           \
  X(ReturnOp)           \
  X(CheckpointOp)       \
  X(Halt)

enum class Op : uint8_t {
#define FORAY_VM_OP_ENUM(name) name,
  FORAY_VM_OPS(FORAY_VM_OP_ENUM)
#undef FORAY_VM_OP_ENUM
};

inline constexpr size_t kNumOps = 0
#define FORAY_VM_OP_COUNT(name) +1
    FORAY_VM_OPS(FORAY_VM_OP_COUNT)
#undef FORAY_VM_OP_COUNT
    ;

/// One 20-byte instruction. The static type a typed op works on is
/// encoded inline (tbase/tptr) so the VM never touches the AST.
struct Insn {
  Op op = Op::PopV;
  uint8_t flags = 0;  ///< op-specific packed bits (kind / BinaryOp / argc)
  uint8_t tbase = 0;  ///< minic::BaseType of the op's static type
  uint8_t tptr = 0;   ///< pointer depth of the op's static type
  uint32_t a = 0;     ///< primary operand (slot / pool index / jump target)
  uint32_t b = 0;     ///< secondary operand (synthetic instruction address)
  uint32_t c = 0;     ///< name-pool index for unbound-identifier faults
  int32_t line = 0;   ///< source line, for fault diagnostics

  minic::Type type() const {
    return minic::Type{static_cast<minic::BaseType>(tbase), tptr};
  }
};

struct CompiledFunc {
  std::string name;
  uint32_t entry = 0;     ///< pc of the first body instruction
  int32_t func_id = 0;    ///< dense id used in Call/Ret trace records
  uint32_t num_slots = 0; ///< frame arena size (params + locals)
  /// Maximum operand-stack depth any pc of this function can reach,
  /// from a static stack-effect analysis over the compiled code. The VM
  /// checks/extends its operand buffer once per call against this bound
  /// so the hot push/pop path needs no capacity checks at all.
  uint32_t max_stack = 0;
  minic::Type ret;
  /// Parameter spill descriptors, executed by CallFn in declaration
  /// order (the allocation order fixes the stack addresses).
  struct ParamBind {
    uint32_t slot = 0;
    minic::Type type;
    uint32_t bytes = 0;
    uint32_t align = 4;
    uint32_t instr = 0;  ///< the param's synthetic store instruction
  };
  std::vector<ParamBind> params;
};

struct GlobalMeta {
  uint32_t bytes = 0;
  uint32_t align = 4;
};

struct CompiledProgram {
  std::vector<Insn> code;
  std::vector<int64_t> int_pool;
  std::vector<double> float_pool;
  /// Unique string-literal contents; cells intern lazily at first
  /// execution, matching the tree walker's first-evaluation rodata order.
  std::vector<std::string> str_pool;
  std::vector<std::string> name_pool;
  std::vector<GlobalMeta> globals;
  std::vector<CompiledFunc> funcs;
  /// Entry point: global allocation + initializers, call main, Halt.
  uint32_t start_pc = 0;
  /// Operand-depth bound of the start segment (see CompiledFunc).
  uint32_t start_max_stack = 0;
  /// VarResolution::frame_fixed of the source program.
  bool frame_fixed = true;
};

/// Lowers `prog` (which must have passed sema; loop annotation optional
/// but required for checkpoint records) to bytecode.
CompiledProgram compile_program(const minic::Program& prog);

}  // namespace foray::sim
