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
// "equivalent" ones. Each op is one step of RunResult::steps, the unit
// of --max-steps, serve budgets and the static checker's step bounds.
//
// Two kinds of ops change only how fast a step runs, never what it does
// or how many steps a run takes:
//   * int-typed ops (the `I` suffix) are the same bodies as their
//     generic op, compiled for a static type of plain `int` instead of
//     reading the type from the instruction; the compiler emits them
//     only where sema proves that type (and, for the binary operators,
//     that no operand can carry a float or pointer tag at run time);
//   * superinstructions (FORAY_VM_FUSED*) run a short codegen idiom in
//     one dispatch. A peephole pass rewrites only the opcode of a
//     sequence's first instruction; the components stay in place, so a
//     jump into the middle of a sequence still runs them one by one.
//     A superinstruction counts one step per component, and falls back
//     to running its first component alone when fewer steps remain than
//     the sequence is long.
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
//   LoadGlobalI, LoadLocalI, IndexLoadI, IndexStoreI, CompoundLoadI,
//   IncDecLocalI       int-typed forms of the op without the suffix
//   StoreBinI          int-typed StoreBin whose right-hand side is an int
//   AddI ... BitXorI   Binary with flags = that BinaryOp, over int operands
//                      with an int result (FORAY_VM_INT_BINOPS)
//
// Memory ops carry the AccessKind in flags bits 0-1 and the static value
// type in tbase/tptr.
//
// Every list entry starts with the op's name, so one variadic visitor
// X(name, ...) enumerates them all (FORAY_VM_OPS).
#define FORAY_VM_BASE_OPS(X) \
  X(PushInt)                 \
  X(PushFloat)               \
  X(PushStr)                 \
  X(LoadGlobal)              \
  X(LoadLocal)               \
  X(PushGlobalPtr)           \
  X(PushLocalPtr)            \
  X(ThrowUnbound)            \
  X(PushSlotAddr)            \
  X(PushGlobalSlotAddr)      \
  X(IndexAddr)               \
  X(LoadMem)                 \
  X(IndexLoad)               \
  X(StoreMem)                \
  X(IndexStore)              \
  X(StoreInit)               \
  X(CompoundLoad)            \
  X(StoreBin)                \
  X(CastToPtr)               \
  X(Neg)                     \
  X(NotOp)                   \
  X(BitNotOp)                \
  X(Truthy)                  \
  X(Binary)                  \
  X(ConvertOp)               \
  X(IncDec)                  \
  X(IncDecLocal)             \
  X(IncDecGlobal)            \
  X(Jump)                    \
  X(JumpIfFalse)             \
  X(JumpIfTrue)              \
  X(PopV)                    \
  X(SaveSp)                  \
  X(RestoreSp)               \
  X(RestoreSpN)              \
  X(DeclLocal)               \
  X(DeclGlobal)              \
  X(CallFn)                  \
  X(CallIntr)                \
  X(RetValue)                \
  X(ReturnOp)                \
  X(CheckpointOp)            \
  X(Halt)                    \
  X(LoadGlobalI)             \
  X(LoadLocalI)              \
  X(IndexLoadI)              \
  X(IndexStoreI)             \
  X(CompoundLoadI)           \
  X(StoreBinI)               \
  X(IncDecLocalI)

// The int-typed Binary ops: F(op, X) per BinaryOp except the
// short-circuit ones, which the engines lower to jumps.
#define FORAY_VM_FOR_INT_COMPARES(F, X) \
  F(Lt, X) F(Gt, X) F(Le, X) F(Ge, X) F(Eq, X) F(Ne, X)
#define FORAY_VM_FOR_INT_BINOPS(F, X)                                \
  F(Add, X) F(Sub, X) F(Mul, X) F(Div, X) F(Mod, X) F(Shl, X)        \
  F(Shr, X) FORAY_VM_FOR_INT_COMPARES(F, X) F(BitAnd, X) F(BitOr, X) \
  F(BitXor, X)
#define FORAY_VM_INT_BINOP(op, X) X(op##I, op)
#define FORAY_VM_INT_BINOPS(X) FORAY_VM_FOR_INT_BINOPS(FORAY_VM_INT_BINOP, X)

// Superinstructions, X(name, components...), one list per length. Each
// sequence is a codegen idiom: `x op k` and `x op y` on int locals, a
// global array indexed by a local, a compare feeding the branch of an
// `if` or loop condition, an expression statement and its PopV, a
// for-step's `i++; PopV; Jump`, and the block scaffolding around a loop
// body. Only the last component may jump.
#define FORAY_VM_FUSE_CMP_BRANCH(op, X) \
  X(op##I_JumpIfFalse, op##I, JumpIfFalse)
#define FORAY_VM_FUSE_XK(op, X) \
  X(LoadLocalI_PushInt_##op##I, LoadLocalI, PushInt, op##I)
#define FORAY_VM_FUSE_XY(op, X) \
  X(LoadLocalI_LoadLocalI_##op##I, LoadLocalI, LoadLocalI, op##I)
#define FORAY_VM_FUSE_XK_BRANCH(op, X)                           \
  X(LoadLocalI_PushInt_##op##I_JumpIfFalse, LoadLocalI, PushInt, \
    op##I, JumpIfFalse)
#define FORAY_VM_FUSE_XY_BRANCH(op, X)                               \
  X(LoadLocalI_LoadLocalI_##op##I_JumpIfFalse, LoadLocalI, LoadLocalI, \
    op##I, JumpIfFalse)

#define FORAY_VM_FUSED2(X)                                   \
  FORAY_VM_FOR_INT_COMPARES(FORAY_VM_FUSE_CMP_BRANCH, X)     \
  X(IncDecLocalI_PopV, IncDecLocalI, PopV)                   \
  X(IndexStoreI_PopV, IndexStoreI, PopV)                     \
  X(StoreMem_PopV, StoreMem, PopV)                           \
  X(StoreBinI_PopV, StoreBinI, PopV)                         \
  X(CallIntr_PopV, CallIntr, PopV)                           \
  X(PopV_Jump, PopV, Jump)                                   \
  X(CheckpointOp_SaveSp, CheckpointOp, SaveSp)               \
  X(RestoreSp_CheckpointOp, RestoreSp, CheckpointOp)
#define FORAY_VM_FUSED3(X)                                        \
  FORAY_VM_FOR_INT_BINOPS(FORAY_VM_FUSE_XK, X)                    \
  FORAY_VM_FOR_INT_BINOPS(FORAY_VM_FUSE_XY, X)                    \
  X(PushGlobalPtr_LoadLocalI_IndexLoadI, PushGlobalPtr, LoadLocalI, \
    IndexLoadI)                                                   \
  X(IncDecLocalI_PopV_Jump, IncDecLocalI, PopV, Jump)
#define FORAY_VM_FUSED4(X)                                 \
  FORAY_VM_FOR_INT_COMPARES(FORAY_VM_FUSE_XK_BRANCH, X)    \
  FORAY_VM_FOR_INT_COMPARES(FORAY_VM_FUSE_XY_BRANCH, X)

/// Every opcode, in enum order.
#define FORAY_VM_OPS(X)                                          \
  FORAY_VM_BASE_OPS(X) FORAY_VM_INT_BINOPS(X) FORAY_VM_FUSED2(X) \
      FORAY_VM_FUSED3(X) FORAY_VM_FUSED4(X)

enum class Op : uint8_t {
#define FORAY_VM_OP_ENUM(name, ...) name,
  FORAY_VM_OPS(FORAY_VM_OP_ENUM)
#undef FORAY_VM_OP_ENUM
};

inline constexpr size_t kNumOps = 0
#define FORAY_VM_OP_COUNT(name, ...) +1
    FORAY_VM_OPS(FORAY_VM_OP_COUNT)
#undef FORAY_VM_OP_COUNT
    ;
static_assert(kNumOps <= 256, "opcodes must fit Insn::op");

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
