// The bytecode dispatch-loop VM — the MiniC fast engine.
//
// Executes a CompiledProgram (sim/bytecode.h) against the same Memory,
// Rng, and chunked trace transport as the tree-walking interpreter
// (sim/interpreter.cpp), delivering records through trace::Sink one
// chunk per virtual call. It is compiled once, here; callers reach it
// through run_compiled_with() (sim/bytecode.h) or run_program(). All
// value semantics (conversion, operator behavior, intrinsic effects)
// come from sim/exec_common.h, shared verbatim with the tree walker; the
// engine-equivalence harness keeps the two bit-identical.
//
// Dispatch uses GNU computed goto where available (each handler ends in
// its own indirect jump, which lets the branch predictor learn opcode
// sequences) and falls back to a plain switch loop elsewhere; the
// handler bodies are written once and shared by both forms. The operand
// stack is a raw pointer into a buffer sized from the compiler's static
// per-function depth bounds, so the hot push/pop path carries no
// capacity checks.
//
// Each opcode body lives in a private always-inline do_<Op>() method;
// step accounting and control flow stay in the VM_NEXT/VM_JUMP glue of
// the dispatch loop. Typed bodies are templates over where the static
// type comes from, so an int-typed op (bytecode.h) is the generic body
// with the type fixed to int and its tests folded away. A
// superinstruction's handler is built by one macro (per sequence
// length) from its components' bodies: it runs them in place, advancing ip and the step count to
// each before running it, and checks once up front that the steps for
// the whole sequence remain (else it runs the first component alone).
// The fault line is not tracked per dispatch: when a fault unwinds
// exec(), and at Halt, it is read from ip, which at that moment is the
// instruction (or fused component) that raised it.
#include "sim/bytecode.h"

#include <algorithm>
#include <string>
#include <vector>

#include "sim/exec_common.h"
#include "sim/interpreter.h"
#include "sim/memory.h"
#include "sim/value.h"
#include "util/rng.h"

#if defined(__GNUC__) || defined(__clang__)
#define FORAY_VM_COMPUTED_GOTO 1
#endif

namespace foray::sim {

namespace internal {

class Vm {
 public:
  Vm(const CompiledProgram& code, trace::Sink* sink, const RunOptions& opts)
      : code_(code),
        opts_(opts),
        emitter_(sink, opts_, code.funcs.size(), code.frame_fixed),
        mem_(opts.heap_capacity, opts.stack_capacity),
        rng_(opts.rng_seed),
        max_steps_(opts.budget.effective_max_steps()) {}

  // -- Host interface for the shared intrinsic runner ------------------------

  Memory& memory() { return mem_; }
  util::Rng& rng() { return rng_; }

  void append_output(const std::string& s) {
    append_output_limited(&output_, opts_.max_output_bytes, s);
  }

  void emit_access(uint32_t instr, uint32_t addr, uint8_t size,
                   bool is_write, trace::AccessKind kind) {
    emitter_.emit_access(instr, addr, size, is_write, kind);
  }

  // -- execution -------------------------------------------------------------

  /// Slot and stack setup, the dispatch loop under fault
  /// classification, and result finalization.
  RunResult run() {
    RunResult result;
    globals_.assign(code_.globals.size(), VmSlot{});
    interned_.assign(code_.str_pool.size(), InternCell{});
    stack_.resize(static_cast<size_t>(code_.start_max_stack) + 64);
    sp_ = stack_.data();
    execute_guarded(&result, &cur_line_, [&] {
      exec();
      result.exit_code = exit_code_;
    });
    finalize_result(&result, &cur_line_, &emitter_, &mem_, opts_, &output_,
                    steps_);
    return result;
  }

 private:
  using Type = minic::Type;
  using AccessKind = trace::AccessKind;

  struct VmSlot {
    uint32_t addr = 0;
    /// Set when the declaration has executed; a resolved identifier whose
    /// slot is still unbound reproduces the tree walker's "unbound
    /// identifier" fault.
    bool bound = false;
  };

  struct InternCell {
    uint32_t addr = 0;
    bool valid = false;
  };

  struct Frame {
    uint32_t return_pc = 0;
    uint32_t saved_sp = 0;
    uint32_t locals_base = 0;
    uint32_t scope_base = 0;
    uint32_t func = 0;
    Value ret_value = Value::of_int(0);
  };

  [[noreturn]] void step_limit_fault() {
    throw RuntimeError("step limit exceeded (" + std::to_string(max_steps_) +
                           ")",
                       util::ErrorCode::kResourceExhausted);
  }

  [[noreturn]] void throw_unbound(uint32_t name_idx) {
    throw RuntimeError("unbound identifier '" + code_.name_pool[name_idx] +
                       "'");
  }

  /// Guarantees `extra` more operand slots; called once per function
  /// call against the compiler's static depth bound, never per push.
  void ensure_stack(uint32_t extra) {
    const size_t used = static_cast<size_t>(sp_ - stack_.data());
    if (used + extra + 8 > stack_.size()) {
      stack_.resize(std::max(stack_.size() * 2, used + extra + 64));
      sp_ = stack_.data() + used;
    }
  }

  FORAY_ALWAYS_INLINE Value load_typed(const Type& t, uint32_t addr,
                                       uint8_t size) {
    if (t.is_float()) return Value::of_float(mem_.load_float(addr));
    return Value::of_int(mem_.load_int(addr, size), t);
  }

  FORAY_ALWAYS_INLINE void store_typed(const Type& t, uint32_t addr,
                                       uint8_t size, const Value& v) {
    if (t.is_float()) {
      mem_.store_float(addr, v.as_float());
    } else {
      mem_.store_int(addr, size, v.as_int());
    }
  }

  // -- opcode bodies ---------------------------------------------------------
  // One method per opcode. Jump decisions are returned to the caller
  // (do_pop_truthy / the pc results of do_CallFn and do_ReturnOp);
  // nothing here touches the step count or the fault line.
  //
  // A typed op's body is written once, over a policy T that supplies its
  // static type: InsnType reads it from the instruction (the generic
  // op), IntType fixes it to int at compile time (the int-typed op), so
  // every test of the type folds away. The do_<Op>I methods name those
  // instantiations after their opcodes.

  struct InsnType {
    static constexpr Operands kOperands = Operands::kAny;
    static FORAY_ALWAYS_INLINE Type of(const Insn* ip) { return ip->type(); }
  };
  /// Also asserts, for StoreBinI, that the right-hand side carries an
  /// integer tag (the compiler emits it only then).
  struct IntType {
    static constexpr Operands kOperands = Operands::kInt;
    static FORAY_ALWAYS_INLINE Type of(const Insn*) {
      return Type{minic::BaseType::Int, 0};
    }
  };

  FORAY_ALWAYS_INLINE void do_PushInt(const Insn* ip) {
    *sp_++ = Value::of_int(code_.int_pool[ip->a]);
  }
  FORAY_ALWAYS_INLINE void do_PushFloat(const Insn* ip) {
    *sp_++ = Value::of_float(code_.float_pool[ip->a]);
  }
  FORAY_ALWAYS_INLINE void do_PushStr(const Insn* ip) {
    InternCell& cell = interned_[ip->a];
    if (!cell.valid) {
      cell.addr = mem_.alloc_rodata(code_.str_pool[ip->a]);
      cell.valid = true;
    }
    *sp_++ =
        Value::of_ptr(cell.addr, minic::make_type(minic::BaseType::Char));
  }
  template <class T = InsnType>
  FORAY_ALWAYS_INLINE void do_LoadGlobal(const Insn* ip) {
    const VmSlot s = globals_[ip->a];
    if (!s.bound) throw_unbound(ip->c);
    const Type t = T::of(ip);
    const uint8_t sz = static_cast<uint8_t>(t.size());
    emitter_.emit_access(ip->b, s.addr, sz, false, AccessKind::Scalar);
    *sp_++ = load_typed(t, s.addr, sz);
  }
  template <class T = InsnType>
  FORAY_ALWAYS_INLINE void do_LoadLocal(const Insn* ip) {
    const VmSlot s = cur_locals_[ip->a];
    if (!s.bound) throw_unbound(ip->c);
    const Type t = T::of(ip);
    const uint8_t sz = static_cast<uint8_t>(t.size());
    emitter_.emit_access(ip->b, s.addr, sz, false, AccessKind::Scalar);
    *sp_++ = load_typed(t, s.addr, sz);
  }
  FORAY_ALWAYS_INLINE void do_PushGlobalPtr(const Insn* ip) {
    const VmSlot s = globals_[ip->a];
    if (!s.bound) throw_unbound(ip->c);
    *sp_++ = Value::of_ptr(s.addr, ip->type());
  }
  FORAY_ALWAYS_INLINE void do_PushLocalPtr(const Insn* ip) {
    const VmSlot s = cur_locals_[ip->a];
    if (!s.bound) throw_unbound(ip->c);
    *sp_++ = Value::of_ptr(s.addr, ip->type());
  }
  [[noreturn]] FORAY_ALWAYS_INLINE void do_ThrowUnbound(const Insn* ip) {
    throw_unbound(ip->a);
  }
  FORAY_ALWAYS_INLINE void do_PushSlotAddr(const Insn* ip) {
    *sp_++ = Value::of_int(cur_locals_[ip->a].addr + ip->b);
  }
  FORAY_ALWAYS_INLINE void do_PushGlobalSlotAddr(const Insn* ip) {
    *sp_++ = Value::of_int(globals_[ip->a].addr + ip->b);
  }
  FORAY_ALWAYS_INLINE void do_IndexAddr(const Insn* ip) {
    --sp_;
    sp_[-1] = Value::of_int(sp_[-1].as_addr() +
                            static_cast<uint32_t>(sp_[0].as_int()) * ip->a);
  }
  FORAY_ALWAYS_INLINE void do_LoadMem(const Insn* ip) {
    const uint32_t addr = (--sp_)->as_addr();
    const Type t = ip->type();
    const uint8_t sz = static_cast<uint8_t>(t.size());
    emitter_.emit_access(ip->b, addr, sz, false,
                         static_cast<AccessKind>(ip->flags & 0x03));
    *sp_++ = load_typed(t, addr, sz);
  }
  template <class T = InsnType>
  FORAY_ALWAYS_INLINE void do_IndexLoad(const Insn* ip) {
    --sp_;
    const uint32_t addr = sp_[-1].as_addr() +
                          static_cast<uint32_t>(sp_[0].as_int()) * ip->a;
    const Type t = T::of(ip);
    const uint8_t sz = static_cast<uint8_t>(t.size());
    emitter_.emit_access(ip->b, addr, sz, false,
                         static_cast<AccessKind>(ip->flags & 0x03));
    sp_[-1] = load_typed(t, addr, sz);
  }
  FORAY_ALWAYS_INLINE void do_StoreMem(const Insn* ip) {
    const Value v = *--sp_;
    const uint32_t addr = (--sp_)->as_addr();
    const Type t = ip->type();
    const uint8_t sz = static_cast<uint8_t>(t.size());
    const Value cv = convert_value(v, t);
    emitter_.emit_access(ip->b, addr, sz, true,
                         static_cast<AccessKind>(ip->flags & 0x03));
    store_typed(t, addr, sz, cv);
    *sp_++ = cv;
  }
  template <class T = InsnType>
  FORAY_ALWAYS_INLINE void do_IndexStore(const Insn* ip) {
    const Value v = *--sp_;
    const Value idx = *--sp_;
    const Value base = *--sp_;
    const uint32_t addr =
        base.as_addr() + static_cast<uint32_t>(idx.as_int()) * ip->a;
    const Type t = T::of(ip);
    const uint8_t sz = static_cast<uint8_t>(t.size());
    const Value cv = convert_value(v, t);
    emitter_.emit_access(ip->b, addr, sz, true,
                         static_cast<AccessKind>(ip->flags & 0x03));
    store_typed(t, addr, sz, cv);
    *sp_++ = cv;
  }
  FORAY_ALWAYS_INLINE void do_StoreInit(const Insn* ip) {
    // Initializer stores write unconverted, exactly like the tree
    // walker's init_slot(): narrowing happens in the memory write.
    const Value v = *--sp_;
    const uint32_t addr = (--sp_)->as_addr();
    const Type t = ip->type();
    const uint8_t sz = static_cast<uint8_t>(t.size());
    emitter_.emit_access(ip->b, addr, sz, true,
                         static_cast<AccessKind>(ip->flags & 0x03));
    store_typed(t, addr, sz, v);
  }
  template <class T = InsnType>
  FORAY_ALWAYS_INLINE void do_CompoundLoad(const Insn* ip) {
    const uint32_t addr = sp_[-1].as_addr();
    const Type t = T::of(ip);
    const uint8_t sz = static_cast<uint8_t>(t.size());
    emitter_.emit_access(ip->b, addr, sz, false,
                         static_cast<AccessKind>(ip->flags & 0x03));
    *sp_++ = load_typed(t, addr, sz);
  }
  template <class T = InsnType>
  FORAY_ALWAYS_INLINE void do_StoreBin(const Insn* ip) {
    const Value rhs = *--sp_;
    const Value old = *--sp_;
    const uint32_t addr = (--sp_)->as_addr();
    const Type t = T::of(ip);
    const uint8_t sz = static_cast<uint8_t>(t.size());
    const Value v = convert_value(
        apply_binary_op<T::kOperands>(
            static_cast<minic::BinaryOp>(ip->flags >> 2), old, rhs, t),
        t);
    emitter_.emit_access(ip->b, addr, sz, true,
                         static_cast<AccessKind>(ip->flags & 0x03));
    store_typed(t, addr, sz, v);
    *sp_++ = v;
  }
  FORAY_ALWAYS_INLINE void do_CastToPtr(const Insn* ip) {
    const Value v = *--sp_;
    *sp_++ = Value::of_ptr(v.as_addr(), ip->type());
  }
  FORAY_ALWAYS_INLINE void do_Neg(const Insn*) {
    const Value v = *--sp_;
    *sp_++ = v.is_float() ? Value::of_float(-v.f)
                          : Value::of_int(-v.i, v.type);
  }
  FORAY_ALWAYS_INLINE void do_NotOp(const Insn*) {
    sp_[-1] = Value::of_int(sp_[-1].truthy() ? 0 : 1);
  }
  FORAY_ALWAYS_INLINE void do_BitNotOp(const Insn*) {
    sp_[-1] = Value::of_int(~sp_[-1].as_int());
  }
  FORAY_ALWAYS_INLINE void do_Truthy(const Insn*) {
    sp_[-1] = Value::of_int(sp_[-1].truthy() ? 1 : 0);
  }
  FORAY_ALWAYS_INLINE void do_Binary(const Insn* ip) {
    --sp_;
    sp_[-1] = apply_binary_op(static_cast<minic::BinaryOp>(ip->flags),
                              sp_[-1], sp_[0], ip->type());
  }
  template <minic::BinaryOp Op>
  FORAY_ALWAYS_INLINE void do_BinaryI(const Insn* ip) {
    --sp_;
    sp_[-1] = apply_binary<Op, Operands::kInt>(sp_[-1], sp_[0],
                                               IntType::of(ip));
  }
  FORAY_ALWAYS_INLINE void do_ConvertOp(const Insn* ip) {
    sp_[-1] = convert_value(sp_[-1], ip->type());
  }
  FORAY_ALWAYS_INLINE void do_IncDec(const Insn* ip) {
    const uint32_t addr = (--sp_)->as_addr();
    const Type t = ip->type();
    const uint8_t sz = static_cast<uint8_t>(t.size());
    const AccessKind kind = static_cast<AccessKind>(ip->flags & 0x03);
    emitter_.emit_access(ip->b, addr, sz, false, kind);
    const Value old = load_typed(t, addr, sz);
    const int64_t delta = static_cast<int32_t>(ip->a);
    const Value updated =
        convert_value(Value::of_int(old.as_int() + delta, t), t);
    emitter_.emit_access(ip->b, addr, sz, true, kind);
    store_typed(t, addr, sz, updated);
    *sp_++ = (ip->flags & 0x04) != 0 ? old : updated;
  }
  template <class T = InsnType>
  FORAY_ALWAYS_INLINE void do_IncDecLocal(const Insn* ip) {
    const VmSlot s = cur_locals_[ip->a];
    if (!s.bound) throw_unbound(ip->c);
    const Type t = T::of(ip);
    const uint8_t sz = static_cast<uint8_t>(t.size());
    emitter_.emit_access(ip->b, s.addr, sz, false, AccessKind::Scalar);
    const Value old = load_typed(t, s.addr, sz);
    const int64_t mag = t.is_pointer() ? t.deref().size() : 1;
    const int64_t delta = (ip->flags & 0x08) != 0 ? -mag : mag;
    const Value updated =
        convert_value(Value::of_int(old.as_int() + delta, t), t);
    emitter_.emit_access(ip->b, s.addr, sz, true, AccessKind::Scalar);
    store_typed(t, s.addr, sz, updated);
    *sp_++ = (ip->flags & 0x04) != 0 ? old : updated;
  }
  FORAY_ALWAYS_INLINE void do_IncDecGlobal(const Insn* ip) {
    const VmSlot s = globals_[ip->a];
    if (!s.bound) throw_unbound(ip->c);
    const Type t = ip->type();
    const uint8_t sz = static_cast<uint8_t>(t.size());
    emitter_.emit_access(ip->b, s.addr, sz, false, AccessKind::Scalar);
    const Value old = load_typed(t, s.addr, sz);
    const int64_t mag = t.is_pointer() ? t.deref().size() : 1;
    const int64_t delta = (ip->flags & 0x08) != 0 ? -mag : mag;
    const Value updated =
        convert_value(Value::of_int(old.as_int() + delta, t), t);
    emitter_.emit_access(ip->b, s.addr, sz, true, AccessKind::Scalar);
    store_typed(t, s.addr, sz, updated);
    *sp_++ = (ip->flags & 0x04) != 0 ? old : updated;
  }
  FORAY_ALWAYS_INLINE bool do_pop_truthy() { return (--sp_)->truthy(); }
  FORAY_ALWAYS_INLINE void do_PopV(const Insn*) { --sp_; }
  FORAY_ALWAYS_INLINE void do_SaveSp(const Insn*) {
    sp_scopes_.push_back(mem_.sp());
  }
  FORAY_ALWAYS_INLINE void do_RestoreSp(const Insn*) {
    mem_.set_sp(sp_scopes_.back());
    sp_scopes_.pop_back();
  }
  FORAY_ALWAYS_INLINE void do_RestoreSpN(const Insn* ip) {
    // Unwinds n block scopes at once (break/continue). Restoring
    // straight to the outermost popped scope equals restoring each in
    // turn: set_sp() just moves the pointer.
    const size_t n = ip->a;
    mem_.set_sp(sp_scopes_[sp_scopes_.size() - n]);
    sp_scopes_.resize(sp_scopes_.size() - n);
  }
  FORAY_ALWAYS_INLINE void do_DeclLocal(const Insn* ip) {
    const uint32_t addr = mem_.stack_alloc(ip->b, ip->flags);
    cur_locals_[ip->a] = VmSlot{addr, true};
  }
  FORAY_ALWAYS_INLINE void do_DeclGlobal(const Insn* ip) {
    const GlobalMeta& m = code_.globals[ip->a];
    const uint32_t addr = mem_.alloc_global(m.bytes, m.align);
    globals_[ip->a] = VmSlot{addr, true};
  }
  /// Pushes the callee frame and returns the pc to jump to (f.entry).
  FORAY_ALWAYS_INLINE uint32_t do_CallFn(const Insn* ip) {
    const CompiledFunc& f = code_.funcs[ip->a];
    if (frames_.size() >= 512) {
      throw RuntimeError("simulated call depth limit exceeded in '" +
                         f.name + "'");
    }
    ensure_stack(f.max_stack);
    emitter_.emit_call(f.func_id, mem_.sp());
    Frame fr;
    fr.return_pc = static_cast<uint32_t>(ip - code_.code.data()) + 1;
    fr.saved_sp = mem_.sp();
    fr.locals_base = static_cast<uint32_t>(locals_.size());
    fr.scope_base = static_cast<uint32_t>(sp_scopes_.size());
    fr.func = ip->a;
    frames_.push_back(fr);
    locals_.resize(fr.locals_base + f.num_slots);
    cur_locals_ = locals_.data() + fr.locals_base;
    // Bind parameters: spill each argument to the callee's frame in
    // declaration order — the Scalar writes the paper's Step 4 filters
    // out, with the same stack addresses as the tree walker.
    const size_t nargs = f.params.size();
    const Value* args = sp_ - nargs;
    for (size_t i = 0; i < nargs; ++i) {
      const CompiledFunc::ParamBind& pb = f.params[i];
      const uint32_t addr = mem_.stack_alloc(pb.bytes, pb.align);
      cur_locals_[pb.slot] = VmSlot{addr, true};
      const Value v = convert_value(args[i], pb.type);
      emitter_.emit_access(pb.instr, addr, static_cast<uint8_t>(pb.bytes),
                           true, AccessKind::Scalar);
      store_typed(pb.type, addr, static_cast<uint8_t>(pb.bytes), v);
    }
    sp_ -= nargs;
    return f.entry;
  }
  FORAY_ALWAYS_INLINE void do_CallIntr(const Insn* ip) {
    const size_t argc = ip->flags;
    const Value* args = sp_ - argc;
    const Value result =
        run_intrinsic(*this, static_cast<minic::Intrinsic>(ip->a), ip->b,
                      ip->line, args, argc);
    sp_ -= argc;
    *sp_++ = result;
  }
  FORAY_ALWAYS_INLINE void do_RetValue(const Insn*) {
    frames_.back().ret_value = *--sp_;
  }
  /// Pops the callee frame and returns the pc to jump to (return_pc).
  FORAY_ALWAYS_INLINE uint32_t do_ReturnOp(const Insn*) {
    const Frame fr = frames_.back();
    const CompiledFunc& f = code_.funcs[fr.func];
    Value ret = fr.ret_value;
    mem_.set_sp(fr.saved_sp);
    locals_.resize(fr.locals_base);
    sp_scopes_.resize(fr.scope_base);
    frames_.pop_back();
    cur_locals_ = frames_.empty()
                      ? locals_.data()
                      : locals_.data() + frames_.back().locals_base;
    emitter_.emit_ret(f.func_id);
    if (!f.ret.is_void()) ret = convert_value(ret, f.ret);
    *sp_++ = ret;
    return fr.return_pc;
  }
  FORAY_ALWAYS_INLINE void do_CheckpointOp(const Insn* ip) {
    emitter_.emit_checkpoint(static_cast<trace::CheckpointType>(ip->flags),
                             static_cast<int32_t>(ip->a));
  }
  FORAY_ALWAYS_INLINE void do_Halt(const Insn*) {
    exit_code_ = static_cast<int>((--sp_)->as_int());
  }

  // The int-typed ops.
#define FORAY_VM_INT_TYPED(name)                       \
  FORAY_ALWAYS_INLINE void do_##name##I(const Insn* ip) { \
    do_##name<IntType>(ip);                            \
  }
  FORAY_VM_INT_TYPED(LoadGlobal)
  FORAY_VM_INT_TYPED(LoadLocal)
  FORAY_VM_INT_TYPED(IndexLoad)
  FORAY_VM_INT_TYPED(IndexStore)
  FORAY_VM_INT_TYPED(CompoundLoad)
  FORAY_VM_INT_TYPED(StoreBin)
  FORAY_VM_INT_TYPED(IncDecLocal)
#undef FORAY_VM_INT_TYPED
#define FORAY_VM_INT_BINOP_BODY(name, op)               \
  FORAY_ALWAYS_INLINE void do_##name(const Insn* ip) {   \
    do_BinaryI<minic::BinaryOp::op>(ip);                \
  }
  FORAY_VM_INT_BINOPS(FORAY_VM_INT_BINOP_BODY)
#undef FORAY_VM_INT_BINOP_BODY

  void exec();

  const CompiledProgram& code_;
  RunOptions opts_;
  TraceEmitter emitter_;
  Memory mem_;
  util::Rng rng_;
  uint64_t max_steps_;
  std::vector<Value> stack_;
  Value* sp_ = nullptr;  ///< next free operand slot
  std::vector<VmSlot> globals_;
  std::vector<VmSlot> locals_;
  VmSlot* cur_locals_ = nullptr;  ///< locals_ slice of the active frame
  std::vector<InternCell> interned_;
  std::vector<Frame> frames_;
  std::vector<uint32_t> sp_scopes_;
  std::string output_;
  uint64_t steps_ = 0;
  int exit_code_ = 0;
  /// Source line of the instruction a fault unwound exec() from (or of
  /// Halt), for the fault's diagnostic.
  int cur_line_ = 0;
};

// The handler bodies are shared between the computed-goto and switch
// dispatchers; only the VM_CASE / VM_DISPATCH / VM_GOTO glue differs.
// VM_GOTO(Op) continues in Op's handler without a dispatch, so a
// superinstruction can finish in (or fall back to) a component's own
// handler.
#ifdef FORAY_VM_COMPUTED_GOTO
#define VM_CASE(name) L_##name:
#define VM_DISPATCH()                                \
  do {                                               \
    if (++steps > max_steps) step_limit_fault();     \
    goto* kLabels[static_cast<size_t>(ip->op)];      \
  } while (0)
#define VM_GOTO(name) goto L_##name
#else
#define VM_CASE(name) case Op::name:
#define VM_DISPATCH() goto dispatch
#define VM_GOTO(name) \
  do {                \
    op = Op::name;    \
    goto run_op;      \
  } while (0)
#endif
#define VM_NEXT() \
  do {            \
    ++ip;         \
    VM_DISPATCH(); \
  } while (0)
#define VM_JUMP(target)   \
  do {                    \
    ip = code + (target); \
    VM_DISPATCH();        \
  } while (0)
/// An op whose body falls through to the next instruction.
#define VM_OP(name, ...) \
  VM_CASE(name) {        \
    do_##name(ip);       \
    VM_NEXT();           \
  }
// A superinstruction. With the steps for the whole sequence left, it
// runs every component but the last in place, first advancing ip and
// the step count to it, so a fault inside a component reports that
// component's line and step; then it finishes in the last component's
// own handler. With fewer steps left it runs its first component alone
// and dispatch continues from the second, as if nothing were fused, so
// a step-limit fault lands on the same instruction.
#define VM_FUSE_FIRST(len, first)                       \
  if (max_steps - steps < (len) - 1) VM_GOTO(first);   \
  do_##first(ip)
#define VM_FUSE_THEN(part) \
  ++ip;                    \
  ++steps;                 \
  do_##part(ip)
#define VM_FUSE_LAST(part) \
  ++ip;                    \
  ++steps;                 \
  VM_GOTO(part)
#define VM_FUSED2(name, a, b) \
  VM_CASE(name) {             \
    VM_FUSE_FIRST(2, a);      \
    VM_FUSE_LAST(b);          \
  }
#define VM_FUSED3(name, a, b, c) \
  VM_CASE(name) {                \
    VM_FUSE_FIRST(3, a);         \
    VM_FUSE_THEN(b);             \
    VM_FUSE_LAST(c);             \
  }
#define VM_FUSED4(name, a, b, c, d) \
  VM_CASE(name) {                   \
    VM_FUSE_FIRST(4, a);            \
    VM_FUSE_THEN(b);                \
    VM_FUSE_THEN(c);                \
    VM_FUSE_LAST(d);                \
  }

void Vm::exec() {
  const Insn* const code = code_.code.data();
  const Insn* ip = code + code_.start_pc;
  // The step guard runs once per dispatch, so it lives in locals for
  // the duration of the loop: a member counter would be a memory RMW
  // per instruction (the compiler cannot prove the handlers' stores
  // never alias *this). Flushed back to steps_ at Halt and, via the
  // catch-all below, on every faulting exit. The fault line is read
  // from ip at the same two places, never stored per dispatch.
  uint64_t steps = steps_;
  const uint64_t max_steps = max_steps_;
  try {
#ifdef FORAY_VM_COMPUTED_GOTO
#define FORAY_VM_OP_LABEL(name, ...) &&L_##name,
  static const void* const kLabels[] = {FORAY_VM_OPS(FORAY_VM_OP_LABEL)};
#undef FORAY_VM_OP_LABEL
  static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kNumOps,
                "dispatch table must cover every opcode");
  VM_DISPATCH();
#else
  Op op = ip->op;
dispatch:
  if (++steps > max_steps) step_limit_fault();
  op = ip->op;
run_op:
  switch (op) {
#endif

  VM_OP(PushInt)
  VM_OP(PushFloat)
  VM_OP(PushStr)
  VM_OP(LoadGlobal)
  VM_OP(LoadLocal)
  VM_OP(PushGlobalPtr)
  VM_OP(PushLocalPtr)
  VM_CASE(ThrowUnbound) { do_ThrowUnbound(ip); }
  VM_OP(PushSlotAddr)
  VM_OP(PushGlobalSlotAddr)
  VM_OP(IndexAddr)
  VM_OP(LoadMem)
  VM_OP(IndexLoad)
  VM_OP(StoreMem)
  VM_OP(IndexStore)
  VM_OP(StoreInit)
  VM_OP(CompoundLoad)
  VM_OP(StoreBin)
  VM_OP(CastToPtr)
  VM_OP(Neg)
  VM_OP(NotOp)
  VM_OP(BitNotOp)
  VM_OP(Truthy)
  VM_OP(Binary)
  VM_OP(ConvertOp)
  VM_OP(IncDec)
  VM_OP(IncDecLocal)
  VM_OP(IncDecGlobal)
  VM_CASE(Jump) { VM_JUMP(ip->a); }
  VM_CASE(JumpIfFalse) {
    if (do_pop_truthy()) VM_NEXT();
    VM_JUMP(ip->a);
  }
  VM_CASE(JumpIfTrue) {
    if (do_pop_truthy()) VM_JUMP(ip->a);
    VM_NEXT();
  }
  VM_OP(PopV)
  VM_OP(SaveSp)
  VM_OP(RestoreSp)
  VM_OP(RestoreSpN)
  VM_OP(DeclLocal)
  VM_OP(DeclGlobal)
  VM_CASE(CallFn) { VM_JUMP(do_CallFn(ip)); }
  VM_OP(CallIntr)
  VM_OP(RetValue)
  VM_CASE(ReturnOp) { VM_JUMP(do_ReturnOp(ip)); }
  VM_OP(CheckpointOp)
  VM_CASE(Halt) {
    do_Halt(ip);
    cur_line_ = ip->line;
    steps_ = steps;
    return;
  }
  VM_OP(LoadGlobalI)
  VM_OP(LoadLocalI)
  VM_OP(IndexLoadI)
  VM_OP(IndexStoreI)
  VM_OP(CompoundLoadI)
  VM_OP(StoreBinI)
  VM_OP(IncDecLocalI)
  FORAY_VM_INT_BINOPS(VM_OP)
  FORAY_VM_FUSED2(VM_FUSED2)
  FORAY_VM_FUSED3(VM_FUSED3)
  FORAY_VM_FUSED4(VM_FUSED4)

#ifndef FORAY_VM_COMPUTED_GOTO
  }
#endif
  } catch (...) {
    cur_line_ = ip->line;
    steps_ = steps;
    throw;
  }
}

}  // namespace internal

RunResult run_compiled_with(const CompiledProgram& code, trace::Sink* sink,
                            const RunOptions& opts) {
  internal::Vm vm(code, sink, opts);
  return vm.run();
}

}  // namespace foray::sim
