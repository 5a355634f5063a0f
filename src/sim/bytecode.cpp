#include "sim/bytecode.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "sim/global_layout.h"
#include "sim/resolver.h"
#include "trace/record.h"
#include "util/status.h"

namespace foray::sim {

namespace {

using minic::AssignOp;
using minic::BinaryOp;
using minic::Expr;
using minic::ExprKind;
using minic::Function;
using minic::Program;
using minic::Stmt;
using minic::StmtKind;
using minic::Type;
using minic::UnaryOp;
using minic::VarDecl;
using trace::AccessKind;
using trace::CheckpointType;

uint32_t elem_align(uint32_t elem) { return elem >= 4 ? 4 : elem; }

bool is_int(const Type& t) { return t == minic::make_type(minic::BaseType::Int); }

/// `int_op` where the op's static type is plain int, else `generic`.
Op typed(Op generic, Op int_op, const Type& t) {
  return is_int(t) ? int_op : generic;
}

/// True when every value `e` evaluates to carries an integer tag, never
/// a float or pointer one. Sema's type alone does not say so: putchar()
/// returns its argument unconverted, and negation and the arithmetic
/// operators keep their operands' tags, so `-putchar(2.5)` is an int
/// expression holding a float.
bool int_valued(const Expr& e) {
  if (!e.type.is_integer()) return false;
  switch (e.kind) {
    case ExprKind::Unary:
      return e.un_op != UnaryOp::Neg || int_valued(*e.a);
    case ExprKind::Binary:
      switch (e.bin_op) {
        case BinaryOp::Add:
        case BinaryOp::Sub:
        case BinaryOp::Mul:
        case BinaryOp::Div:
          return int_valued(*e.a) && int_valued(*e.b);
        default:
          return true;
      }
    case ExprKind::Call: {
      const auto intr = minic::find_intrinsic(e.name);
      return !intr || intr->id != minic::Intrinsic::Putchar ||
             int_valued(*e.args[0]);
    }
    default:
      return true;
  }
}

/// True when `e` is of type int and every value it evaluates to carries
/// an integer tag: an operand the int-typed ops may take.
bool int_operand(const Expr& e) { return is_int(e.type) && int_valued(e); }

/// The int-typed op of a Binary over int operands with an int result;
/// Binary otherwise.
Op binary_op(const Expr& e) {
  if (!is_int(e.type) || !int_operand(*e.a) || !int_operand(*e.b)) {
    return Op::Binary;
  }
  switch (e.bin_op) {
#define FORAY_VM_BINOP_OF(name, op) \
  case BinaryOp::op:                \
    return Op::name;
    FORAY_VM_INT_BINOPS(FORAY_VM_BINOP_OF)
#undef FORAY_VM_BINOP_OF
    default:
      return Op::Binary;
  }
}

/// Static facts about the lvalue an expression designates: everything of
/// the tree walker's Lvalue except the runtime address.
struct LvalueInfo {
  Type type;
  AccessKind kind = AccessKind::Data;
  uint32_t instr = 0;
};

class Compiler {
 public:
  explicit Compiler(const Program& prog)
      : prog_(prog), res_(resolve_variables(prog)) {}

  CompiledProgram run() {
    // Function indices are assigned up front so calls can reference
    // callees compiled later; entries are filled in as bodies compile.
    out_.funcs.resize(prog_.funcs.size());
    out_.frame_fixed = res_.frame_fixed;
    for (size_t i = 0; i < prog_.funcs.size(); ++i) {
      const Function& fn = *prog_.funcs[i];
      CompiledFunc& cf = out_.funcs[i];
      cf.name = fn.name;
      cf.func_id = fn.func_id;
      cf.ret = fn.ret;
      cf.num_slots = static_cast<uint32_t>(
          res_.func_slots[static_cast<size_t>(fn.func_id)]);
      if (!func_index_.count(fn.name)) {
        func_index_[fn.name] = static_cast<uint32_t>(i);
      }
    }

    compile_start();
    for (size_t i = 0; i < prog_.funcs.size(); ++i) {
      compile_function(static_cast<uint32_t>(i), *prog_.funcs[i]);
    }

    // Per-segment operand-depth bounds. Code lays out as [start segment]
    // [func 0] [func 1] ..., so each segment ends where the next begins.
    uint32_t end = out_.funcs.empty() ? static_cast<uint32_t>(out_.code.size())
                                      : out_.funcs.front().entry;
    out_.start_max_stack = analyze_max_depth(out_.start_pc, end);
    for (size_t i = 0; i < out_.funcs.size(); ++i) {
      end = i + 1 < out_.funcs.size()
                ? out_.funcs[i + 1].entry
                : static_cast<uint32_t>(out_.code.size());
      out_.funcs[i].max_stack = analyze_max_depth(out_.funcs[i].entry, end);
    }
    fuse_superinstructions();
    return std::move(out_);
  }

 private:
  // -- static operand-depth analysis ----------------------------------------

  /// Net operand-stack effect of one instruction; INT32_MIN marks ops
  /// that never fall through (throw / return / halt).
  int32_t stack_effect(const Insn& in) const {
    switch (in.op) {
      case Op::PushInt:
      case Op::PushFloat:
      case Op::PushStr:
      case Op::LoadGlobal:
      case Op::LoadLocal:
      case Op::LoadGlobalI:
      case Op::LoadLocalI:
      case Op::PushGlobalPtr:
      case Op::PushLocalPtr:
      case Op::PushSlotAddr:
      case Op::PushGlobalSlotAddr:
      case Op::CompoundLoad:
      case Op::CompoundLoadI:
      case Op::IncDecLocal:
      case Op::IncDecLocalI:
      case Op::IncDecGlobal:
        return 1;
      case Op::LoadMem:
      case Op::CastToPtr:
      case Op::Neg:
      case Op::NotOp:
      case Op::BitNotOp:
      case Op::Truthy:
      case Op::ConvertOp:
      case Op::IncDec:
      case Op::Jump:
      case Op::SaveSp:
      case Op::RestoreSp:
      case Op::RestoreSpN:
      case Op::DeclLocal:
      case Op::DeclGlobal:
      case Op::CheckpointOp:
        return 0;
      case Op::IndexAddr:
      case Op::IndexLoad:
      case Op::IndexLoadI:
      case Op::StoreMem:
      case Op::Binary:
#define FORAY_VM_BINOP_CASE(name, ...) case Op::name:
      FORAY_VM_INT_BINOPS(FORAY_VM_BINOP_CASE)
#undef FORAY_VM_BINOP_CASE
      case Op::PopV:
      case Op::JumpIfFalse:
      case Op::JumpIfTrue:
      case Op::RetValue:
        return -1;
      case Op::IndexStore:
      case Op::IndexStoreI:
      case Op::StoreBin:
      case Op::StoreBinI:
      case Op::StoreInit:
        return -2;
      case Op::CallFn:
        return 1 - static_cast<int32_t>(out_.funcs[in.a].params.size());
      case Op::CallIntr:
        return 1 - static_cast<int32_t>(in.flags);
      case Op::ThrowUnbound:
      case Op::ReturnOp:
      case Op::Halt:
        return INT32_MIN;
#define FORAY_VM_FUSED_CASE(name, ...) case Op::name:
      FORAY_VM_FUSED2(FORAY_VM_FUSED_CASE)
      FORAY_VM_FUSED3(FORAY_VM_FUSED_CASE)
      FORAY_VM_FUSED4(FORAY_VM_FUSED_CASE)
#undef FORAY_VM_FUSED_CASE
        FORAY_CHECK(false, "superinstructions are fused after the analysis");
    }
    return INT32_MIN;
  }

  /// Computes the maximum operand depth reachable anywhere in
  /// [begin, end). Expression codegen gives every pc a statically fixed
  /// depth, so one linear pass with forward propagation suffices; the
  /// consistency check doubles as a compiler self-test.
  uint32_t analyze_max_depth(uint32_t begin, uint32_t end) const {
    const size_t n = end - begin;
    std::vector<int32_t> depth(n, -1);
    if (n == 0) return 0;
    depth[0] = 0;
    int32_t max_depth = 0;
    auto propagate = [&](uint32_t abs_target, int32_t d) {
      FORAY_CHECK(abs_target >= begin && abs_target < end,
                  "jump target escapes its code segment");
      int32_t& slot = depth[abs_target - begin];
      if (slot == -1) {
        slot = d;
      } else {
        FORAY_CHECK(slot == d, "inconsistent operand depth at a join");
      }
    };
    for (size_t i = 0; i < n; ++i) {
      const int32_t d = depth[i];
      if (d < 0) continue;  // dead code (e.g. behind ThrowUnbound)
      const Insn& in = out_.code[begin + i];
      const int32_t eff = stack_effect(in);
      if (eff == INT32_MIN) continue;  // no fall-through
      const int32_t after = d + eff;
      FORAY_CHECK(after >= 0, "operand stack underflow in compiled code");
      if (d + 1 > max_depth) max_depth = d + 1;  // transient peek room
      if (after > max_depth) max_depth = after;
      if (in.op == Op::Jump) {
        propagate(in.a, after);
        continue;
      }
      if (in.op == Op::JumpIfFalse || in.op == Op::JumpIfTrue) {
        propagate(in.a, after);
      }
      if (i + 1 < n) propagate(begin + static_cast<uint32_t>(i) + 1, after);
    }
    return static_cast<uint32_t>(max_depth);
  }

  // -- superinstructions -----------------------------------------------------

  /// Rewrites the first instruction of every fused sequence (bytecode.h)
  /// to its superinstruction, preferring the longest. Matching reads the
  /// unfused opcodes, so sequences may overlap: an instruction inside
  /// one sequence may start another, which runs fused whenever it is
  /// dispatched itself (after a jump, or after an unfused predecessor).
  /// No sequence spans two segments, since every segment ends in
  /// ReturnOp or Halt, which no sequence contains.
  void fuse_superinstructions() {
    struct Pattern {
      Op fused;
      size_t len;
      Op parts[4];
    };
    static constexpr Pattern kPatterns[] = {
#define FORAY_VM_PATTERN2(name, a, b) {Op::name, 2, {Op::a, Op::b}},
#define FORAY_VM_PATTERN3(name, a, b, c) {Op::name, 3, {Op::a, Op::b, Op::c}},
#define FORAY_VM_PATTERN4(name, a, b, c, d) \
  {Op::name, 4, {Op::a, Op::b, Op::c, Op::d}},
        FORAY_VM_FUSED4(FORAY_VM_PATTERN4) FORAY_VM_FUSED3(FORAY_VM_PATTERN3)
            FORAY_VM_FUSED2(FORAY_VM_PATTERN2)
#undef FORAY_VM_PATTERN2
#undef FORAY_VM_PATTERN3
#undef FORAY_VM_PATTERN4
    };
    std::vector<Op> ops(out_.code.size());
    for (size_t pc = 0; pc < ops.size(); ++pc) ops[pc] = out_.code[pc].op;
    for (size_t pc = 0; pc < ops.size(); ++pc) {
      for (const Pattern& p : kPatterns) {
        if (pc + p.len <= ops.size() &&
            std::equal(p.parts, p.parts + p.len, ops.begin() + pc)) {
          out_.code[pc].op = p.fused;
          break;
        }
      }
    }
  }

  // -- emission helpers ------------------------------------------------------

  uint32_t here() const { return static_cast<uint32_t>(out_.code.size()); }

  Insn& emit(Op op, int line) {
    Insn in;
    in.op = op;
    in.line = line;
    out_.code.push_back(in);
    return out_.code.back();
  }

  static void set_type(Insn& in, const Type& t) {
    in.tbase = static_cast<uint8_t>(t.base);
    in.tptr = static_cast<uint8_t>(t.ptr);
  }

  void patch(uint32_t at, uint32_t target) { out_.code[at].a = target; }

  uint32_t pool_int(int64_t v) {
    auto it = int_index_.find(v);
    if (it != int_index_.end()) return it->second;
    uint32_t idx = static_cast<uint32_t>(out_.int_pool.size());
    out_.int_pool.push_back(v);
    int_index_[v] = idx;
    return idx;
  }

  uint32_t pool_float(double v) {
    for (size_t i = 0; i < out_.float_pool.size(); ++i) {
      if (out_.float_pool[i] == v && std::signbit(out_.float_pool[i]) ==
                                         std::signbit(v)) {
        return static_cast<uint32_t>(i);
      }
    }
    out_.float_pool.push_back(v);
    return static_cast<uint32_t>(out_.float_pool.size() - 1);
  }

  uint32_t pool_str(const std::string& s) {
    auto it = str_index_.find(s);
    if (it != str_index_.end()) return it->second;
    uint32_t idx = static_cast<uint32_t>(out_.str_pool.size());
    out_.str_pool.push_back(s);
    str_index_[s] = idx;
    return idx;
  }

  uint32_t pool_name(const std::string& s) {
    auto it = name_index_.find(s);
    if (it != name_index_.end()) return it->second;
    uint32_t idx = static_cast<uint32_t>(out_.name_pool.size());
    out_.name_pool.push_back(s);
    name_index_[s] = idx;
    return idx;
  }

  // -- top level -------------------------------------------------------------

  void compile_start() {
    out_.start_pc = here();
    // Globals allocate and initialize strictly in declaration order,
    // interleaved exactly like the tree walker's alloc_globals().
    out_.globals.reserve(prog_.globals.size());
    for (size_t g = 0; g < prog_.globals.size(); ++g) {
      const VarDecl& d = prog_.globals[g];
      const GlobalShape shape = global_shape(d);
      GlobalMeta meta;
      meta.bytes = shape.bytes;
      meta.align = shape.align;
      out_.globals.push_back(meta);
      global_meta_.push_back(SlotMeta{d.type, d.array_len >= 0, true});

      Insn& decl = emit(Op::DeclGlobal, d.line);
      decl.a = static_cast<uint32_t>(g);
      compile_initializers(d, /*global_slot=*/static_cast<int64_t>(g),
                           /*local_slot=*/-1);
    }
    const Function* main_fn = prog_.find_function("main");
    FORAY_CHECK(main_fn != nullptr, "sema guarantees main exists");
    Insn& call = emit(Op::CallFn, main_fn->line);
    call.a = func_index_.at("main");
    emit(Op::Halt, main_fn->line);
  }

  /// Initializer stores for one declaration (global or local). The slot
  /// address is pushed via PushSlotAddr ops, which emit no trace, so the
  /// store order equals the tree walker's eval-then-store.
  void compile_initializers(const VarDecl& d, int64_t global_slot,
                            int64_t local_slot) {
    const uint32_t elem = static_cast<uint32_t>(d.type.size());
    const uint32_t instr = minic::instr_addr_for_node(d.node_id);
    auto push_addr = [&](uint32_t offset) {
      Insn& in = emit(global_slot >= 0 ? Op::PushGlobalSlotAddr
                                       : Op::PushSlotAddr,
                      d.line);
      in.a = static_cast<uint32_t>(global_slot >= 0 ? global_slot
                                                    : local_slot);
      in.b = offset;
    };
    if (d.init) {
      push_addr(0);
      compile_expr(*d.init);
      Insn& st = emit(Op::StoreInit, d.line);
      st.b = instr;
      st.flags = static_cast<uint8_t>(AccessKind::Scalar);
      set_type(st, d.type);
    }
    for (size_t i = 0; i < d.init_list.size(); ++i) {
      push_addr(static_cast<uint32_t>(i) * elem);
      compile_expr(*d.init_list[i]);
      Insn& st = emit(Op::StoreInit, d.line);
      st.b = instr;
      st.flags = static_cast<uint8_t>(AccessKind::Data);
      set_type(st, d.type);
    }
  }

  void compile_function(uint32_t index, const Function& fn) {
    CompiledFunc& cf = out_.funcs[index];
    cf.entry = here();
    local_meta_.assign(cf.num_slots, SlotMeta{});
    cf.params.reserve(fn.params.size());
    for (const auto& p : fn.params) {
      const int32_t slot = res_.decl_slot[static_cast<size_t>(p.node_id)];
      FORAY_CHECK(slot >= 0, "parameter without a resolved slot");
      local_meta_[static_cast<size_t>(slot)] =
          SlotMeta{p.type, /*is_array=*/false, true};
      CompiledFunc::ParamBind pb;
      pb.slot = static_cast<uint32_t>(slot);
      pb.type = p.type;
      pb.bytes = static_cast<uint32_t>(p.type.size());
      pb.align = elem_align(pb.bytes);
      pb.instr = minic::instr_addr_for_node(p.node_id);
      cf.params.push_back(pb);
    }
    scope_depth_ = 0;
    compile_stmt(*fn.body);
    emit(Op::ReturnOp, fn.line);
  }

  // -- statements ------------------------------------------------------------

  struct LoopCtx {
    uint32_t depth;   ///< scope_depth_ just inside the loop's own scope
    int loop_id;      ///< for the LoopExit records a return unwinds through
    std::vector<uint32_t> break_jumps;
    std::vector<uint32_t> continue_jumps;
  };

  void unwind_to(uint32_t target_depth, int line) {
    FORAY_CHECK(scope_depth_ >= target_depth, "scope underflow");
    const uint32_t n = scope_depth_ - target_depth;
    if (n > 0) {
      Insn& in = emit(Op::RestoreSpN, line);
      in.a = n;
    }
  }

  void compile_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Expr:
        if (s.expr) {
          compile_expr(*s.expr);
          emit(Op::PopV, s.line);
        }
        return;
      case StmtKind::Decl:
        for (const VarDecl& d : s.decls) {
          const int32_t slot =
              res_.decl_slot[static_cast<size_t>(d.node_id)];
          FORAY_CHECK(slot >= 0, "declaration without a resolved slot");
          local_meta_[static_cast<size_t>(slot)] =
              SlotMeta{d.type, d.array_len >= 0, true};
          const uint32_t elem = static_cast<uint32_t>(d.type.size());
          Insn& in = emit(Op::DeclLocal, d.line);
          in.a = static_cast<uint32_t>(slot);
          in.b = d.array_len >= 0 ? elem * static_cast<uint32_t>(d.array_len)
                                  : elem;
          in.flags = static_cast<uint8_t>(elem_align(elem));
          compile_initializers(d, /*global_slot=*/-1, slot);
        }
        return;
      case StmtKind::If: {
        compile_expr(*s.cond);
        const uint32_t jf = here();
        emit(Op::JumpIfFalse, s.line);
        compile_stmt(*s.then_branch);
        if (s.else_branch) {
          const uint32_t jend = here();
          emit(Op::Jump, s.line);
          patch(jf, here());
          compile_stmt(*s.else_branch);
          patch(jend, here());
        } else {
          patch(jf, here());
        }
        return;
      }
      case StmtKind::While:
      case StmtKind::DoWhile:
      case StmtKind::For:
        compile_loop(s);
        return;
      case StmtKind::Block: {
        emit(Op::SaveSp, s.line);
        ++scope_depth_;
        for (const auto& st : s.stmts) compile_stmt(*st);
        --scope_depth_;
        emit(Op::RestoreSp, s.line);
        return;
      }
      case StmtKind::Return:
        if (s.expr) {
          compile_expr(*s.expr);
          emit(Op::RetValue, s.line);
        }
        // Returning unwinds every enclosing loop; each emits its
        // LoopExit checkpoint innermost-first, as exec_loop does when
        // Flow::Return propagates outward.
        for (auto it = loops_.rbegin(); it != loops_.rend(); ++it) {
          checkpoint(CheckpointType::LoopExit, it->loop_id, s.line);
        }
        emit(Op::ReturnOp, s.line);
        return;
      case StmtKind::Break:
        // Sema rejects break/continue outside loops.
        FORAY_CHECK(!loops_.empty(), "break outside a loop");
        unwind_to(loops_.back().depth, s.line);
        loops_.back().break_jumps.push_back(here());
        emit(Op::Jump, s.line);
        return;
      case StmtKind::Continue:
        FORAY_CHECK(!loops_.empty(), "continue outside a loop");
        unwind_to(loops_.back().depth, s.line);
        loops_.back().continue_jumps.push_back(here());
        emit(Op::Jump, s.line);
        return;
      case StmtKind::Empty:
        return;
    }
    FORAY_CHECK(false, "unreachable statement kind");
  }

  void checkpoint(CheckpointType t, int loop_id, int line) {
    if (loop_id < 0) return;  // unannotated loops never emit checkpoints
    Insn& in = emit(Op::CheckpointOp, line);
    in.flags = static_cast<uint8_t>(t);
    in.a = static_cast<uint32_t>(loop_id);
  }

  /// Lowers the three loop forms with the exact record order of the
  /// tree walker's exec_loop(): the condition of iteration N+1 always
  /// evaluates between BodyEnd(N) and BodyBegin(N+1); for-steps run
  /// after BodyEnd; break exits run the LoopExit checkpoint.
  void compile_loop(const Stmt& s) {
    emit(Op::SaveSp, s.line);
    ++scope_depth_;
    loops_.push_back(LoopCtx{scope_depth_, s.loop_id, {}, {}});
    checkpoint(CheckpointType::LoopEnter, s.loop_id, s.line);

    if (s.kind == StmtKind::For && s.init) compile_stmt(*s.init);

    uint32_t cond_jump = 0;
    bool has_cond_jump = false;
    uint32_t top;
    if (s.kind == StmtKind::DoWhile) {
      top = here();  // body first; the condition joins the back edge
    } else {
      top = here();
      if (s.cond) {
        compile_expr(*s.cond);
        cond_jump = here();
        emit(Op::JumpIfFalse, s.line);
        has_cond_jump = true;
      }
    }

    checkpoint(CheckpointType::BodyBegin, s.loop_id, s.line);
    compile_stmt(*s.body);

    const uint32_t body_end = here();
    checkpoint(CheckpointType::BodyEnd, s.loop_id, s.line);
    if (s.kind == StmtKind::For && s.step) {
      compile_expr(*s.step);
      emit(Op::PopV, s.line);
    }
    if (s.kind == StmtKind::DoWhile) {
      compile_expr(*s.cond);
      Insn& jt = emit(Op::JumpIfTrue, s.line);
      jt.a = top;
    } else {
      Insn& j = emit(Op::Jump, s.line);
      j.a = top;
    }

    const uint32_t exit_pc = here();
    checkpoint(CheckpointType::LoopExit, s.loop_id, s.line);
    --scope_depth_;
    emit(Op::RestoreSp, s.line);

    LoopCtx ctx = std::move(loops_.back());
    loops_.pop_back();
    if (has_cond_jump) patch(cond_jump, exit_pc);
    for (uint32_t at : ctx.break_jumps) patch(at, exit_pc);
    for (uint32_t at : ctx.continue_jumps) patch(at, body_end);
  }

  // -- expressions -----------------------------------------------------------

  struct SlotMeta {
    Type type;
    bool is_array = false;
    bool known = false;
  };

  const SlotMeta& meta_for(const VarResolution::Binding& b) const {
    const SlotMeta& m = b.global
                            ? global_meta_[static_cast<size_t>(b.index)]
                            : local_meta_[static_cast<size_t>(b.index)];
    FORAY_CHECK(m.known, "use of a slot before its declaration compiled");
    return m;
  }

  void compile_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit: {
        Insn& in = emit(Op::PushInt, e.line);
        in.a = pool_int(e.int_val);
        return;
      }
      case ExprKind::FloatLit: {
        Insn& in = emit(Op::PushFloat, e.line);
        in.a = pool_float(e.float_val);
        return;
      }
      case ExprKind::StrLit: {
        Insn& in = emit(Op::PushStr, e.line);
        in.a = pool_str(e.str_val);
        return;
      }
      case ExprKind::Ident: {
        const VarResolution::Binding& b =
            res_.ident[static_cast<size_t>(e.node_id)];
        if (!b.resolved) {
          Insn& in = emit(Op::ThrowUnbound, e.line);
          in.a = pool_name(e.name);
          return;
        }
        const SlotMeta& m = meta_for(b);
        if (m.is_array) {
          Insn& in = emit(b.global ? Op::PushGlobalPtr : Op::PushLocalPtr,
                          e.line);
          in.a = static_cast<uint32_t>(b.index);
          in.c = pool_name(e.name);
          set_type(in, m.type);
        } else {
          Insn& in = emit(b.global ? typed(Op::LoadGlobal, Op::LoadGlobalI, m.type)
                                   : typed(Op::LoadLocal, Op::LoadLocalI, m.type),
                          e.line);
          in.a = static_cast<uint32_t>(b.index);
          in.b = minic::instr_addr_for_node(e.node_id);
          in.c = pool_name(e.name);
          set_type(in, m.type);
        }
        return;
      }
      case ExprKind::Unary:
        compile_unary(e);
        return;
      case ExprKind::Binary:
        compile_binary(e);
        return;
      case ExprKind::Assign:
        compile_assign(e);
        return;
      case ExprKind::Cond: {
        compile_expr(*e.a);
        const uint32_t jf = here();
        emit(Op::JumpIfFalse, e.line);
        compile_expr(*e.b);
        Insn& cv1 = emit(Op::ConvertOp, e.line);
        set_type(cv1, e.type);
        const uint32_t jend = here();
        emit(Op::Jump, e.line);
        patch(jf, here());
        compile_expr(*e.c);
        Insn& cv2 = emit(Op::ConvertOp, e.line);
        set_type(cv2, e.type);
        patch(jend, here());
        return;
      }
      case ExprKind::Call:
        compile_call(e);
        return;
      case ExprKind::Index: {
        compile_expr(*e.a);
        compile_expr(*e.b);
        Insn& in = emit(typed(Op::IndexLoad, Op::IndexLoadI, e.type), e.line);
        in.a = static_cast<uint32_t>(e.type.size());
        in.b = minic::instr_addr_for_node(e.node_id);
        in.flags = static_cast<uint8_t>(AccessKind::Data);
        set_type(in, e.type);
        return;
      }
      case ExprKind::Cast: {
        compile_expr(*e.a);
        Insn& in = emit(Op::ConvertOp, e.line);
        set_type(in, e.cast_type);
        return;
      }
    }
    FORAY_CHECK(false, "unreachable expression kind");
  }

  /// Emits ops leaving the lvalue's address on the value stack and
  /// returns its static facts. Mirrors the tree walker's lvalue().
  LvalueInfo compile_lvalue_addr(const Expr& e) {
    LvalueInfo lv;
    lv.instr = minic::instr_addr_for_node(e.node_id);
    switch (e.kind) {
      case ExprKind::Ident: {
        const VarResolution::Binding& b =
            res_.ident[static_cast<size_t>(e.node_id)];
        if (!b.resolved) {
          Insn& in = emit(Op::ThrowUnbound, e.line);
          in.a = pool_name(e.name);
          lv.type = e.type;
          lv.kind = AccessKind::Scalar;
          return lv;
        }
        const SlotMeta& m = meta_for(b);
        FORAY_CHECK(!m.is_array, "array is not an lvalue");
        Insn& in = emit(b.global ? Op::PushGlobalPtr : Op::PushLocalPtr,
                        e.line);
        in.a = static_cast<uint32_t>(b.index);
        in.c = pool_name(e.name);
        set_type(in, m.type);
        lv.type = m.type;
        lv.kind = AccessKind::Scalar;
        return lv;
      }
      case ExprKind::Unary:
        FORAY_CHECK(e.un_op == UnaryOp::Deref, "not an lvalue unary");
        compile_expr(*e.a);
        lv.type = e.type;
        lv.kind = AccessKind::Data;
        return lv;
      case ExprKind::Index: {
        compile_expr(*e.a);
        compile_expr(*e.b);
        Insn& in = emit(Op::IndexAddr, e.line);
        in.a = static_cast<uint32_t>(e.type.size());
        lv.type = e.type;
        lv.kind = AccessKind::Data;
        return lv;
      }
      default:
        FORAY_CHECK(false, "expression is not an lvalue");
    }
    return lv;  // unreachable
  }

  void compile_unary(const Expr& e) {
    switch (e.un_op) {
      case UnaryOp::Neg:
        compile_expr(*e.a);
        emit(Op::Neg, e.line);
        return;
      case UnaryOp::Not:
        compile_expr(*e.a);
        emit(Op::NotOp, e.line);
        return;
      case UnaryOp::BitNot:
        compile_expr(*e.a);
        emit(Op::BitNotOp, e.line);
        return;
      case UnaryOp::Deref: {
        compile_expr(*e.a);
        Insn& in = emit(Op::LoadMem, e.line);
        in.b = minic::instr_addr_for_node(e.node_id);
        in.flags = static_cast<uint8_t>(AccessKind::Data);
        set_type(in, e.type);
        return;
      }
      case UnaryOp::AddrOf: {
        // &x pushes a pointer typed by the designated object; no access
        // is emitted (the tree walker forms the Lvalue without loading).
        const Expr& a = *e.a;
        if (a.kind == ExprKind::Ident) {
          compile_lvalue_addr(a);  // PushPtr already carries the type
          return;
        }
        LvalueInfo lv = compile_lvalue_addr(a);
        Insn& in = emit(Op::CastToPtr, e.line);
        set_type(in, lv.type);
        return;
      }
      case UnaryOp::PreInc:
      case UnaryOp::PreDec:
      case UnaryOp::PostInc:
      case UnaryOp::PostDec: {
        const bool inc =
            e.un_op == UnaryOp::PreInc || e.un_op == UnaryOp::PostInc;
        const bool post =
            e.un_op == UnaryOp::PostInc || e.un_op == UnaryOp::PostDec;
        // i++ / --p on a resolved scalar variable is the single hottest
        // statement form (every loop step); fuse the address push and
        // the update into one op. The handler recomputes the pointer
        // stride from the static type, so only post/dec bits travel.
        if (e.a->kind == ExprKind::Ident) {
          const VarResolution::Binding& b =
              res_.ident[static_cast<size_t>(e.a->node_id)];
          if (b.resolved && !meta_for(b).is_array) {
            const SlotMeta& m = meta_for(b);
            Insn& in = emit(
                b.global ? Op::IncDecGlobal
                         : typed(Op::IncDecLocal, Op::IncDecLocalI, m.type),
                e.line);
            in.a = static_cast<uint32_t>(b.index);
            in.b = minic::instr_addr_for_node(e.a->node_id);
            in.c = pool_name(e.a->name);
            in.flags = static_cast<uint8_t>(AccessKind::Scalar) |
                       static_cast<uint8_t>(post ? 0x04 : 0x00) |
                       static_cast<uint8_t>(inc ? 0x00 : 0x08);
            set_type(in, m.type);
            return;
          }
        }
        LvalueInfo lv = compile_lvalue_addr(*e.a);
        int64_t delta = 1;
        if (lv.type.is_pointer()) delta = lv.type.deref().size();
        Insn& in = emit(Op::IncDec, e.line);
        in.a = static_cast<uint32_t>(
            static_cast<int32_t>(inc ? delta : -delta));
        in.b = lv.instr;
        in.flags = static_cast<uint8_t>(lv.kind) |
                   static_cast<uint8_t>(post ? 0x04 : 0x00);
        set_type(in, lv.type);
        return;
      }
    }
    FORAY_CHECK(false, "unreachable unary op");
  }

  void compile_binary(const Expr& e) {
    if (e.bin_op == BinaryOp::LogAnd) {
      compile_expr(*e.a);
      const uint32_t jf = here();
      emit(Op::JumpIfFalse, e.line);
      compile_expr(*e.b);
      emit(Op::Truthy, e.line);
      const uint32_t jend = here();
      emit(Op::Jump, e.line);
      patch(jf, here());
      Insn& zero = emit(Op::PushInt, e.line);
      zero.a = pool_int(0);
      patch(jend, here());
      return;
    }
    if (e.bin_op == BinaryOp::LogOr) {
      compile_expr(*e.a);
      const uint32_t jt = here();
      emit(Op::JumpIfTrue, e.line);
      compile_expr(*e.b);
      emit(Op::Truthy, e.line);
      const uint32_t jend = here();
      emit(Op::Jump, e.line);
      patch(jt, here());
      Insn& one = emit(Op::PushInt, e.line);
      one.a = pool_int(1);
      patch(jend, here());
      return;
    }
    compile_expr(*e.a);
    compile_expr(*e.b);
    Insn& in = emit(binary_op(e), e.line);
    in.flags = static_cast<uint8_t>(e.bin_op);
    set_type(in, e.type);
  }

  void compile_assign(const Expr& e) {
    if (e.as_op == AssignOp::Assign) {
      // Simple assignment: address ops first (lvalue before rhs, as in
      // eval_assign), value second. The Index form fuses the address
      // computation into the store, which emits nothing by itself.
      if (e.a->kind == ExprKind::Index) {
        compile_expr(*e.a->a);
        compile_expr(*e.a->b);
        compile_expr(*e.b);
        Insn& in =
            emit(typed(Op::IndexStore, Op::IndexStoreI, e.a->type), e.line);
        in.a = static_cast<uint32_t>(e.a->type.size());
        in.b = minic::instr_addr_for_node(e.a->node_id);
        in.flags = static_cast<uint8_t>(AccessKind::Data);
        set_type(in, e.a->type);
        return;
      }
      LvalueInfo lv = compile_lvalue_addr(*e.a);
      compile_expr(*e.b);
      Insn& in = emit(Op::StoreMem, e.line);
      in.b = lv.instr;
      in.flags = static_cast<uint8_t>(lv.kind);
      set_type(in, lv.type);
      return;
    }
    BinaryOp op;
    switch (e.as_op) {
      case AssignOp::AddA: op = BinaryOp::Add; break;
      case AssignOp::SubA: op = BinaryOp::Sub; break;
      case AssignOp::MulA: op = BinaryOp::Mul; break;
      case AssignOp::DivA: op = BinaryOp::Div; break;
      case AssignOp::ModA: op = BinaryOp::Mod; break;
      case AssignOp::ShlA: op = BinaryOp::Shl; break;
      case AssignOp::ShrA: op = BinaryOp::Shr; break;
      case AssignOp::AndA: op = BinaryOp::BitAnd; break;
      case AssignOp::OrA: op = BinaryOp::BitOr; break;
      case AssignOp::XorA: op = BinaryOp::BitXor; break;
      default:
        FORAY_CHECK(false, "unreachable assign op");
        return;
    }
    LvalueInfo lv = compile_lvalue_addr(*e.a);
    Insn& ld = emit(typed(Op::CompoundLoad, Op::CompoundLoadI, lv.type), e.line);
    ld.b = lv.instr;
    ld.flags = static_cast<uint8_t>(lv.kind);
    set_type(ld, lv.type);
    compile_expr(*e.b);
    Insn& st = emit(int_operand(*e.b)
                        ? typed(Op::StoreBin, Op::StoreBinI, lv.type)
                        : Op::StoreBin,
                    e.line);
    st.b = lv.instr;
    st.flags = static_cast<uint8_t>(lv.kind) |
               static_cast<uint8_t>(static_cast<uint8_t>(op) << 2);
    set_type(st, lv.type);
  }

  void compile_call(const Expr& e) {
    for (const auto& a : e.args) compile_expr(*a);
    // Intrinsics shadow user functions, matching eval_call's dispatch.
    if (auto intr = minic::find_intrinsic(e.name)) {
      Insn& in = emit(Op::CallIntr, e.line);
      in.a = static_cast<uint32_t>(intr->id);
      in.b = minic::instr_addr_for_node(e.node_id);
      in.flags = static_cast<uint8_t>(e.args.size());
      return;
    }
    auto it = func_index_.find(e.name);
    FORAY_CHECK(it != func_index_.end(), "sema guarantees function exists");
    Insn& in = emit(Op::CallFn, e.line);
    in.a = it->second;
  }

  const Program& prog_;
  VarResolution res_;
  CompiledProgram out_;
  std::unordered_map<std::string, uint32_t> func_index_;
  std::unordered_map<int64_t, uint32_t> int_index_;
  std::unordered_map<std::string, uint32_t> str_index_;
  std::unordered_map<std::string, uint32_t> name_index_;
  std::vector<SlotMeta> global_meta_;
  std::vector<SlotMeta> local_meta_;
  std::vector<LoopCtx> loops_;
  uint32_t scope_depth_ = 0;
};

}  // namespace

CompiledProgram compile_program(const minic::Program& prog) {
  return Compiler(prog).run();
}

}  // namespace foray::sim
