// The tree-walking reference interpreter (the "oracle" the bytecode VM,
// sim/vm.cpp, is differentially tested against) and run_program(), the
// entry point that dispatches on RunOptions::engine.
//
// Both engines are compiled once, in this file and sim/vm.cpp, and
// deliver records through trace::Sink: they buffer them
// (RunOptions::chunk_records) and flush each chunk with one virtual
// on_chunk() call through the shared TraceEmitter (sim/exec_common.h).
// Value conversion, operator semantics, and intrinsics are shared with
// the VM through sim/exec_common.h — the engines cannot drift apart in
// what an operation does, only in how the program is walked.
#include "sim/interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "minic/intrinsics.h"
#include "sim/bytecode.h"
#include "sim/exec_common.h"
#include "sim/global_layout.h"
#include "sim/resolver.h"
#include "sim/value.h"
#include "util/rng.h"
#include "util/status.h"

namespace foray::sim {

Engine default_engine() {
  static const Engine engine = [] {
    const char* env = std::getenv("FORAY_ENGINE");
    if (env == nullptr || *env == '\0') return Engine::Bytecode;
    if (std::strcmp(env, "ast") == 0) return Engine::Ast;
    if (std::strcmp(env, "bytecode") == 0) return Engine::Bytecode;
    // An unrecognized value must not silently fall back to the default:
    // the CI matrix relies on FORAY_ENGINE=ast actually exercising the
    // reference engine, so a typo has to fail loudly, not pass green.
    std::fprintf(stderr,
                 "FORAY_ENGINE='%s' is not a known engine (use 'ast' or "
                 "'bytecode')\n",
                 env);
    std::exit(2);
  }();
  return engine;
}

namespace {
/// Validates FORAY_ENGINE at program start rather than at first
/// simulation: a CI leg whose tests happen to never simulate must
/// still fail loudly on a misspelled engine name.
const Engine kEngineValidatedEagerly = default_engine();
}  // namespace

namespace internal {

using minic::AssignOp;
using minic::BaseType;
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

enum class Flow : uint8_t { Normal, Break, Continue, Return };

struct Slot {
  uint32_t addr = 0;
  Type type;          ///< element type for arrays
  bool is_array = false;
  /// Set when the declaration has executed; a resolved identifier whose
  /// slot is still unbound reproduces the "unbound identifier" fault of
  /// the old dynamic lookup.
  bool bound = false;
  int array_len = -1;
};

struct Lvalue {
  uint32_t addr = 0;
  Type type;          ///< type of the object designated
  AccessKind kind = AccessKind::Data;
  uint32_t instr = 0;
};

class Interp {
 public:
  Interp(const Program& prog, trace::Sink* sink, const RunOptions& opts)
      : prog_(prog),
        opts_(opts),
        res_(resolve_variables(prog)),
        emitter_(sink, opts_, prog.funcs.size(), res_.frame_fixed),
        mem_(opts.heap_capacity, opts.stack_capacity),
        rng_(opts.rng_seed),
        max_steps_(opts.budget.effective_max_steps()) {}

  RunResult run() {
    RunResult result;
    execute_guarded(&result, &cur_line_, [&] {
      alloc_globals();
      const Function* main_fn = prog_.find_function("main");
      FORAY_CHECK(main_fn != nullptr, "sema guarantees main exists");
      Value ret = call_function(*main_fn, {}, /*call_node=*/-1);
      result.exit_code = static_cast<int>(ret.as_int());
    });
    finalize_result(&result, &cur_line_, &emitter_, &mem_, opts_, &output_,
                    steps_);
    return result;
  }

  // -- Host interface for the shared intrinsic runner ------------------------

  Memory& memory() { return mem_; }
  util::Rng& rng() { return rng_; }

  void append_output(const std::string& s) {
    append_output_limited(&output_, opts_.max_output_bytes, s);
  }

  /// Every traced load and store goes through here; forced inline like
  /// step().
  FORAY_ALWAYS_INLINE void emit_access(uint32_t instr, uint32_t addr,
                                       uint8_t size, bool is_write,
                                       AccessKind kind) {
    emitter_.emit_access(instr, addr, size, is_write, kind);
  }

 private:
  // -- bookkeeping ----------------------------------------------------------

  /// Runs once per evaluated node, so it is forced inline and its fault
  /// kept out of line: left to GCC's heuristics, it stays a call.
  FORAY_ALWAYS_INLINE void step() {
    if (++steps_ > max_steps_) step_limit_fault();
  }

  [[noreturn]] void step_limit_fault() {
    throw RuntimeError("step limit exceeded (" +
                           std::to_string(opts_.budget.max_steps) + ")",
                       util::ErrorCode::kResourceExhausted);
  }

  // -- environment ----------------------------------------------------------
  //
  // Variables are pre-resolved (sim/resolver.h): globals live in a flat
  // table, locals in one arena indexed by frame base + static slot.

  struct Frame {
    uint32_t saved_sp;
    size_t locals_base;
    Value ret_value = Value::of_int(0);
  };

  /// Runs for every identifier evaluated; forced inline like step().
  FORAY_ALWAYS_INLINE const Slot* lookup(const Expr& e) const {
    const VarResolution::Binding& b =
        res_.ident[static_cast<size_t>(e.node_id)];
    if (b.resolved) {
      const Slot* slot;
      if (b.global) {
        slot = &global_slots_[static_cast<size_t>(b.index)];
      } else {
        FORAY_CHECK(!frames_.empty(), "local reference outside any frame");
        slot = &locals_arena_[frames_.back().locals_base +
                              static_cast<size_t>(b.index)];
      }
      if (slot->bound) return slot;
    }
    throw_unbound(e);
  }

  [[noreturn]] static void throw_unbound(const Expr& e) {
    throw RuntimeError("unbound identifier '" + e.name + "'");
  }

  void alloc_globals() {
    global_slots_.reserve(static_cast<size_t>(res_.globals));
    for (const VarDecl& d : prog_.globals) {
      Slot slot;
      slot.type = d.type;
      slot.is_array = d.array_len >= 0;
      slot.array_len = d.array_len;
      slot.bound = true;
      const GlobalShape shape = global_shape(d);
      slot.addr = mem_.alloc_global(shape.bytes, shape.align);
      global_slots_.push_back(slot);
      init_slot(slot, d);
    }
  }

  /// Runs a declaration's initializer(s), emitting the stores.
  void init_slot(const Slot& slot, const VarDecl& d) {
    // Initializer stores are emitted under the declaration's own node
    // id: the init expression's accesses must stay a separate reference.
    uint32_t elem = static_cast<uint32_t>(d.type.size());
    if (d.init) {
      Value v = eval(*d.init);
      Lvalue lv{slot.addr, d.type, AccessKind::Scalar,
                minic::instr_addr_for_node(d.node_id)};
      store(lv, v);
    }
    for (size_t i = 0; i < d.init_list.size(); ++i) {
      Value v = eval(*d.init_list[i]);
      Lvalue lv{slot.addr + static_cast<uint32_t>(i) * elem, d.type,
                AccessKind::Data,
                minic::instr_addr_for_node(d.node_id)};
      store(lv, v);
    }
  }

  Slot alloc_local(const VarDecl& d) {
    Slot slot;
    slot.type = d.type;
    slot.is_array = d.array_len >= 0;
    slot.array_len = d.array_len;
    slot.bound = true;
    uint32_t elem = static_cast<uint32_t>(d.type.size());
    uint32_t bytes =
        slot.is_array ? elem * static_cast<uint32_t>(d.array_len) : elem;
    slot.addr = mem_.stack_alloc(bytes, elem >= 4 ? 4 : elem);
    FORAY_CHECK(!frames_.empty(), "local declared outside any frame");
    const int32_t idx = res_.decl_slot[static_cast<size_t>(d.node_id)];
    FORAY_CHECK(idx >= 0, "declaration without a resolved slot");
    locals_arena_[frames_.back().locals_base + static_cast<size_t>(idx)] =
        slot;
    return slot;
  }

  // -- memory access --------------------------------------------------------

  Value load(const Lvalue& lv) {
    uint8_t sz = static_cast<uint8_t>(lv.type.size());
    emit_access(lv.instr, lv.addr, sz, /*is_write=*/false, lv.kind);
    if (lv.type.is_float()) {
      return Value::of_float(mem_.load_float(lv.addr));
    }
    Value v = Value::of_int(mem_.load_int(lv.addr, sz), lv.type);
    return v;
  }

  void store(const Lvalue& lv, const Value& v) {
    uint8_t sz = static_cast<uint8_t>(lv.type.size());
    emit_access(lv.instr, lv.addr, sz, /*is_write=*/true, lv.kind);
    if (lv.type.is_float()) {
      mem_.store_float(lv.addr, v.as_float());
    } else {
      mem_.store_int(lv.addr, sz, v.as_int());
    }
  }

  // -- expression evaluation ------------------------------------------------

  Value convert(const Value& v, const Type& t) { return convert_value(v, t); }

  Lvalue lvalue(const Expr& e) {
    step();
    cur_line_ = e.line;
    switch (e.kind) {
      case ExprKind::Ident: {
        const Slot* slot = lookup(e);
        FORAY_CHECK(!slot->is_array, "array is not an lvalue");
        return Lvalue{slot->addr, slot->type, AccessKind::Scalar,
                      minic::instr_addr_for_node(e.node_id)};
      }
      case ExprKind::Unary: {
        FORAY_CHECK(e.un_op == UnaryOp::Deref, "not an lvalue unary");
        Value p = eval(*e.a);
        return Lvalue{p.as_addr(), e.type, AccessKind::Data,
                      minic::instr_addr_for_node(e.node_id)};
      }
      case ExprKind::Index: {
        Value base = eval(*e.a);
        Value idx = eval(*e.b);
        uint32_t elem = static_cast<uint32_t>(e.type.size());
        uint32_t addr = base.as_addr() +
                        static_cast<uint32_t>(idx.as_int()) * elem;
        return Lvalue{addr, e.type, AccessKind::Data,
                      minic::instr_addr_for_node(e.node_id)};
      }
      default:
        throw RuntimeError("expression is not an lvalue");
    }
  }

  Value eval(const Expr& e) {
    step();
    cur_line_ = e.line;
    switch (e.kind) {
      case ExprKind::IntLit:
        return Value::of_int(e.int_val);
      case ExprKind::FloatLit:
        return Value::of_float(e.float_val);
      case ExprKind::StrLit: {
        auto it = interned_.find(e.str_val);
        uint32_t addr;
        if (it == interned_.end()) {
          addr = mem_.alloc_rodata(e.str_val);
          interned_[e.str_val] = addr;
        } else {
          addr = it->second;
        }
        return Value::of_ptr(addr, minic::make_type(BaseType::Char));
      }
      case ExprKind::Ident: {
        const Slot* slot = lookup(e);
        if (slot->is_array) {
          return Value::of_ptr(slot->addr, slot->type);
        }
        Lvalue lv{slot->addr, slot->type, AccessKind::Scalar,
                  minic::instr_addr_for_node(e.node_id)};
        return load(lv);
      }
      case ExprKind::Unary:
        return eval_unary(e);
      case ExprKind::Binary:
        return eval_binary(e);
      case ExprKind::Assign:
        return eval_assign(e);
      case ExprKind::Cond:
        return eval(*e.a).truthy() ? convert(eval(*e.b), e.type)
                                   : convert(eval(*e.c), e.type);
      case ExprKind::Call:
        return eval_call(e);
      case ExprKind::Index: {
        Lvalue lv = lvalue(e);
        return load(lv);
      }
      case ExprKind::Cast:
        return convert(eval(*e.a), e.cast_type);
    }
    throw RuntimeError("unreachable expression kind");
  }

  Value eval_unary(const Expr& e) {
    switch (e.un_op) {
      case UnaryOp::Neg: {
        Value v = eval(*e.a);
        if (v.is_float()) return Value::of_float(-v.f);
        return Value::of_int(-v.i, v.type);
      }
      case UnaryOp::Not:
        return Value::of_int(eval(*e.a).truthy() ? 0 : 1);
      case UnaryOp::BitNot:
        return Value::of_int(~eval(*e.a).as_int());
      case UnaryOp::Deref: {
        Lvalue lv = lvalue(e);
        return load(lv);
      }
      case UnaryOp::AddrOf: {
        Lvalue lv = lvalue(*e.a);
        return Value::of_ptr(lv.addr, lv.type);
      }
      case UnaryOp::PreInc:
      case UnaryOp::PreDec:
      case UnaryOp::PostInc:
      case UnaryOp::PostDec: {
        Lvalue lv = lvalue(*e.a);
        Value old = load(lv);
        int64_t delta = 1;
        if (lv.type.is_pointer()) delta = lv.type.deref().size();
        bool inc = e.un_op == UnaryOp::PreInc || e.un_op == UnaryOp::PostInc;
        Value updated = convert(
            Value::of_int(old.as_int() + (inc ? delta : -delta), lv.type),
            lv.type);
        store(lv, updated);
        bool post = e.un_op == UnaryOp::PostInc ||
                    e.un_op == UnaryOp::PostDec;
        return post ? old : updated;
      }
    }
    throw RuntimeError("unreachable unary op");
  }

  Value eval_binary(const Expr& e) {
    if (e.bin_op == BinaryOp::LogAnd) {
      if (!eval(*e.a).truthy()) return Value::of_int(0);
      return Value::of_int(eval(*e.b).truthy() ? 1 : 0);
    }
    if (e.bin_op == BinaryOp::LogOr) {
      if (eval(*e.a).truthy()) return Value::of_int(1);
      return Value::of_int(eval(*e.b).truthy() ? 1 : 0);
    }
    Value a = eval(*e.a);
    Value b = eval(*e.b);
    return apply_binary_op(e.bin_op, a, b, e.type);
  }

  Value eval_assign(const Expr& e) {
    Lvalue lv = lvalue(*e.a);
    if (e.as_op == AssignOp::Assign) {
      Value v = convert(eval(*e.b), lv.type);
      store(lv, v);
      return v;
    }
    Value old = load(lv);
    Value rhs = eval(*e.b);
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
        throw RuntimeError("unreachable assign op");
    }
    Value v = convert(apply_binary_op(op, old, rhs, lv.type), lv.type);
    store(lv, v);
    return v;
  }

  // -- calls ----------------------------------------------------------------

  Value eval_call(const Expr& e) {
    std::vector<Value> args;
    args.reserve(e.args.size());
    for (const auto& a : e.args) args.push_back(eval(*a));
    if (auto intr = minic::find_intrinsic(e.name)) {
      return run_intrinsic(*this, intr->id,
                           minic::instr_addr_for_node(e.node_id), e.line,
                           args.data(), args.size());
    }
    const Function* fn = prog_.find_function(e.name);
    FORAY_CHECK(fn != nullptr, "sema guarantees function exists");
    return call_function(*fn, args, e.node_id);
  }

  Value call_function(const Function& fn, const std::vector<Value>& args,
                      int call_node) {
    (void)call_node;
    if (frames_.size() >= 512) {
      throw RuntimeError("simulated call depth limit exceeded in '" +
                         fn.name + "'");
    }
    emitter_.emit_call(fn.func_id, mem_.sp());
    Frame frame;
    frame.saved_sp = mem_.sp();
    frame.locals_base = locals_arena_.size();
    frames_.push_back(frame);
    locals_arena_.resize(
        frame.locals_base +
        static_cast<size_t>(res_.func_slots[static_cast<size_t>(fn.func_id)]));
    // Bind parameters: a real compiler stores arguments to the callee's
    // frame; the resulting Scalar writes are the paper's "placing
    // arguments to the stack" references that Step 4 filters out.
    for (size_t i = 0; i < fn.params.size(); ++i) {
      VarDecl pd;
      pd.name = fn.params[i].name;
      pd.type = fn.params[i].type;
      pd.node_id = fn.params[i].node_id;
      Slot slot = alloc_local(pd);
      Lvalue lv{slot.addr, slot.type, AccessKind::Scalar,
                minic::instr_addr_for_node(fn.params[i].node_id)};
      store(lv, convert(args[i], slot.type));
    }
    Flow flow = exec(*fn.body);
    (void)flow;
    Value ret = frames_.back().ret_value;
    mem_.set_sp(frames_.back().saved_sp);
    locals_arena_.resize(frames_.back().locals_base);
    frames_.pop_back();
    emitter_.emit_ret(fn.func_id);
    if (!fn.ret.is_void()) ret = convert(ret, fn.ret);
    return ret;
  }

  // -- statements -----------------------------------------------------------

  Flow exec(const Stmt& s) {
    step();
    cur_line_ = s.line;
    switch (s.kind) {
      case StmtKind::Expr:
        if (s.expr) eval(*s.expr);
        return Flow::Normal;
      case StmtKind::Decl:
        for (const VarDecl& d : s.decls) {
          Slot slot = alloc_local(d);
          init_slot(slot, d);
        }
        return Flow::Normal;
      case StmtKind::If:
        if (eval(*s.cond).truthy()) return exec(*s.then_branch);
        if (s.else_branch) return exec(*s.else_branch);
        return Flow::Normal;
      case StmtKind::While:
      case StmtKind::DoWhile:
      case StmtKind::For:
        return exec_loop(s);
      case StmtKind::Block: {
        // Scoping is pre-resolved; only the stack watermark needs undo.
        uint32_t saved_sp = mem_.sp();
        Flow flow = Flow::Normal;
        for (const auto& st : s.stmts) {
          flow = exec(*st);
          if (flow != Flow::Normal) break;
        }
        mem_.set_sp(saved_sp);
        return flow;
      }
      case StmtKind::Return:
        if (s.expr) frames_.back().ret_value = eval(*s.expr);
        return Flow::Return;
      case StmtKind::Break:
        return Flow::Break;
      case StmtKind::Continue:
        return Flow::Continue;
      case StmtKind::Empty:
        return Flow::Normal;
    }
    throw RuntimeError("unreachable statement kind");
  }

  Flow exec_loop(const Stmt& s) {
    uint32_t saved_sp = mem_.sp();
    emitter_.emit_checkpoint(CheckpointType::LoopEnter, s.loop_id);

    Flow out = Flow::Normal;
    if (s.kind == StmtKind::For && s.init) {
      Flow f = exec(*s.init);
      FORAY_CHECK(f == Flow::Normal, "for-init cannot break");
    }
    bool first = true;
    for (;;) {
      if (s.kind == StmtKind::DoWhile && first) {
        // do-while runs the body before the first condition check.
      } else if (s.kind == StmtKind::DoWhile || s.cond != nullptr) {
        if (!eval(*s.cond).truthy()) break;
      } else if (s.kind == StmtKind::For && s.cond == nullptr) {
        // for(;;): no condition — runs until break/return.
      }
      first = false;
      emitter_.emit_checkpoint(CheckpointType::BodyBegin, s.loop_id);
      Flow flow = exec(*s.body);
      if (flow == Flow::Break) break;
      if (flow == Flow::Return) {
        out = Flow::Return;
        break;
      }
      emitter_.emit_checkpoint(CheckpointType::BodyEnd, s.loop_id);
      if (s.kind == StmtKind::For && s.step) eval(*s.step);
    }

    emitter_.emit_checkpoint(CheckpointType::LoopExit, s.loop_id);
    mem_.set_sp(saved_sp);
    return out;
  }

  const Program& prog_;
  RunOptions opts_;
  VarResolution res_;
  TraceEmitter emitter_;
  Memory mem_;
  util::Rng rng_;
  std::vector<Slot> global_slots_;
  std::vector<Slot> locals_arena_;
  std::unordered_map<std::string, uint32_t> interned_;
  std::vector<Frame> frames_;
  std::string output_;
  uint64_t steps_ = 0;
  const uint64_t max_steps_;  ///< budget.effective_max_steps(), cached
  int cur_line_ = 0;
};

}  // namespace internal

RunResult run_program(const minic::Program& prog, trace::Sink* sink,
                      const RunOptions& opts) {
  trace::NullSink null_sink;
  trace::Sink* s = sink != nullptr ? sink : &null_sink;
  if (opts.engine == Engine::Bytecode) {
    return run_compiled_with(compile_program(prog), s, opts);
  }
  internal::Interp interp(prog, s, opts);
  return interp.run();
}

}  // namespace foray::sim
