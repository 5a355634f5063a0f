// Execution semantics shared by both MiniC engines.
//
// The AST interpreter (sim/interpreter.cpp) and the bytecode VM (sim/vm.cpp)
// must produce bit-identical traces, outputs, and memory images — the
// differential harness (tests/engine_equivalence_test.cpp) enforces it.
// Everything whose behavior could plausibly drift between the two lives
// here exactly once: value conversion, binary-operator semantics
// (including pointer scaling and the divide-by-zero faults), intrinsic
// execution, and the chunked record transport. The engines differ only
// in how they walk the program, never in what an operation does.
//
// The intrinsic runner is templated on a Host concept implemented by
// both engines:
//   Memory&      memory();
//   util::Rng&   rng();
//   void         append_output(const std::string&);
//   void         emit_access(uint32_t instr, uint32_t addr, uint8_t size,
//                            bool is_write, trace::AccessKind kind);
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "minic/ast.h"
#include "minic/intrinsics.h"
#include "sim/interpreter.h"
#include "sim/memory.h"
#include "sim/value.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/status.h"

namespace foray::sim::internal {

/// Thrown by the exit() intrinsic to unwind the whole simulation.
struct ExitSignal {
  int code;
};

FORAY_ALWAYS_INLINE Value convert_value(const Value& v,
                                        const minic::Type& t) {
  using minic::BaseType;
  if (t.is_float()) return Value::of_float(v.as_float());
  if (t.is_pointer()) {
    Value out = v;
    out.type = t;
    out.i = static_cast<int64_t>(v.as_addr());
    return out;
  }
  int64_t x = v.as_int();
  switch (t.base) {
    case BaseType::Char: x = static_cast<int8_t>(x); break;
    case BaseType::Short: x = static_cast<int16_t>(x); break;
    case BaseType::Int: x = static_cast<int32_t>(x); break;
    default: break;
  }
  return Value::of_int(x, t);
}

/// What a binary operation may assume about its operands' runtime tags:
/// nothing (kAny), or that both carry an integer tag, neither a float
/// nor a pointer one (kInt, the VM's int-typed ops).
enum class Operands { kAny, kInt };

/// One binary operator, fixed at compile time. The kInt form is the
/// integer arm of the kAny form with the tag tests folded away, so it
/// keeps its result tags (Add, Sub, Mul and Div carry `result_type`,
/// the rest are plain int) and its divide-by-zero faults.
template <minic::BinaryOp Op, Operands kOperands = Operands::kAny>
FORAY_ALWAYS_INLINE Value apply_binary(const Value& a, const Value& b,
                                       const minic::Type& result_type) {
  using minic::BinaryOp;
  constexpr bool kAnyTags = kOperands == Operands::kAny;
  if constexpr (kAnyTags && (Op == BinaryOp::Add || Op == BinaryOp::Sub)) {
    // Pointer arithmetic scales by pointee size.
    if (a.type.is_pointer() && b.type.is_pointer()) {
      FORAY_CHECK(Op == BinaryOp::Sub, "sema rejects ptr+ptr");
      int64_t sz = a.type.deref().size();
      if (sz == 0) sz = 1;
      return Value::of_int((a.i - b.i) / sz);
    }
    if (a.type.is_pointer()) {
      int64_t sz = a.type.deref().size();
      int64_t off = b.as_int() * sz;
      return Value::of_int(Op == BinaryOp::Add ? a.i + off : a.i - off,
                           a.type);
    }
    if (b.type.is_pointer()) {
      int64_t sz = b.type.deref().size();
      return Value::of_int(b.i + a.as_int() * sz, b.type);
    }
  }
  // Not every operator reads both; as_int() of an integer-tagged value
  // is its payload.
  [[maybe_unused]] const bool flt =
      kAnyTags && (a.is_float() || b.is_float());
  [[maybe_unused]] const auto as_int = [](const Value& v) {
    return kAnyTags ? v.as_int() : v.i;
  };
  if constexpr (Op == BinaryOp::Add) {
    return flt ? Value::of_float(a.as_float() + b.as_float())
               : Value::of_int(a.i + b.i, result_type);
  } else if constexpr (Op == BinaryOp::Sub) {
    return flt ? Value::of_float(a.as_float() - b.as_float())
               : Value::of_int(a.i - b.i, result_type);
  } else if constexpr (Op == BinaryOp::Mul) {
    return flt ? Value::of_float(a.as_float() * b.as_float())
               : Value::of_int(a.i * b.i, result_type);
  } else if constexpr (Op == BinaryOp::Div) {
    if (flt) return Value::of_float(a.as_float() / b.as_float());
    if (b.i == 0) throw RuntimeError("integer division by zero");
    return Value::of_int(a.i / b.i, result_type);
  } else if constexpr (Op == BinaryOp::Mod) {
    if (as_int(b) == 0) throw RuntimeError("modulo by zero");
    return Value::of_int(as_int(a) % as_int(b));
  } else if constexpr (Op == BinaryOp::Shl) {
    return Value::of_int(as_int(a) << (as_int(b) & 63));
  } else if constexpr (Op == BinaryOp::Shr) {
    return Value::of_int(as_int(a) >> (as_int(b) & 63));
  } else if constexpr (Op == BinaryOp::Lt) {
    return Value::of_int(flt ? a.as_float() < b.as_float() : a.i < b.i);
  } else if constexpr (Op == BinaryOp::Gt) {
    return Value::of_int(flt ? a.as_float() > b.as_float() : a.i > b.i);
  } else if constexpr (Op == BinaryOp::Le) {
    return Value::of_int(flt ? a.as_float() <= b.as_float() : a.i <= b.i);
  } else if constexpr (Op == BinaryOp::Ge) {
    return Value::of_int(flt ? a.as_float() >= b.as_float() : a.i >= b.i);
  } else if constexpr (Op == BinaryOp::Eq) {
    return Value::of_int(flt ? a.as_float() == b.as_float() : a.i == b.i);
  } else if constexpr (Op == BinaryOp::Ne) {
    return Value::of_int(flt ? a.as_float() != b.as_float() : a.i != b.i);
  } else if constexpr (Op == BinaryOp::BitAnd) {
    return Value::of_int(as_int(a) & as_int(b));
  } else if constexpr (Op == BinaryOp::BitOr) {
    return Value::of_int(as_int(a) | as_int(b));
  } else if constexpr (Op == BinaryOp::BitXor) {
    return Value::of_int(as_int(a) ^ as_int(b));
  } else {
    // LogAnd / LogOr: the engines lower the short circuit to jumps.
    throw RuntimeError("unreachable binary op");
  }
}

/// A binary operator chosen at run time: dispatches into apply_binary.
template <Operands kOperands = Operands::kAny>
FORAY_ALWAYS_INLINE Value apply_binary_op(minic::BinaryOp op, const Value& a,
                                          const Value& b,
                                          const minic::Type& result_type) {
  using minic::BinaryOp;
  switch (op) {
#define FORAY_BINARY_CASE(name) \
  case BinaryOp::name:          \
    return apply_binary<BinaryOp::name, kOperands>(a, b, result_type);
    FORAY_BINARY_CASE(Add)
    FORAY_BINARY_CASE(Sub)
    FORAY_BINARY_CASE(Mul)
    FORAY_BINARY_CASE(Div)
    FORAY_BINARY_CASE(Mod)
    FORAY_BINARY_CASE(Shl)
    FORAY_BINARY_CASE(Shr)
    FORAY_BINARY_CASE(Lt)
    FORAY_BINARY_CASE(Gt)
    FORAY_BINARY_CASE(Le)
    FORAY_BINARY_CASE(Ge)
    FORAY_BINARY_CASE(Eq)
    FORAY_BINARY_CASE(Ne)
    FORAY_BINARY_CASE(BitAnd)
    FORAY_BINARY_CASE(BitOr)
    FORAY_BINARY_CASE(BitXor)
#undef FORAY_BINARY_CASE
    case BinaryOp::LogAnd:
    case BinaryOp::LogOr:
      break;  // handled by the engines (short circuit)
  }
  throw RuntimeError("unreachable binary op");
}

// -- chunked record transport -------------------------------------------------
//
// Records collect in a small local buffer and are handed to the sink in
// bulk: one virtual trace::Sink::on_chunk() call per chunk, none per
// record.

/// Thrown by the elision guard; execute_guarded turns it into
/// RunResult::elision_stopped.
struct ElisionStop {};

/// The elision guard (RunOptions::elide_below_bases): each function's
/// distinct frame bases, up to the limit. O(1) per call while a function
/// keeps re-entering at its last base, O(limit) otherwise; its memory is
/// bounded by kMaxElisionBases per function, whatever Nloc is.
class FrameBaseGuard {
 public:
  FrameBaseGuard(size_t functions, uint32_t limit)
      : limit_(std::min(limit, kMaxElisionBases)), funcs_(functions) {}

  /// A call of `func` whose frame starts at `base`. Throws ElisionStop
  /// when `func` reaches the limit of distinct bases.
  FORAY_ALWAYS_INLINE void enter(int32_t func, uint32_t base) {
    Bases& b = funcs_[static_cast<size_t>(func)];
    if (b.count != 0 && b.last == base) return;
    enter_new(b, base);
  }

 private:
  struct Bases {
    uint32_t last = 0;
    uint32_t count = 0;
    uint32_t seen[kMaxElisionBases];
  };

  void enter_new(Bases& b, uint32_t base) {
    b.last = base;
    for (uint32_t i = 0; i < b.count; ++i) {
      if (b.seen[i] == base) return;
    }
    if (b.count + 1 >= limit_) throw ElisionStop{};
    b.seen[b.count++] = base;
  }

  const uint32_t limit_;
  std::vector<Bases> funcs_;
};

class TraceEmitter {
 public:
  /// `functions` and `frame_fixed` describe the program for the elision
  /// guard: its function count and VarResolution::frame_fixed.
  TraceEmitter(trace::Sink* sink, const RunOptions& opts, size_t functions,
               bool frame_fixed)
      : sink_(sink),
        chunk_(std::max<size_t>(opts.chunk_records, 1)),
        replay_view_(opts.replay_view),
        elide_(opts.elide_below_bases != 0 && frame_fixed),
        guard_(elide_ ? functions : 0, opts.elide_below_bases),
        max_records_(opts.budget.max_records),
        timeout_seconds_(opts.budget.timeout_seconds),
        cancel_(opts.budget.cancel.get()) {
    // Budget checks run only every chunk_records records of the full
    // trace (the "budget plus one chunk" contract), and only when some
    // check is actually armed: an unbudgeted, unfaulted run pays a
    // single bool test per record.
    chunk_checked_ = opts.budget.chunk_checked() || util::fault::enabled();
    if (opts.budget.has_deadline()) {
      const auto start =
          opts.budget.clock_start != std::chrono::steady_clock::time_point{}
              ? opts.budget.clock_start
              : std::chrono::steady_clock::now();
      deadline_ = start + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(timeout_seconds_));
    }
  }

  FORAY_ALWAYS_INLINE void push(const trace::Record& r) {
    chunk_[len_++] = r;
    if (len_ == chunk_.size()) flush();
    tick();
  }

  void flush() {
    if (len_ != 0) {
      sink_->on_chunk(chunk_.data(), len_);
      records_ += len_;
      len_ = 0;
    }
  }

  void check_budget() {
    if (util::fault::enabled()) {
      // "sim.slow" models a stalling simulated program: each check
      // sleeps `param` milliseconds, so a wall-clock deadline trips.
      const util::fault::Hit h = util::fault::hit("sim.slow");
      if (h.fired) {
        std::this_thread::sleep_for(std::chrono::milliseconds(h.param));
      }
    }
    if (cancel_ != nullptr && cancel_->cancelled()) {
      throw RuntimeError("run cancelled", util::ErrorCode::kCancelled);
    }
    if (max_records_ != 0 && records_ + len_ + elided_ >= max_records_) {
      throw RuntimeError(
          "trace record budget exceeded (" + std::to_string(max_records_) +
              " records)",
          util::ErrorCode::kResourceExhausted);
    }
    if (timeout_seconds_ > 0.0 &&
        std::chrono::steady_clock::now() >= deadline_) {
      char buf[48];
      std::snprintf(buf, sizeof buf, "%g", timeout_seconds_);
      throw RuntimeError(
          std::string("wall-clock budget exceeded (") + buf + "s)",
          util::ErrorCode::kDeadlineExceeded);
    }
  }

  /// Records outside the replay view (RunOptions::replay_view) return
  /// before tick(): they are not part of that trace, so they move no
  /// budget check.
  FORAY_ALWAYS_INLINE void emit_access(uint32_t instr, uint32_t addr,
                                       uint8_t size, bool is_write,
                                       trace::AccessKind kind) {
    ++accesses_;
    if (kind != trace::AccessKind::Data) {
      if (replay_view_) return;
      if (elide_ && kind == trace::AccessKind::Scalar) return skip();
    }
    push(trace::Record::access(instr, addr, size, is_write, kind));
  }

  /// BodyEnd changes no iterator, so the eliding pass skips it like a
  /// Scalar access (RunOptions::elide_below_bases). The replay view keeps
  /// LoopEnter/LoopExit only: body checkpoints are outside it.
  FORAY_ALWAYS_INLINE void emit_checkpoint(trace::CheckpointType t,
                                           int loop_id) {
    if (loop_id < 0) return;
    if (t == trace::CheckpointType::BodyBegin ||
        t == trace::CheckpointType::BodyEnd) {
      if (replay_view_) return;
      if (elide_ && t == trace::CheckpointType::BodyEnd) return skip();
    }
    push(trace::Record::checkpoint(t, loop_id));
  }

  /// A user-function call whose frame starts at `frame_base` (the stack
  /// pointer before the parameters are bound).
  FORAY_ALWAYS_INLINE void emit_call(int32_t func, uint32_t frame_base) {
    if (elide_) guard_.enter(func, frame_base);
    if (replay_view_) return;
    if (elide_) return skip();
    push(trace::Record::call(func));
  }

  FORAY_ALWAYS_INLINE void emit_ret(int32_t func) {
    if (replay_view_) return;
    if (elide_) return skip();
    push(trace::Record::ret(func));
  }

  uint64_t accesses() const { return accesses_; }

 private:
  /// One more record of the full trace, emitted or elided. Budget checks
  /// run after every chunk_records of them, so they fall at the same
  /// points with and without elision. Check-after-delivery: a faulted
  /// run's trace still contains everything up to the fault, and
  /// finalize_result's epilogue flush() runs no budget check.
  FORAY_ALWAYS_INLINE void tick() {
    if (chunk_checked_ && ++unchecked_ == chunk_.size()) {
      unchecked_ = 0;
      check_budget();
    }
  }

  FORAY_ALWAYS_INLINE void skip() {
    ++elided_;
    tick();
  }

  trace::Sink* sink_;
  std::vector<trace::Record> chunk_;
  size_t len_ = 0;
  size_t unchecked_ = 0;  ///< full-trace records since the last check
  uint64_t accesses_ = 0;
  uint64_t records_ = 0;  ///< delivered to the sink
  uint64_t elided_ = 0;
  const bool replay_view_, elide_;
  bool chunk_checked_ = false;
  FrameBaseGuard guard_;
  const uint64_t max_records_;
  const double timeout_seconds_;
  std::chrono::steady_clock::time_point deadline_{};
  CancelToken* cancel_;  ///< kept alive by the engine's RunOptions copy
};

// -- shared engine-host plumbing ----------------------------------------------
//
// The output limit, the fault handling, and the run() epilogue are all
// observable behavior (harness-compared), so like the operator
// semantics they exist exactly once and both engines call them.

/// Appends simulated-program output under Memory::kMaxOutputBytes.
inline void append_output_limited(std::string* out, const std::string& s) {
  if (out->size() + s.size() > Memory::kMaxOutputBytes) {
    throw RuntimeError("simulated program output limit exceeded",
                       util::ErrorCode::kResourceExhausted);
  }
  *out += s;
}

/// Runs an engine body, translating every simulated-program exit:
/// ExitSignal (the exit() intrinsic) into an exit code, ElisionStop into
/// RunResult::elision_stopped, RuntimeError
/// into a "simulation" Status at the line the engine last visited
/// (carrying the fault's error class), a sink's StatusError into its
/// carried Status verbatim, and allocation failure (a trace the host
/// cannot hold) into resource_exhausted.
template <class Fn>
void execute_guarded(RunResult* result, const int* cur_line, Fn&& body) {
  try {
    body();
  } catch (const ExitSignal& e) {
    result->exit_code = e.code;
  } catch (const ElisionStop&) {
    result->elision_stopped = true;
  } catch (const RuntimeError& e) {
    result->status =
        util::Status::failure(e.code(), "simulation", *cur_line, e.what());
  } catch (const util::StatusError& e) {
    result->status = e.status();
  } catch (const std::bad_alloc&) {
    result->status = util::Status::failure(
        util::ErrorCode::kResourceExhausted, "simulation", *cur_line,
        "out of memory during simulation");
  }
}

/// The shared run() epilogue. Flushing happens on every outcome — a
/// faulted run's trace must still contain everything up to the fault.
/// The sink can fail on that last chunk too, or fail again on a chunk
/// it refused mid-run; that failure is classified like any other, and
/// the run reports its first failure.
inline void finalize_result(RunResult* result, const int* cur_line,
                            TraceEmitter* emitter, Memory* mem,
                            const RunOptions& opts, std::string* output,
                            uint64_t steps) {
  RunResult flushed;
  execute_guarded(&flushed, cur_line, [emitter] { emitter->flush(); });
  if (result->status.ok()) result->status = std::move(flushed.status);
  result->output = std::move(*output);
  result->steps = steps;
  result->accesses = emitter->accesses();
  if (opts.digest_memory) result->memory_digest = mem->digest();
}

// -- intrinsics ---------------------------------------------------------------

/// Reads a NUL-terminated string from simulated memory (no trace).
inline std::string read_cstring(Memory& mem, uint32_t addr,
                                size_t limit = 1u << 20) {
  std::string out;
  while (out.size() < limit) {
    uint8_t c = mem.load_byte(addr++);
    if (c == 0) break;
    out.push_back(static_cast<char>(c));
  }
  return out;
}

template <class Host>
std::string format_printf(Host& host, uint32_t instr, const std::string& fmt,
                          const Value* args, size_t nargs) {
  std::string out;
  size_t argi = 1;
  for (size_t i = 0; i < fmt.size(); ++i) {
    if (fmt[i] != '%') {
      out.push_back(fmt[i]);
      continue;
    }
    ++i;
    if (i >= fmt.size()) break;
    if (fmt[i] == '%') {
      out.push_back('%');
      continue;
    }
    // Skip flags / width / precision.
    std::string spec = "%";
    while (i < fmt.size() &&
           (std::isdigit(static_cast<unsigned char>(fmt[i])) ||
            fmt[i] == '.' || fmt[i] == '-' || fmt[i] == '+' ||
            fmt[i] == ' ' || fmt[i] == '0' || fmt[i] == 'l')) {
      if (fmt[i] != 'l') spec.push_back(fmt[i]);
      ++i;
    }
    if (i >= fmt.size()) break;
    char conv = fmt[i];
    if (argi >= nargs &&
        (conv == 'd' || conv == 'u' || conv == 'x' || conv == 'c' ||
         conv == 's' || conv == 'f' || conv == 'g' || conv == 'e')) {
      throw RuntimeError("printf: not enough arguments");
    }
    char buf[64];
    switch (conv) {
      case 'd': {
        spec += "lld";
        std::snprintf(buf, sizeof buf, spec.c_str(),
                      static_cast<long long>(args[argi++].as_int()));
        out += buf;
        break;
      }
      case 'u': {
        spec += "llu";
        std::snprintf(buf, sizeof buf, spec.c_str(),
                      static_cast<unsigned long long>(args[argi++].as_int()));
        out += buf;
        break;
      }
      case 'x': {
        spec += "llx";
        std::snprintf(buf, sizeof buf, spec.c_str(),
                      static_cast<unsigned long long>(args[argi++].as_int()));
        out += buf;
        break;
      }
      case 'c': {
        out.push_back(static_cast<char>(args[argi++].as_int()));
        break;
      }
      case 'f':
      case 'g':
      case 'e': {
        spec.push_back(conv);
        std::snprintf(buf, sizeof buf, spec.c_str(),
                      args[argi++].as_float());
        out += buf;
        break;
      }
      case 's': {
        uint32_t saddr = args[argi++].as_addr();
        std::string s = read_cstring(host.memory(), saddr);
        // Reading the string payload is system-library traffic.
        for (size_t k = 0; k < s.size(); k += 4) {
          host.emit_access(instr, saddr + static_cast<uint32_t>(k),
                           static_cast<uint8_t>(std::min<size_t>(4,
                                                                 s.size() - k)),
                           false, trace::AccessKind::System);
        }
        out += s;
        break;
      }
      default:
        out += spec;
        out.push_back(conv);
    }
  }
  return out;
}

/// Executes one intrinsic call with fully evaluated arguments. `instr` is
/// the call expression's synthetic instruction address, `line` its source
/// line (used by assert's diagnostic).
template <class Host>
Value run_intrinsic(Host& host, minic::Intrinsic id, uint32_t instr,
                    int line, const Value* args, size_t nargs) {
  using minic::BaseType;
  using minic::Intrinsic;
  using trace::AccessKind;
  Memory& mem = host.memory();
  switch (id) {
    case Intrinsic::Printf: {
      std::string fmt = read_cstring(mem, args[0].as_addr());
      std::string text = format_printf(host, instr, fmt, args, nargs);
      host.append_output(text);
      return Value::of_int(static_cast<int64_t>(text.size()));
    }
    case Intrinsic::Putchar:
      host.append_output(std::string(1, static_cast<char>(args[0].as_int())));
      return args[0];
    case Intrinsic::Puts: {
      uint32_t saddr = args[0].as_addr();
      std::string s = read_cstring(mem, saddr);
      for (size_t k = 0; k < s.size(); k += 4) {
        host.emit_access(instr, saddr + static_cast<uint32_t>(k),
                         static_cast<uint8_t>(std::min<size_t>(4,
                                                               s.size() - k)),
                         false, AccessKind::System);
      }
      host.append_output(s + "\n");
      return Value::of_int(0);
    }
    case Intrinsic::Malloc: {
      int64_t n = args[0].as_int();
      if (n < 0) throw RuntimeError("malloc of negative size");
      uint32_t addr = mem.heap_alloc(static_cast<uint32_t>(n));
      return Value::of_ptr(addr, minic::make_type(BaseType::Char));
    }
    case Intrinsic::Free:
      return Value::void_value();
    case Intrinsic::Memset: {
      uint32_t dst = args[0].as_addr();
      uint8_t val = static_cast<uint8_t>(args[1].as_int());
      int64_t n = args[2].as_int();
      if (n < 0) throw RuntimeError("memset of negative size");
      for (int64_t k = 0; k < n; ++k) {
        mem.store_byte(dst + static_cast<uint32_t>(k), val);
      }
      for (int64_t k = 0; k < n; k += 4) {
        host.emit_access(instr, dst + static_cast<uint32_t>(k),
                         static_cast<uint8_t>(std::min<int64_t>(4, n - k)),
                         true, AccessKind::System);
      }
      return args[0];
    }
    case Intrinsic::Memcpy: {
      uint32_t dst = args[0].as_addr();
      uint32_t src = args[1].as_addr();
      int64_t n = args[2].as_int();
      if (n < 0) throw RuntimeError("memcpy of negative size");
      for (int64_t k = 0; k < n; ++k) {
        mem.store_byte(dst + static_cast<uint32_t>(k),
                       mem.load_byte(src + static_cast<uint32_t>(k)));
      }
      for (int64_t k = 0; k < n; k += 4) {
        uint8_t sz = static_cast<uint8_t>(std::min<int64_t>(4, n - k));
        host.emit_access(instr, src + static_cast<uint32_t>(k), sz, false,
                         AccessKind::System);
        host.emit_access(instr, dst + static_cast<uint32_t>(k), sz, true,
                         AccessKind::System);
      }
      return args[0];
    }
    case Intrinsic::Rand:
      return Value::of_int(static_cast<int64_t>(
          host.rng().next_below(1u << 30)));
    case Intrinsic::Srand:
      host.rng() = util::Rng(static_cast<uint64_t>(args[0].as_int()));
      return Value::void_value();
    case Intrinsic::Abs:
      return Value::of_int(std::llabs(args[0].as_int()));
    case Intrinsic::Sqrtf:
      return Value::of_float(std::sqrt(args[0].as_float()));
    case Intrinsic::Sinf:
      return Value::of_float(std::sin(args[0].as_float()));
    case Intrinsic::Cosf:
      return Value::of_float(std::cos(args[0].as_float()));
    case Intrinsic::Expf:
      return Value::of_float(std::exp(args[0].as_float()));
    case Intrinsic::Logf:
      return Value::of_float(std::log(args[0].as_float()));
    case Intrinsic::Powf:
      return Value::of_float(std::pow(args[0].as_float(),
                                      args[1].as_float()));
    case Intrinsic::Fabsf:
      return Value::of_float(std::fabs(args[0].as_float()));
    case Intrinsic::Floorf:
      return Value::of_float(std::floor(args[0].as_float()));
    case Intrinsic::Assert:
      if (!args[0].truthy()) {
        throw RuntimeError("assertion failed (line " + std::to_string(line) +
                           ")");
      }
      return Value::void_value();
    case Intrinsic::Exit:
      throw ExitSignal{static_cast<int>(args[0].as_int())};
  }
  throw RuntimeError("unreachable intrinsic");
}

}  // namespace foray::sim::internal
