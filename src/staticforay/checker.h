// A sound static checker for MiniC: interval-domain abstract
// interpretation over the sema-checked, loop-annotated AST.
//
// The checker tracks one interval per integer scalar whose address is
// never taken, with widening at loop heads, branch narrowing on simple
// relational conditions, and context-sensitive inlining of user calls
// (recursion makes the analysis give up on the cycle, conservatively).
// It produces two artifacts:
//
//   1. Diagnostics, each tagged must-fault (the program faults on every
//      execution that reaches completion of the diagnosed statement —
//      provable division/modulo by zero and provably-false assert) or
//      warning (anything the checker cannot prove safe: possible or even
//      provable out-of-bounds subscripts — in-segment overruns do not
//      fault on the simulated machine — uses before initialization,
//      unverified pointer traffic, unbounded loops, recursion,
//      unreachable statements, canonical-iterator writes, ...).
//
//   2. StaticCost bounds on executed steps and emitted trace records
//      (staticforay/cost.h), composed from per-nest trip-count intervals.
//
// The soundness contract, ratcheted by tests/checker_test.cpp over the
// benchsuite plus seeded generator corpora:
//   - clean() (zero diagnostics)  =>  both engines run fault-free;
//   - must_fault()                =>  both engines fault (or diverge
//                                     into a budget fault);
//   - max_steps / max_records     >=  observed dynamic counts on either
//                                     engine, on every execution;
//   - min_steps / min_records     <=  observed counts of any fault-free
//                                     completed run under default
//                                     tracing options.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "minic/ast.h"
#include "staticforay/cost.h"
#include "util/status.h"

namespace foray::staticforay {

enum class Severity : uint8_t {
  Warning,    ///< may fault, or analysis gave up on proving safety
  MustFault,  ///< faults on every execution reaching this statement
};

enum class CheckKind : uint8_t {
  DivByZero,          ///< division/modulo by a (possibly) zero divisor
  AssertFail,         ///< assert condition (possibly) zero
  OutOfBounds,        ///< array subscript outside the declared extent
  UseBeforeInit,      ///< scalar read before any initialization
  Unreachable,        ///< statement can never execute
  CanonicalIterWrite, ///< canonical for loop whose body writes the iterator
  UnboundedLoop,      ///< no finite trip-count bound
  PointerUnchecked,   ///< pointer/heap traffic the checker cannot verify
  Recursion,          ///< recursive call: analysis of the cycle abandoned
  StackLimit,         ///< locals may exceed the simulated stack capacity
  HeapLimit,          ///< allocations may exceed the heap capacity
  OutputLimit,        ///< program output may exceed the output cap
  IntrinsicMisuse,    ///< faulting intrinsic call: printf arity, negative size
  AnalysisLimit,      ///< checker budget exhausted; results degraded to top
};

std::string_view check_kind_name(CheckKind k);
std::string_view severity_name(Severity s);

struct CheckDiag {
  CheckKind kind = CheckKind::DivByZero;
  Severity severity = Severity::Warning;
  int line = 0;
  int node_id = -1;  ///< expression/declaration node, -1 for statements
  std::string message;
};

/// The iterations one loop runs per execution, as the checker proved
/// them: lo <= hi, or lo > hi for a loop it never analysed.
struct TripRange {
  uint64_t lo = kUnbounded;
  uint64_t hi = 0;
};

struct CheckReport {
  std::vector<CheckDiag> diags;
  StaticCost cost;
  /// By loop id (instrument::annotate_loops): every execution of the loop
  /// runs between lo and hi iterations, joined over every context the
  /// checker analysed it in, so lo == hi proves an exact trip count.
  /// Empty when the analysis gave up on part of the program (recursion,
  /// call depth, the work budget). Not rendered by str().
  std::vector<TripRange> loop_trips;

  /// Zero diagnostics of any severity: the checker certifies the
  /// program fault-free (and the cost bounds finite unless the program
  /// provably diverges).
  bool clean() const { return diags.empty(); }
  bool must_fault() const {
    for (const CheckDiag& d : diags)
      if (d.severity == Severity::MustFault) return true;
    return false;
  }

  /// Human-readable rendering, one line per diagnostic plus the bounds.
  std::string str() const;
};

/// Checks a sema-checked, loop-annotated program (parse_and_check +
/// instrument::annotate_loops) against the fixed machine's heap, stack
/// and output caps (sim::Memory's constants, which both engines read):
/// exceeding them is a runtime fault, so any program the checker cannot
/// prove inside them is flagged. Never fails: analysis limits and
/// imprecision surface as warnings and unbounded costs.
CheckReport check_program(const minic::Program& prog);

/// One-stop lint for tools and drivers: parse + sema + loop annotation +
/// check_program. Returns a kInvalidInput failure (with the front-end
/// diagnostics) when the source does not compile; the checker itself
/// never fails.
util::Status lint_source(std::string_view source, CheckReport* out);

}  // namespace foray::staticforay
