// Minimal status / error-reporting primitives shared by all modules.
//
// MiniC front-end and analysis passes report user-facing problems through
// Diag / DiagList rather than exceptions; exceptions are reserved for
// programming errors (violated invariants) via FORAY_CHECK.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace foray::util {

/// Coarse failure classification shared by every layer. The class — not
/// the message — decides policy: the CLI exit code, the error row's
/// `error_class`, and how a service should surface the failure. Messages
/// stay free-form.
enum class ErrorCode : uint8_t {
  kOk = 0,
  kInvalidInput,        ///< malformed program/trace/spec — the user's fault
  kResourceExhausted,   ///< a budget tripped: steps, records, memory, output
  kDeadlineExceeded,    ///< wall-clock budget expired
  kInternal,            ///< a bug in this library (violated invariant)
  kIoError,             ///< the outside world failed: truncated/unwritable
  kCancelled,           ///< cooperative cancellation token fired
};

/// Stable lower-case name of a code ("invalid_input", ...), as rendered
/// into NDJSON `error_class` fields and the README taxonomy table.
const char* code_name(ErrorCode code);

/// A single diagnostic attached to a source location.
struct Diag {
  int line = 0;          ///< 1-based source line; 0 when not applicable.
  std::string message;

  std::string str() const {
    std::ostringstream os;
    if (line > 0) os << "line " << line << ": ";
    os << message;
    return os.str();
  }
};

/// Accumulates diagnostics during a pass; a pass succeeds iff empty.
class DiagList {
 public:
  void add(int line, std::string message) {
    diags_.push_back(Diag{line, std::move(message)});
  }
  bool empty() const { return diags_.empty(); }
  size_t size() const { return diags_.size(); }
  const std::vector<Diag>& all() const { return diags_; }

  /// All diagnostics joined with newlines (for test failure messages).
  std::string str() const {
    std::string out;
    for (const auto& d : diags_) {
      out += d.str();
      out += '\n';
    }
    return out;
  }

 private:
  std::vector<Diag> diags_;
};

/// The shared outcome type of pipeline phases and simulator runs: success,
/// or a phase label plus the diagnostics that explain the failure. Replaces
/// the `bool ok + std::string error` pairs that used to be duplicated across
/// result structs, so every layer reports source lines the same way.
class Status {
 public:
  Status() = default;  ///< success

  static Status failure(ErrorCode code, std::string phase, DiagList diags) {
    Status s;
    s.code_ = code == ErrorCode::kOk ? ErrorCode::kInternal : code;
    s.phase_ = std::move(phase);
    s.diags_ = std::move(diags);
    if (s.diags_.empty()) s.diags_.add(0, "unknown error");
    return s;
  }
  static Status failure(ErrorCode code, std::string phase, int line,
                        std::string message) {
    DiagList d;
    d.add(line, std::move(message));
    return failure(code, std::move(phase), std::move(d));
  }
  /// Legacy unclassified factories: anything not explicitly classified is
  /// conservatively internal (a bug), never silently a user error.
  static Status failure(std::string phase, DiagList diags) {
    return failure(ErrorCode::kInternal, std::move(phase), std::move(diags));
  }
  static Status failure(std::string phase, int line, std::string message) {
    return failure(ErrorCode::kInternal, std::move(phase), line,
                   std::move(message));
  }

  bool ok() const { return diags_.empty(); }
  ErrorCode code() const { return ok() ? ErrorCode::kOk : code_; }
  /// code_name(code()): "ok", "invalid_input", ...
  const char* code_name() const { return util::code_name(code()); }
  /// Which phase failed ("parse", "sema", "simulation", ...); empty on ok.
  const std::string& phase() const { return phase_; }
  const DiagList& diags() const { return diags_; }
  /// 1-based source line of the first diagnostic; 0 when not applicable.
  int first_line() const {
    return diags_.empty() ? 0 : diags_.all().front().line;
  }

  /// Human-readable rendering: "" on ok, "<phase> error: line N: msg" for a
  /// single diagnostic, multi-line for several.
  std::string message() const {
    if (ok()) return "";
    std::string out = phase_.empty() ? "error" : phase_ + " error";
    if (diags_.size() == 1) return out + ": " + diags_.all().front().str();
    return out + ":\n" + diags_.str();
  }

 private:
  std::string phase_;
  DiagList diags_;
  ErrorCode code_ = ErrorCode::kOk;
};

inline const char* code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kInvalidInput: return "invalid_input";
    case ErrorCode::kResourceExhausted: return "resource_exhausted";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kInternal: return "internal";
    case ErrorCode::kIoError: return "io_error";
    case ErrorCode::kCancelled: return "cancelled";
  }
  return "internal";
}

/// Thrown when an internal invariant is violated. Indicates a bug in this
/// library, never a malformed user program.
class InternalError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

/// An exception that carries a fully-classified Status across layers that
/// cannot return one — above all the trace sinks, which run inside an
/// engine's guarded execution and may not depend on sim::RuntimeError.
/// execute_guarded and the sweep's driver::guarded both catch it and
/// surface the carried Status verbatim, code included.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.message()), status_(std::move(status)) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

}  // namespace foray::util

#define FORAY_CHECK(cond, msg)                                        \
  do {                                                                \
    if (!(cond)) {                                                    \
      throw ::foray::util::InternalError(std::string("FORAY_CHECK " \
                                                     "failed: ") +    \
                                         (msg));                      \
    }                                                                 \
  } while (0)
