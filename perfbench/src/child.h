// A child process on pipes: the `foraygen serve` server that serve_mix
// drives, and the subprocess that computes a reference output so its
// memory never counts against the measured process.
#pragma once

#include <sys/types.h>

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Child {
 public:
  /// Starts `argv` (argv[0] is a path) with stdin and stdout on pipes
  /// and stderr appended to `stderr_path`. Null, with `*error` set, when
  /// it cannot start.
  static std::unique_ptr<Child> spawn(const std::vector<std::string>& argv,
                                      const std::string& stderr_path,
                                      std::string* error);
  /// Reaps the child: finish() with a short grace period.
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Writes `line` and a newline to the child's stdin.
  bool send(std::string_view line);
  /// Reads one line of the child's stdout, without its newline. False on
  /// end of file, on error, or when nothing arrives for `timeout_ms`.
  bool read_line(std::string* line, int timeout_ms);
  /// Reads the child's stdout to end of file (same failure rules).
  bool read_all(std::string* out, int timeout_ms);
  /// CPU time the running child has used so far, all threads, seconds;
  /// negative when it cannot be read.
  double cpu_s() const;

  struct Exit {
    bool ok = false;  ///< exited on its own with status 0
    double peak_rss_mb = 0.0;
  };
  /// Closes stdin, waits up to `timeout_s` for the child to exit, then
  /// kills it. Later calls return the first call's result.
  Exit finish(double timeout_s);

 private:
  Child() = default;
  /// Appends one read of stdout to buf_: bytes read, 0 at end of file,
  /// -1 on error or when nothing arrives for `timeout_ms`.
  ssize_t fill(int timeout_ms);

  pid_t pid_ = -1;
  int in_fd_ = -1;   ///< write end of the child's stdin
  int out_fd_ = -1;  ///< read end of the child's stdout
  std::string buf_;  ///< stdout bytes read but not yet returned
  bool finished_ = false;
  Exit exit_;
};

}  // namespace perfbench
