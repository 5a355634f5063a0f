#include "child.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "stats.h"

extern char** environ;

namespace perfbench {

std::unique_ptr<Child> Child::spawn(const std::vector<std::string>& argv,
                                    const std::string& stderr_path,
                                    std::string* error) {
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    close(in_pipe[0]);
    close(in_pipe[1]);
    return nullptr;
  }
  // dup2 clears close-on-exec on the child's 0 and 1; every other pipe
  // end stays close-on-exec, so the child holds no stray copies.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(in_pipe[0]);
  close(out_pipe[1]);
  if (rc != 0) {
    close(in_pipe[1]);
    close(out_pipe[0]);
    *error = "cannot start " + argv[0] + ": " + std::strerror(rc);
    return nullptr;
  }
  std::unique_ptr<Child> child(new Child());
  child->pid_ = pid;
  child->in_fd_ = in_pipe[1];
  child->out_fd_ = out_pipe[0];
  return child;
}

Child::~Child() { finish(10.0); }

bool Child::send(std::string_view line) {
  if (in_fd_ < 0) return false;
  std::string data(line);
  data += '\n';
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = write(in_fd_, data.data() + off, data.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

ssize_t Child::fill(int timeout_ms) {
  if (out_fd_ < 0) return -1;
  for (;;) {
    pollfd p{out_fd_, POLLIN, 0};
    const int r = poll(&p, 1, timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return -1;
    char chunk[1 << 16];
    const ssize_t n = read(out_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n > 0) buf_.append(chunk, static_cast<size_t>(n));
    return n;
  }
}

bool Child::read_line(std::string* line, int timeout_ms) {
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      line->assign(buf_, 0, nl);
      buf_.erase(0, nl + 1);
      return true;
    }
    if (fill(timeout_ms) <= 0) return false;
  }
}

bool Child::read_all(std::string* out, int timeout_ms) {
  for (ssize_t n = 1; n != 0;) {
    n = fill(timeout_ms);
    if (n < 0) return false;
  }
  *out = std::move(buf_);
  buf_.clear();
  return true;
}

double Child::cpu_s() const {
  // The process CPU clock counts every thread, exited ones included, in
  // nanoseconds; /proc/PID/stat would round to 10 ms ticks.
  clockid_t clock{};
  timespec ts{};
  if (finished_ || clock_getcpuclockid(pid_, &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return -1.0;
  }
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

Child::Exit Child::finish(double timeout_s) {
  if (finished_) return exit_;
  finished_ = true;
  if (in_fd_ >= 0) {
    close(in_fd_);
    in_fd_ = -1;
  }
  int status = 0;
  rusage ru{};
  const double deadline = wall_s() + timeout_s;
  pid_t r = 0;
  while ((r = wait4(pid_, &status, WNOHANG, &ru)) == 0) {
    if (wall_s() >= deadline) {
      kill(pid_, SIGKILL);
      r = wait4(pid_, &status, 0, &ru);
      status = -1;  // killed: not a clean exit, whatever wait4 says
      break;
    }
    usleep(2000);
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
  exit_.ok = r == pid_ && status != -1 && WIFEXITED(status) &&
             WEXITSTATUS(status) == 0;
  exit_.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  return exit_;
}

}  // namespace perfbench
