#include "proc.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "stats.hpp"

extern char** environ;

namespace perfbench {

Child::Child(const std::vector<std::string>& argv,
             const std::string& log_path) {
  // Everything the child touches is prepared before fork: between fork and
  // exec it may only make async-signal-safe calls.
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("cannot fork for " + argv[0]);
  if (pid_ == 0) {
    // The server must not outlive the benchmark, even when it is killed.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int in = ::open("/dev/null", O_RDONLY);
    const int out = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (in < 0 || out < 0) ::_exit(127);
    ::dup2(in, STDIN_FILENO);
    ::dup2(out, STDOUT_FILENO);
    ::dup2(out, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
}

Child::~Child() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

int Child::wait(double* peak_rss_mb) {
  int status = 0;
  struct rusage ru{};
  while (::wait4(pid_, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  pid_ = -1;
  if (peak_rss_mb != nullptr) {
    *peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

double seconds_until_ready(const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const auto t0 = std::chrono::steady_clock::now();
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw std::runtime_error("cannot spawn " + argv[0]);
  }
  char c = 0;
  ssize_t n = 0;
  do {
    n = ::read(fds[0], &c, 1);
  } while (n < 0 && errno == EINTR);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ::close(fds[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (n != 1 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up probe failed: " + argv[0]);
  }
  return s;
}

double probe_setup_seconds(const std::string& workload, const std::string& arg,
                           int repeats) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  std::vector<double> s;
  for (int k = 0; k < repeats; ++k) {
    s.push_back(seconds_until_ready(
        {self, "--probe-setup", workload, "--probe-arg", arg}));
  }
  return fast_time(s);
}

LineClient::LineClient(const std::string& socket_path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) == 0) {
      return;
    }
    ::close(fd_);
    fd_ = -1;
    if (std::chrono::steady_clock::now() > deadline) {
      throw std::runtime_error("cannot connect to " + socket_path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

LineClient::~LineClient() {
  if (fd_ >= 0) ::close(fd_);
}

void LineClient::send_frame(const std::string& frame) {
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("send failed: server disconnected");
    sent += static_cast<std::size_t>(n);
  }
}

namespace {

/// Moves the first whole line of `buf` into `line`; false when there is none.
bool take_line(std::string& buf, std::string& line) {
  const std::size_t nl = buf.find('\n');
  if (nl == std::string::npos) return false;
  line.assign(buf, 0, nl);
  buf.erase(0, nl + 1);
  return true;
}

}  // namespace

bool LineClient::try_line(std::string& line) {
  for (;;) {
    if (take_line(buf_, line)) return true;
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return false;
    if (n <= 0) throw std::runtime_error("recv failed: server disconnected");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string LineClient::call(const std::string& frame) {
  send_frame(frame);
  std::string line;
  while (!take_line(buf_, line)) {
    char chunk[1 << 16];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("recv failed: server disconnected");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  return line;
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double self_peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

}  // namespace perfbench
