// Process and socket plumbing: spawning `ssm serve`, line-oriented unix
// socket clients, and peak-RSS readings.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace perfbench {

/// A child process started with posix_spawn; stdout and stderr go to
/// `log_path`.  The destructor kills and reaps a child still running.
class Child {
 public:
  Child(const std::vector<std::string>& argv, const std::string& log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  /// Waits for exit; returns the exit status (128 + signal when killed)
  /// and stores the child's peak RSS in MiB.
  int wait(double* peak_rss_mb = nullptr);

 private:
  pid_t pid_ = -1;
};

/// Spawns `argv` with its stdout on a pipe and returns the seconds from
/// the spawn until the child writes its first line.  Waits for the child;
/// throws std::runtime_error unless it exits 0.
double seconds_until_ready(const std::vector<std::string>& argv);

/// `setup_s` of an in-process workload: fast_time over `repeats` fresh
/// processes (`perfbench --probe-setup WORKLOAD --probe-arg ARG`) of the
/// time from spawning one to its "ready" line, so it covers the start-up a
/// user pays.
[[nodiscard]] double probe_setup_seconds(const std::string& workload,
                                         const std::string& arg, int repeats);

/// Blocking NDJSON client over a unix-domain socket.
class LineClient {
 public:
  /// Connects, retrying every 200 µs until `timeout_s` passes.  Throws
  /// std::runtime_error on timeout.
  LineClient(const std::string& socket_path, double timeout_s);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends one frame (must end in '\n') and returns the response line
  /// without its terminator.  Throws std::runtime_error on disconnect.
  std::string call(const std::string& frame);

  /// The two halves of call() for a caller that drives several clients:
  /// send_frame sends one frame; try_line takes one response line (without
  /// its terminator) if a whole one has arrived, and never blocks.  Both
  /// throw std::runtime_error on disconnect.
  void send_frame(const std::string& frame);
  bool try_line(std::string& line);

 private:
  int fd_ = -1;
  std::string buf_;
};

/// Resets this process's peak-RSS mark (Linux clear_refs); false when the
/// kernel does not allow it.
bool reset_peak_rss();
/// This process's peak RSS (VmHWM) in MiB.
[[nodiscard]] double self_peak_rss_mb();

}  // namespace perfbench
