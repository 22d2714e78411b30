// What a workload receives and what it reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs and no recorded-digest checks: the self-test smoke run.
  bool smoke = false;
  unsigned jobs = 4;  ///< checker pool width: pool_width(workload)
  std::string ssm;   ///< path of the `ssm` binary (check_* spawn it)
  std::string work;   ///< this run's working directory (relative to root)
  std::string spans;  ///< where the traced run writes its spans
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure descriptions (stderr only).
  std::vector<std::string> failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Workload-specific stamp: pool width, server flags, input mix.
  std::map<std::string, std::string> stamp;

  void fail(std::uint64_t items, std::string why) {
    failed += items;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
  void e2e(std::string name, double v, std::string unit) {
    end_to_end.push_back({std::move(name), v, std::move(unit)});
  }
  void layer(std::string name, double v, std::string unit) {
    per_layer.push_back({std::move(name), v, std::move(unit)});
  }
};

/// The checker pool width (`--jobs`) a workload is pinned to; never taken
/// from hardware_concurrency.  Every workload runs 4 lanes, as the shipped
/// commands do on a 4-core host, except the check service: at 4 lanes each
/// request fans out across lanes that its two workers share, and the
/// heavy-tailed cold requests made check_cold's p99 latency spread 0.22-0.29
/// and its throughput spread 0.12-0.20 over ten seeds, against 0.09-0.24 and
/// 0.07-0.17 at 1 lane.  check_warm keeps check_cold's server.
[[nodiscard]] inline unsigned pool_width(const std::string& workload) {
  return workload == "check_cold" || workload == "check_warm" ? 1 : 4;
}

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// How long a traced run replays untraced (the traced replay then repeats
/// the same items): a quarter of the run length, at most 4 s.
[[nodiscard]] inline double replay_budget_s(const RunOptions& o) {
  return o.seconds / 4 < 4 ? o.seconds / 4 : 4;
}

RunResult run_check(const RunOptions& o, bool warm);

/// Set-up probes, run in a fresh process (see probe_setup_seconds):
///   trace_stream:  open `trace_path`, read its header, construct the
///                  StreamingChecker;
///   fuzz_campaign: construct the Oracle and its model set.
void probe_trace_setup(const std::string& trace_path);
void probe_fuzz_setup();
RunResult run_trace(const RunOptions& o);
RunResult run_fuzz(const RunOptions& o);

/// Host and build stamp: core count, CPU model, build type, compiler,
/// commit (when the checkout is a git work tree) and a digest of the
/// program sources, so a result names exactly what it measured.
[[nodiscard]] std::map<std::string, std::string> host_stamp();

}  // namespace perfbench
