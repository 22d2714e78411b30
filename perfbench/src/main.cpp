// perfbench: the repository's benchmark program.  One run measures one
// workload for --seconds and prints, on stdout,
//   1. a stamp line (host, build, commit, seeds, pool width, server flags),
//   2. a table row with every end-to-end metric by name and unit,
//   3. the result object {"correct", "attempted", "failed", "metrics"}:
//      end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Run it through perfbench/run.py, which builds it first.
#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common/json.hpp"
#include "common/thread_pool.hpp"
#include "recorded.hpp"
#include "stats.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

/// Every per-layer metric a traced run reports, with its unit.  A workload
/// that bypasses a layer reports 0 for it (BENCHMARK.json records which
/// workload exercises which layer).
constexpr std::pair<const char*, const char*> kPerLayer[] = {
    {"service.server_us", "us"},
    {"service.handle_us", "us"},
    {"service.protocol.parse_us", "us"},
    {"service.protocol.serialize_us", "us"},
    {"service.cache.get_us", "us"},
    {"service.cache.put_us", "us"},
    {"service.cache.hit_share", "ratio"},
    {"service.cache.lockfree_reads_per_item", "count"},
    {"service.cache.shard_locks_per_item", "count"},
    {"service.dedup_share", "ratio"},
    {"service.batch_size_mean", "count"},
    {"litmus.parse_us", "us"},
    {"litmus.canonicalize_us", "us"},
    {"litmus.remap_verify_us", "us"},
    {"models.validate_us", "us"},
    {"checker.search_us_p50", "us"},
    {"checker.search_us_p99", "us"},
    {"checker.nodes_per_item", "count"},
    {"checker.nodes_per_s", "1/s"},
    {"checker.memo_hit_share", "ratio"},
    {"checker.exhausted_share", "ratio"},
    {"checker.certify_us", "us"},
    {"solve.encode_us", "us"},
    {"solve.encode_checks_per_item", "count"},
    {"order.derive_reuse_per_item", "count"},
    {"scheduler.steals_per_item", "count"},
    {"scheduler.steal_failure_share", "ratio"},
    {"trace.read_ns_per_op", "ns"},
    {"trace.feed_ns_per_op", "ns"},
    {"trace.window_check_us_p50", "us"},
    {"trace.window_check_us_p99", "us"},
    {"trace.inconclusive_share", "ratio"},
    {"trace.dropped_op_share", "ratio"},
    {"trace.ring_evictions_per_window", "count"},
    {"fuzz.generate_us", "us"},
    {"fuzz.oracle_us_p50", "us"},
    {"fuzz.oracle_us_p99", "us"},
    {"fuzz.verdicts_us", "us"},
    {"fuzz.encode_us", "us"},
    {"fuzz.inconclusive_share", "ratio"},
    {"fuzz.shrink_steps", "count"},
    {"simulate.explore_us_p50", "us"},
    {"simulate.explore_us_p99", "us"},
    {"simulate.applicable_share", "ratio"},
    {"bench.attributed_share", "ratio"},
    {"bench.tracing_overhead", "ratio"},
    {"failed_share", "ratio"},
};

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string metric_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ", ";
    ssm::common::json::append_quoted(out, ms[i].name);
    out += ": {\"value\": " + num(ms[i].value) + ", \"unit\": ";
    ssm::common::json::append_quoted(out, ms[i].unit);
    out += "}";
  }
  return out + "}";
}

std::string stamp_json(const std::map<std::string, std::string>& stamp) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : stamp) {
    if (!first) out += ", ";
    first = false;
    ssm::common::json::append_quoted(out, k);
    out += ": ";
    ssm::common::json::append_quoted(out, v);
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload check_cold|check_warm|"
               "trace_stream|fuzz_campaign\n"
               "                 --seed N --seconds S --trace 0|1 "
               "--root DIR --ssm PATH [--smoke]\n");
  return 64;
}

/// `perfbench --probe-setup WORKLOAD --probe-arg ARG`: the set-up probe
/// child (see probe_setup_seconds).
int probe(int argc, char** argv) {
  if (argc != 5) return usage();
  const std::string workload = argv[2];
  ssm::common::ThreadPool::set_global_jobs(pool_width(workload));
  if (workload == "trace_stream") {
    probe_trace_setup(argv[4]);
  } else if (workload == "fuzz_campaign") {
    probe_fuzz_setup();
  } else {
    return usage();
  }
  // Flushed here: process teardown is not part of set-up.
  std::printf("ready\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--probe-setup") == 0) {
    try {
      return probe(argc, argv);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up probe: %s\n", e.what());
      return 1;
    }
  }
  RunOptions o;
  std::string root;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (v == nullptr) return usage();
    ++i;
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = std::string(v) == "1";
      } else if (a == "--root") {
        root = v;
      } else if (a == "--ssm") {
        o.ssm = std::filesystem::absolute(v).string();
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (o.workload.empty() || root.empty() || o.ssm.empty() || o.seconds <= 0) {
    return usage();
  }
  o.jobs = pool_width(o.workload);
  namespace fs = std::filesystem;
  try {
    fs::current_path(root);
    ssm::common::ThreadPool::set_global_jobs(o.jobs);
    const std::string tag = o.workload + "-" + std::to_string(o.seed);
    o.work = ".perfbench/run-" + tag + "-" + std::to_string(::getpid());
    o.spans = ".perfbench/spans-" + tag + ".tsv";
    fs::remove_all(o.work);
    fs::create_directories(o.work);

    RunResult r;
    if (o.workload == "check_cold" || o.workload == "check_warm") {
      r = run_check(o, o.workload == "check_warm");
    } else if (o.workload == "trace_stream") {
      r = run_trace(o);
    } else if (o.workload == "fuzz_campaign") {
      r = run_fuzz(o);
    } else {
      fs::remove_all(o.work);
      return usage();
    }
    fs::remove_all(o.work);

    const double failed_share =
        ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted));
    const bool correct = r.failed == 0 && r.failures.empty() && r.attempted > 0;
    for (const auto& f : r.failures) {
      std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
    }

    auto stamp = host_stamp();
    stamp.merge(r.stamp);
    stamp["workload"] = o.workload;
    stamp["seed"] = std::to_string(o.seed);
    stamp["default_seed"] = std::to_string(kDefaultSeed);
    stamp["held_out_seed"] = std::to_string(kHeldOutSeed);
    stamp["seconds"] = num(o.seconds);
    stamp["trace"] = o.trace ? "1" : "0";
    std::printf("{\"stamp\": %s}\n", stamp_json(stamp).c_str());

    std::string row = o.workload;
    for (const Metric& m : r.end_to_end) {
      row += "  " + m.name + "=" + num(m.value) + " " + m.unit;
    }
    row += "  failed_share=" + num(failed_share) + " ratio";
    std::printf("%s\n", row.c_str());

    std::vector<Metric> metrics = r.end_to_end;
    if (o.trace) {
      metrics.clear();
      for (const auto& [name, unit] : kPerLayer) {
        Metric m{name, 0, unit};
        if (std::strcmp(name, "failed_share") == 0) m.value = failed_share;
        for (const Metric& x : r.per_layer) {
          if (x.name == name) m.value = x.value;
        }
        metrics.push_back(m);
      }
    }
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": %s}\n",
        correct ? "true" : "false",
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed),
        metric_json(metrics).c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    if (!o.work.empty()) {
      std::error_code ec;
      fs::remove_all(o.work, ec);
    }
    return 1;
  }
}
