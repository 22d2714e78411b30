// trace_stream: a seeded SC-machine workload trace (4 procs, 8 locations,
// the `ssm trace gen` defaults), written to a file during set-up, streams
// through TraceReader + StreamingChecker against SC with 256-op windows,
// exactly as `ssm trace check` does.  Each pass re-reads the file from the
// start; passes repeat until the run length is spent.
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <stdexcept>

#include "proc.hpp"
#include "recorded.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trace/format.hpp"
#include "trace/streaming.hpp"
#include "trace/trace_export.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 21;
constexpr std::size_t kTracedOps = 1u << 18;

struct Pass {
  ssm::trace::StreamSummary summary;
  std::vector<double> window_us;  ///< last op fed -> verdict in the sink
  double wall_s = 0;
};

/// Streams the first `max_ops` ops of `path` (all when 0).  With an
/// enabled tracer, each window is a root span holding a span per read and
/// per feed; the feed that closes the window is `trace.window_check`.
Pass stream(const std::string& path, std::size_t max_ops, Tracer& tr) {
  const ssm::trace::StreamOptions sopts;  // SC, 256-op windows
  Pass out;
  const auto t0 = Clock::now();
  std::ifstream in(path, std::ios::binary);
  ssm::trace::TraceReader reader(in);
  ssm::trace::StreamingChecker checker(reader.read_header(), sopts);
  Clock::time_point last_fed;
  checker.set_verdict_sink([&](const ssm::trace::WindowVerdict&) {
    out.window_us.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - last_fed)
            .count());
  });
  const std::size_t w = sopts.window_ops;
  ssm::trace::TraceOp op;
  std::uint64_t n = 0;
  std::uint32_t root = 0;
  bool root_open = false;
  const auto open_root = [&] {
    if (tr.enabled() && !root_open) {
      root = tr.open("trace.window", n / w);
      root_open = true;
    }
  };
  for (;;) {
    if (max_ops != 0 && n == max_ops) break;
    open_root();
    bool more = false;
    {
      Scope s(tr, "trace.read", n / w);
      more = reader.next(op);
    }
    if (!more) break;
    const bool closes = (n + 1) % w == 0;
    {
      Scope s(tr, closes ? "trace.window_check" : "trace.feed", n / w);
      if (closes) last_fed = Clock::now();
      checker.feed(op);
    }
    ++n;
    if (closes && root_open) {
      tr.close(root);
      root_open = false;
    }
  }
  open_root();
  {
    Scope s(tr, "trace.window_check", n / w);
    last_fed = Clock::now();
    out.summary = checker.finish();
  }
  if (root_open) tr.close(root);
  out.wall_s = seconds_since(t0);
  return out;
}

}  // namespace

void probe_trace_setup(const std::string& trace_path) {
  std::ifstream in(trace_path, std::ios::binary);
  ssm::trace::TraceReader reader(in);
  const ssm::trace::StreamingChecker checker(reader.read_header(), {});
}

RunResult run_trace(const RunOptions& o) {
  RunResult res;
  const std::uint64_t ops = o.smoke ? 20'000 : 1'000'000;
  const std::string path = o.work + "/trace.ndjson";
  {
    ssm::trace::TraceGenOptions g;  // sc machine, 4 procs, 8 locations
    g.ops = ops;
    g.seed = o.seed;
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    (void)ssm::trace::generate_trace(g, f);
    f.flush();
    if (!f) throw std::runtime_error("cannot write " + path);
  }
  res.stamp["pool_width"] = std::to_string(o.jobs);
  res.stamp["trace"] = "machine=sc procs=4 locs=8 ops=" + std::to_string(ops) +
                       " model=SC window=256";

  const double setup_s = probe_setup_seconds(o.workload, path, kSetupRepeats);

  reset_peak_rss();
  Tracer off(false);
  std::vector<Pass> passes;
  const auto t0 = Clock::now();
  do {
    passes.push_back(stream(path, 0, off));
  } while (seconds_since(t0) < o.seconds);
  const double rss = self_peak_rss_mb();

  // Output checks: no violation, ⌈ops/256⌉ windows, one digest for every
  // pass, and the recorded digest where one exists for this seed.
  const std::uint64_t windows = (ops + 255) / 256;
  const std::string recorded = o.smoke ? "" : recorded_digest("trace_stream", o.seed);
  std::vector<double> rates;
  std::vector<double> lat;
  for (const Pass& p : passes) {
    res.attempted += ops;
    const auto& s = p.summary;
    const std::string digest = ssm::trace::hex16(s.digest);
    if (s.ops != ops || s.violations != 0 || s.windows != windows) {
      res.fail(ops, "pass: ops " + std::to_string(s.ops) + ", windows " +
                        std::to_string(s.windows) + ", violations " +
                        std::to_string(s.violations));
    } else if (s.digest != passes.front().summary.digest) {
      res.fail(ops, "pass digest " + digest + " differs from the first pass");
    } else if (!recorded.empty() && digest != recorded) {
      res.fail(ops, "digest " + digest + " != recorded " + recorded);
    }
    rates.push_back(static_cast<double>(ops) / p.wall_s);
    lat.insert(lat.end(), p.window_us.begin(), p.window_us.end());
  }
  const auto& s = passes.front().summary;
  if (highest_supported_percentile(lat.size()) < 99 && !o.smoke) {
    res.fail(0, "fewer than 10 samples beyond p99");
  }
  res.stamp["passes"] = std::to_string(passes.size());
  res.stamp["digest"] = ssm::trace::hex16(s.digest);
  res.e2e("items_per_s", fast_rate(rates), "1/s");
  res.e2e("latency_p50_us", chunked_quantile(lat, 0.50), "us");
  res.e2e("latency_p99_us", chunked_quantile(lat, 0.99), "us");
  res.e2e("decided_share",
          ratio(static_cast<double>(s.ok + s.violations),
                static_cast<double>(s.windows)),
          "ratio");
  res.e2e("setup_s", setup_s, "s");
  res.e2e("peak_rss_mb", rss, "MiB");
  if (!o.trace) return res;

  const auto w = static_cast<double>(s.windows);
  res.layer("trace.inconclusive_share",
            ratio(static_cast<double>(s.inconclusive), w), "ratio");
  res.layer("trace.dropped_op_share",
            ratio(static_cast<double>(s.dropped_ops), static_cast<double>(s.ops)),
            "ratio");
  res.layer("trace.ring_evictions_per_window",
            ratio(static_cast<double>(s.ring_evictions), w), "count");
  const std::size_t traced_ops = std::min<std::size_t>(ops, kTracedOps);
  const Pass plain = stream(path, traced_ops, off);
  Tracer tr(true);
  const Pass traced = stream(path, traced_ops, tr);
  const auto totals = tr.totals();
  const auto per_call_ns = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0
                              : ratio(it->second.total_us * 1e3,
                                      static_cast<double>(it->second.count));
  };
  const std::vector<double> check_us = tr.per_item_us("trace.window_check");
  res.layer("trace.read_ns_per_op", per_call_ns("trace.read"), "ns");
  res.layer("trace.feed_ns_per_op", per_call_ns("trace.feed"), "ns");
  res.layer("trace.window_check_us_p50", quantile(check_us, 0.50), "us");
  res.layer("trace.window_check_us_p99", quantile(check_us, 0.99), "us");
  res.layer("bench.attributed_share", tr.attributed_share(), "ratio");
  res.layer("bench.tracing_overhead", ratio(traced.wall_s, plain.wall_s) - 1,
            "ratio");
  tr.write(o.spans);
  return res;
}

}  // namespace perfbench
