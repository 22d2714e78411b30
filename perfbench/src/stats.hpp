// Sample statistics and counter arithmetic shared by every workload.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile (q in [0, 1]) of `v`; sorts a copy.
/// Returns 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// A run's timed statistics are taken over pieces of it (chunks of latency
/// samples, slices of time, trace passes, case batches, set-up repeats),
/// and the run reports the decile of its pieces on the fast side: the 10th
/// percentile of per-piece times, the 90th of per-piece rates.  A shared
/// 4-core Xeon VM switches between two speeds for seconds at a time (a
/// trace window takes about 155 µs in one and 210 µs in the other, and the
/// slow one held for 65% of a 110-second run), so a median or
/// quartile over pieces flips with the share of a run spent in each; the
/// fast-side decile moves only once the slow speed holds for over four
/// fifths of a run.  A slower program is slower at both speeds.
[[nodiscard]] double fast_time(std::vector<double> times);
[[nodiscard]] double fast_rate(std::vector<double> rates);

/// Latency percentile robust to interference: `v` (in the order the
/// samples were taken) is cut into up to `max_chunks` consecutive chunks,
/// each of at least `min_per_chunk` samples and at least 50 beyond its
/// q-quantile (5000 for p99), and the result is fast_time over chunks of
/// each chunk's q-quantile.  With too few samples for two chunks it is the
/// plain quantile of `v`.
[[nodiscard]] double chunked_quantile(const std::vector<double>& v, double q,
                                      std::size_t min_per_chunk = 1000,
                                      std::size_t max_chunks = 60);

/// The percentile rule: the highest of 99.9, 99, 95, 90 and 50 that has
/// at least `min_beyond` samples strictly above its rank in a sample of
/// `n`, or 0 when not even the median qualifies.
[[nodiscard]] double highest_supported_percentile(std::size_t n,
                                                  std::size_t min_beyond = 10);

/// Flat view of a metrics-registry snapshot (`ssm` `stats` op or
/// Registry::to_json()): counters by name, histograms as name.count and
/// name.sum.  Gauges are point values, not deltas, and are left out.
using Counters = std::map<std::string, std::uint64_t, std::less<>>;

/// Parses a registry snapshot object ({"counters":…,"histograms":…}).
[[nodiscard]] Counters counters_from_snapshot(std::string_view json);

/// after − before for every name in `after` (names absent from `before`
/// count from 0).  Throws std::runtime_error when a counter went
/// backwards: that means the two snapshots do not bracket one window.
[[nodiscard]] Counters counter_delta(const Counters& before,
                                     const Counters& after);

/// `c[name]`, or 0 when the counter was never registered.
[[nodiscard]] std::uint64_t get(const Counters& c, std::string_view name);

/// a / b, or 0 when b is 0.
[[nodiscard]] double ratio(double a, double b);

}  // namespace perfbench
