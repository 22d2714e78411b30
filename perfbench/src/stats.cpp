#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/json.hpp"

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double fast_time(std::vector<double> times) {
  return quantile(std::move(times), 0.1);
}

double fast_rate(std::vector<double> rates) {
  return quantile(std::move(rates), 0.9);
}

double chunked_quantile(const std::vector<double>& v, double q,
                        std::size_t min_per_chunk, std::size_t max_chunks) {
  if (q < 1) {
    min_per_chunk = std::max(
        min_per_chunk, static_cast<std::size_t>(std::ceil(50 / (1 - q))));
  }
  const std::size_t chunks =
      std::max<std::size_t>(1, std::min(max_chunks, v.size() / min_per_chunk));
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(v.size() * c / chunks);
    const auto end =
        v.begin() + static_cast<std::ptrdiff_t>(v.size() * (c + 1) / chunks);
    per_chunk.push_back(quantile({begin, end}, q));
  }
  return fast_time(per_chunk);
}

double highest_supported_percentile(std::size_t n, std::size_t min_beyond) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 50.0}) {
    // Samples strictly above the p-th percentile: n * (1 - p/100), rounded
    // down (10 per mille of 1000 samples is exactly 10).
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(n) * (100.0 - p) / 100.0 + 1e-6));
    if (beyond >= min_beyond) return p;
  }
  return 0;
}

Counters counters_from_snapshot(std::string_view json) {
  namespace json_ns = ssm::common::json;
  const json_ns::Value root = json_ns::parse(json);
  Counters out;
  if (const auto* c = root.find("counters")) {
    for (const auto& [name, v] : c->members()) out[name] = v.as_u64();
  }
  if (const auto* h = root.find("histograms")) {
    for (const auto& [name, v] : h->members()) {
      out[name + ".count"] = v.at("count").as_u64();
      out[name + ".sum"] = v.at("sum").as_u64();
    }
  }
  return out;
}

Counters counter_delta(const Counters& before, const Counters& after) {
  Counters out;
  for (const auto& [name, v] : after) {
    const std::uint64_t b = get(before, name);
    if (v < b) throw std::runtime_error("counter went backwards: " + name);
    out[name] = v - b;
  }
  for (const auto& [name, v] : before) {
    if (v != 0 && !after.contains(name)) {
      throw std::runtime_error("counter vanished: " + name);
    }
  }
  return out;
}

std::uint64_t get(const Counters& c, std::string_view name) {
  const auto it = c.find(name);
  return it == c.end() ? 0 : it->second;
}

double ratio(double a, double b) { return b == 0 ? 0 : a / b; }

}  // namespace perfbench
