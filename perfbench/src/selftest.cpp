// Self-tests of the benchmark's own arithmetic.  The smoke runs of every
// workload are separate ctest entries (perfbench/CMakeLists.txt).
#include <gtest/gtest.h>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(9999), 99.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(999), 95.0);
  EXPECT_EQ(highest_supported_percentile(200), 95.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(0), 0.0);
}

TEST(Percentile, QuantileInterpolates) {
  EXPECT_EQ(quantile({}, 0.5), 0.0);
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  std::vector<double> v;
  for (int i = 0; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(quantile(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 100.0);
}

TEST(Percentile, FastSideDecileOfPieces) {
  // Two host speeds: the slow one holds for 80% of the pieces.
  std::vector<double> times = {200, 145, 201, 210, 199, 144, 202, 207, 198, 203};
  EXPECT_EQ(median(times), 200.5);
  EXPECT_LT(fast_time(times), 150.0);
  std::vector<double> rates;
  for (const double t : times) rates.push_back(1e6 / t);
  EXPECT_GT(fast_rate(rates), 1e6 / 150.0);
  EXPECT_EQ(fast_time({}), 0.0);
  EXPECT_EQ(fast_rate({7}), 7.0);
}

TEST(Percentile, ChunkedQuantileResistsABurst) {
  std::vector<double> few(1999, 1.0);
  few.back() = 50.0;
  EXPECT_EQ(chunked_quantile(few, 1.0), quantile(few, 1.0));  // one chunk

  // 50000 samples in 10 chunks of 5000 (50 beyond p99); a burst fills the
  // last eight.
  std::vector<double> v(50000, 1.0);
  for (std::size_t i = 10000; i < v.size(); ++i) v[i] = 100.0;
  EXPECT_EQ(quantile(v, 0.99), 100.0);
  EXPECT_EQ(chunked_quantile(v, 0.99), 1.0);
  // Fewer than 10000 samples: one chunk for p99, several for p50.
  v.resize(9999);
  EXPECT_EQ(chunked_quantile(v, 0.99), quantile(v, 0.99));
  EXPECT_EQ(chunked_quantile(v, 0.5), 1.0);
  // Chunks are consecutive: a value spread evenly over time still counts.
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = i % 100 == 0 ? 100.0 : 1.0;
  EXPECT_EQ(chunked_quantile(v, 0.995), 100.0);
}

Span span(std::uint32_t parent, std::int64_t a, std::int64_t b) {
  Span s;
  s.parent = parent;
  s.start_ns = a;
  s.end_ns = b;
  return s;
}

TEST(SelfTime, NestedChildren) {
  // root [0,100) > a [10,40) > b [20,30); root > c [50,60)
  const std::vector<Span> spans = {span(Span::kNoParent, 0, 100),
                                   span(0, 10, 40), span(1, 20, 30),
                                   span(0, 50, 60)};
  const auto self = self_times(spans);
  EXPECT_EQ(self, (std::vector<std::int64_t>{60, 20, 10, 10}));
}

TEST(SelfTime, OverlappingAndOverhangingChildren) {
  // Children [10,40) and [30,50) overlap: their union is [10,50).  A child
  // reaching past its parent, [90,120), is clipped to [90,100).
  const std::vector<Span> spans = {span(Span::kNoParent, 0, 100),
                                   span(0, 10, 40), span(0, 30, 50),
                                   span(0, 90, 120)};
  EXPECT_EQ(self_times(spans)[0], 100 - 40 - 10);
}

TEST(SelfTime, ContainedChildCountsOnce) {
  const std::vector<Span> spans = {span(Span::kNoParent, 0, 100),
                                   span(0, 10, 80), span(0, 20, 30)};
  EXPECT_EQ(self_times(spans)[0], 30);
}

TEST(Tracer, AttributedShareAndItems) {
  Tracer off(false);
  { Scope s(off, "x", 0); }
  EXPECT_TRUE(off.spans().empty());

  Tracer tr(true);
  for (std::uint64_t item = 0; item < 3; ++item) {
    Scope root(tr, "item", item);
    Scope a(tr, "layer.a", item);
    { Scope b(tr, "layer.b", item); }
  }
  ASSERT_EQ(tr.spans().size(), 9u);
  EXPECT_EQ(tr.spans()[1].parent, 0u);
  EXPECT_EQ(tr.spans()[2].parent, 1u);
  EXPECT_EQ(tr.per_item_us("layer.b").size(), 3u);
  EXPECT_TRUE(tr.per_item_us("absent").empty());
  const double share = tr.attributed_share();
  EXPECT_GT(share, 0.0);
  EXPECT_LE(share, 1.0);
  EXPECT_EQ(tr.totals().at("layer.a").count, 3u);
}

TEST(Counters, DeltaOverTheWindow) {
  const Counters before = counters_from_snapshot(
      R"({"counters": {"a": 5, "b": 7}, "gauges": {"g": 9},
          "histograms": {"h": {"count": 2, "sum": 10, "max": 6,
                               "buckets": [[3, 2]]}}})");
  const Counters after = counters_from_snapshot(
      R"({"counters": {"a": 8, "b": 7, "c": 4}, "gauges": {"g": 1},
          "histograms": {"h": {"count": 5, "sum": 31, "max": 9,
                               "buckets": [[3, 2], [4, 3]]}}})");
  const Counters d = counter_delta(before, after);
  EXPECT_EQ(get(d, "a"), 3u);
  EXPECT_EQ(get(d, "b"), 0u);
  EXPECT_EQ(get(d, "c"), 4u);  // registered inside the window
  EXPECT_EQ(get(d, "h.count"), 3u);
  EXPECT_EQ(get(d, "h.sum"), 21u);
  EXPECT_EQ(get(d, "g"), 0u);  // gauges are not deltas
  EXPECT_EQ(get(d, "missing"), 0u);
  EXPECT_THROW((void)counter_delta(after, before), std::runtime_error);
  EXPECT_EQ(ratio(1, 0), 0.0);
  EXPECT_EQ(ratio(3, 4), 0.75);
}

}  // namespace
}  // namespace perfbench
