#include "common/metrics.hpp"

#include <gtest/gtest.h>

namespace byzcast {
namespace {

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  reg.counter("a").inc();
  reg.counter("a").inc(3);
  reg.counter("b").inc();
  reg.gauge("g").set(0.75);
  EXPECT_EQ(reg.counter("a").value(), 4u);
  EXPECT_EQ(reg.counter("b").value(), 1u);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.75);
}

TEST(Metrics, ReferencesAreStableAcrossInsertions) {
  MetricsRegistry reg;
  Counter& a = reg.counter("hot.path");
  // Force many more map insertions; the cached reference must stay valid.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i)).inc();
  }
  a.inc(7);
  EXPECT_EQ(reg.counter("hot.path").value(), 7u);
}

TEST(Metrics, HistogramBucketing) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);    // <= 1
  h.observe(1.0);    // <= 1 (bounds are inclusive upper edges)
  h.observe(5.0);    // <= 10
  h.observe(50.0);   // <= 100
  h.observe(500.0);  // overflow
  ASSERT_EQ(h.counts().size(), 4u);
  EXPECT_EQ(h.counts()[0], 2u);
  EXPECT_EQ(h.counts()[1], 1u);
  EXPECT_EQ(h.counts()[2], 1u);
  EXPECT_EQ(h.counts()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 556.5);
  // Second lookup with different bounds returns the existing histogram.
  EXPECT_EQ(&reg.histogram("lat", {42.0}), &h);
}

TEST(Metrics, JsonExportIsDeterministicAndWellFormed) {
  MetricsRegistry reg;
  reg.counter("z.last").inc(2);
  reg.counter("a.first").inc(1);
  reg.gauge("busy").set(0.5);
  reg.histogram("batch", {1.0, 2.0}).observe(1.5);

  const Json json = reg.to_json();
  // Member order included: names sorted, so a.first precedes z.last.
  std::string err;
  const auto expected = Json::parse(
      R"({"counters": {"a.first": 1, "z.last": 2},
          "gauges": {"busy": 0.5},
          "histograms": {"batch": {"bounds": [1, 2], "counts": [0, 1, 0],
                                   "count": 1, "sum": 1.5}}})",
      &err);
  ASSERT_TRUE(expected.has_value()) << err;
  EXPECT_EQ(json, *expected);
  // Byte-identical across calls (determinism for sidecar diffs), and the
  // written form parses back to the same document.
  EXPECT_EQ(json.dump(), reg.to_json().dump());
  EXPECT_EQ(Json::parse(json.dump()), json);
}

TEST(Metrics, EmptyRegistryExports) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.to_json(), Json::parse(R"({"counters": {}, "gauges": {},
                                           "histograms": {}})"));
}

}  // namespace
}  // namespace byzcast
