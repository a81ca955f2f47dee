// Prometheus exposition writer: the /metrics endpoint is scraped mid-run by
// external tooling, so the text must be legal exposition format 0.0.4 —
// sanitized names, escaped label values, cumulative monotone buckets with
// le="+Inf" equal to _count, and deterministic ordering so two scrapes of
// the same state are byte-identical.
#include "common/prom.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.hpp"

namespace byzcast {
namespace {

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) out.push_back(line);
  return out;
}

TEST(Prom, MetricNameSanitization) {
  EXPECT_EQ(prometheus_metric_name("node.a_deliver.g0"),
            "node_a_deliver_g0");
  EXPECT_EQ(prometheus_metric_name("actor.cpu-busy.g1.r2"),
            "actor_cpu_busy_g1_r2");
  // Colons are legal (recording-rule convention) and survive.
  EXPECT_EQ(prometheus_metric_name("byzcast:edge:p99"), "byzcast:edge:p99");
  // A leading digit is illegal; the conventional fix is a '_' prefix.
  EXPECT_EQ(prometheus_metric_name("9lives"), "_9lives");
  EXPECT_EQ(prometheus_metric_name(""), "");
}

TEST(Prom, LabelValueEscaping) {
  EXPECT_EQ(prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(prometheus_escape_label("back\\slash"), "back\\\\slash");
  EXPECT_EQ(prometheus_escape_label("quo\"te"), "quo\\\"te");
  EXPECT_EQ(prometheus_escape_label("new\nline"), "new\\nline");
  // All three at once, in order.
  EXPECT_EQ(prometheus_escape_label("\\\"\n"), "\\\\\\\"\\n");
}

TEST(Prom, CountersGetTotalSuffixAndConstLabels) {
  MetricsRegistry reg;
  reg.counter("node.a_deliver.g0").inc(41);
  reg.counter("node.a_deliver.g0").inc();
  const std::string text =
      prometheus_text(reg, {{"node", "g1_r2"}, {"odd", "a\"b"}});
  EXPECT_NE(text.find("# TYPE node_a_deliver_g0_total counter\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("node_a_deliver_g0_total{node=\"g1_r2\",odd=\"a\\\"b\"} 42\n"),
      std::string::npos);
}

TEST(Prom, GaugesCarryValueWithoutSuffix) {
  MetricsRegistry reg;
  reg.gauge("net.clock.offset_ns").set(-1500.5);
  const std::string text = prometheus_text(reg);
  EXPECT_NE(text.find("# TYPE net_clock_offset_ns gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("net_clock_offset_ns -1500.5\n"), std::string::npos);
  EXPECT_EQ(text.find("_total"), std::string::npos);
}

TEST(Prom, HistogramBucketsAreCumulativeAndInfEqualsCount) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("lat.ms", {1.0, 5.0, 10.0});
  h.observe(0.5);   // bucket le=1
  h.observe(0.9);   // bucket le=1
  h.observe(4.0);   // bucket le=5
  h.observe(10.0);  // bucket le=10 (boundary is inclusive)
  h.observe(99.0);  // overflow -> only +Inf
  const std::string text = prometheus_text(reg);

  EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"5\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"10\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 5\n"), std::string::npos);

  // Invariants stated generically: buckets monotone nondecreasing in le
  // order, and the +Inf bucket equals _count.
  std::vector<std::uint64_t> cumulative;
  std::uint64_t count = 0;
  for (const std::string& line : lines_of(text)) {
    if (line.rfind("lat_ms_bucket", 0) == 0) {
      cumulative.push_back(std::stoull(line.substr(line.rfind(' ') + 1)));
    } else if (line.rfind("lat_ms_count", 0) == 0) {
      count = std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  ASSERT_EQ(cumulative.size(), 4u);
  for (std::size_t i = 1; i < cumulative.size(); ++i) {
    EXPECT_GE(cumulative[i], cumulative[i - 1]);
  }
  EXPECT_EQ(cumulative.back(), count);
}

TEST(Prom, HistogramLabelsComposeWithLe) {
  MetricsRegistry reg;
  reg.histogram("lat.ms", {2.0}).observe(1.0);
  const std::string text = prometheus_text(reg, {{"node", "g0_r1"}});
  EXPECT_NE(text.find("lat_ms_bucket{node=\"g0_r1\",le=\"2\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_ms_bucket{node=\"g0_r1\",le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_ms_sum{node=\"g0_r1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count{node=\"g0_r1\"} 1\n"), std::string::npos);
}

TEST(Prom, OrderIsDeterministicCountersThenGaugesThenHistograms) {
  MetricsRegistry reg;
  // Registered deliberately out of lexical order and out of kind order.
  reg.histogram("zz.hist", {1.0}).observe(0.5);
  reg.gauge("mm.gauge").set(7);
  reg.counter("bb.counter").inc();
  reg.counter("aa.counter").inc();

  const std::string first = prometheus_text(reg);
  const std::string second = prometheus_text(reg);
  EXPECT_EQ(first, second);  // byte-identical across scrapes of same state

  const auto pos_aa = first.find("aa_counter_total");
  const auto pos_bb = first.find("bb_counter_total");
  const auto pos_gauge = first.find("mm_gauge");
  const auto pos_hist = first.find("zz_hist_bucket");
  ASSERT_NE(pos_aa, std::string::npos);
  ASSERT_NE(pos_bb, std::string::npos);
  ASSERT_NE(pos_gauge, std::string::npos);
  ASSERT_NE(pos_hist, std::string::npos);
  EXPECT_LT(pos_aa, pos_bb);     // sorted by name within a kind
  EXPECT_LT(pos_bb, pos_gauge);  // counters before gauges
  EXPECT_LT(pos_gauge, pos_hist);  // gauges before histograms
}

}  // namespace
}  // namespace byzcast
