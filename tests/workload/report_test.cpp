#include "workload/report.hpp"

#include <gtest/gtest.h>

#include <fstream>

#include "common/json.hpp"

namespace byzcast::workload {
namespace {

TEST(Report, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(1234.5, 1), "1234.5");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(Report, TableAlignsColumns) {
  ::testing::internal::CaptureStdout();
  print_table({"col", "value"},
              {{"aaaa", "1"}, {"b", "22222"}});
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("col"), std::string::npos);
  EXPECT_NE(out.find("aaaa"), std::string::npos);
  EXPECT_NE(out.find("22222"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Report, HeaderFormat) {
  ::testing::internal::CaptureStdout();
  print_header("Figure 42");
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_EQ(out, "\n== Figure 42 ==\n");
}

TEST(Report, MetricsSidecarWritesObservabilityJson) {
  ExperimentConfig cfg;
  cfg.protocol = Protocol::kByzCast2Level;
  cfg.num_groups = 2;
  cfg.clients_per_group = 2;
  cfg.workload.pattern = Pattern::kGlobalUniformPairs;
  cfg.warmup = 200 * kMillisecond;
  cfg.duration = 1 * kSecond;
  cfg.seed = 5;
  const ExperimentResult result = run_experiment(cfg);
  ASSERT_NE(result.metrics, nullptr);

  const std::string path = ::testing::TempDir() + "bzc_metrics_test.json";
  write_metrics_sidecar(path, result);
  std::string err;
  const auto doc = read_json_file(path, &err);
  ASSERT_TRUE(doc.has_value()) << err;

  // Acceptance-criterion contents: run summary, per-group a-delivery
  // counters, per-replica CPU-busy fractions and queue-depth timeseries.
  EXPECT_EQ(doc->get("summary").get("completed").as_int(),
            static_cast<std::int64_t>(result.completed));
  const Json& metrics = doc->get("metrics");
  EXPECT_TRUE(metrics.get("counters").has("group.a_deliveries.g0"));
  EXPECT_TRUE(metrics.get("counters").has("group.a_deliveries.g1"));
  EXPECT_TRUE(metrics.get("gauges").has("replica.cpu_busy_mean.g0.r0"));
  EXPECT_TRUE(metrics.get("timeseries").has("actor.queue_depth.g0.r0"));
}

TEST(Report, MetricsSidecarIsNoOpWithoutObservability) {
  ExperimentResult result;  // metrics left null
  const std::string path =
      ::testing::TempDir() + "bzc_metrics_absent_test.json";
  write_metrics_sidecar(path, result);
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

TEST(Report, SeriesCsvWritesRows) {
  const std::string path = ::testing::TempDir() + "bzc_series_test.csv";
  write_series_csv(path, {"a", "b"}, {{"1", "2"}, {"3", "4"}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  std::getline(in, line);
  EXPECT_EQ(line, "3,4");
}

}  // namespace
}  // namespace byzcast::workload
