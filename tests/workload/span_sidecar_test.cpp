// The span sidecar and Chrome trace must be byte-identical across same-seed
// simulation runs: the experiment harness, the span pipeline, and both
// exporters are fully deterministic (integer nanoseconds, sorted message
// ids, no host-time or pointer-order leakage).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/json.hpp"
#include "workload/report.hpp"

namespace byzcast::workload {
namespace {

ExperimentConfig traced_config() {
  ExperimentConfig config;
  config.protocol = Protocol::kByzCast2Level;
  config.num_groups = 2;
  config.clients_per_group = 3;
  config.workload.pattern = Pattern::kMixed;
  config.warmup = 50 * kMillisecond;
  config.duration = 150 * kMillisecond;
  config.seed = 11;
  config.span_tracing = true;
  config.span_sample_every = 1;
  config.monitors = true;
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(SpanSidecar, SameSeedRunsAreByteIdentical) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "bzc_span_sidecar").string();
  const ExperimentConfig config = traced_config();

  std::vector<std::string> sidecars, chromes;
  for (int run = 0; run < 2; ++run) {
    const ExperimentResult result = run_experiment(config);
    ASSERT_NE(result.spans, nullptr);
    EXPECT_GT(result.spans->spans().size(), 0u);
    const std::string spans_path =
        dir + "/spans_" + std::to_string(run) + ".json";
    const std::string chrome_path =
        dir + "/chrome_" + std::to_string(run) + ".json";
    write_span_sidecar(spans_path, result, config.f);
    write_chrome_trace(chrome_path, result);
    sidecars.push_back(slurp(spans_path));
    chromes.push_back(slurp(chrome_path));
  }
  ASSERT_FALSE(sidecars[0].empty());
  ASSERT_FALSE(chromes[0].empty());
  EXPECT_EQ(sidecars[0], sidecars[1]);
  EXPECT_EQ(chromes[0], chromes[1]);
  std::filesystem::remove_all(dir);
}

TEST(SpanSidecar, SchemaAndMonitorsOnCleanRun) {
  const ExperimentResult result = run_experiment(traced_config());
  ASSERT_NE(result.monitors, nullptr);
  EXPECT_EQ(result.monitors->total_violations(), 0u);

  const std::string dir =
      (std::filesystem::temp_directory_path() / "bzc_span_schema").string();
  const std::string path = dir + "/spans.json";
  write_span_sidecar(path, result, 1);
  std::string err;
  const auto doc = read_json_file(path, &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->get("schema").as_string(), "byzcast-spans-v1");
  EXPECT_TRUE(doc->get("messages").is_array());
  EXPECT_TRUE(doc->get("aggregates").get("local").is_object());
  EXPECT_TRUE(doc->get("edges").is_array());
  EXPECT_EQ(doc->get("monitor").int_or("violations_total", -1), 0);
  std::filesystem::remove_all(dir);
}

TEST(SpanSidecar, NoOpWithoutSpans) {
  ExperimentConfig config = traced_config();
  config.span_tracing = false;
  config.monitors = false;
  const ExperimentResult result = run_experiment(config);
  EXPECT_EQ(result.spans, nullptr);
  const std::string path =
      (std::filesystem::temp_directory_path() / "bzc_span_noop.json")
          .string();
  write_span_sidecar(path, result, 1);
  EXPECT_FALSE(std::filesystem::exists(path));
}

}  // namespace
}  // namespace byzcast::workload
