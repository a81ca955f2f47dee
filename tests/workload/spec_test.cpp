// Workload spec parsing: the JSON schema of configs/workloads/*.json maps
// onto ExperimentConfig/RateSchedule, defaults hold when fields are absent,
// and malformed documents are rejected with a diagnostic instead of running
// a half-configured experiment.
#include "workload/spec.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "common/json.hpp"

namespace byzcast::workload {
namespace {

std::optional<WorkloadSpec> parse(const std::string& text,
                                  std::string* error = nullptr) {
  std::string json_error;
  const auto doc = Json::parse(text, &json_error);
  EXPECT_TRUE(doc.has_value()) << json_error;
  if (!doc) return std::nullopt;
  return parse_workload_spec(*doc, error);
}

TEST(WorkloadSpec, ParsesFullSweepDocument) {
  const auto spec = parse(R"({
    "name": "wan-sweep",
    "protocol": "byzcast-2l",
    "environment": "wan",
    "num_groups": 2,
    "f": 1,
    "clients_per_group": 100,
    "payload_size": 64,
    "warmup_ms": 2000,
    "duration_ms": 6000,
    "seed": 42,
    "monitors": true,
    "workload": {"pattern": "mixed", "mixed_local": 10, "mixed_global": 1},
    "rate": {"kind": "sweep", "rates": [1500, 3000, 4500],
             "knee_p99_factor": 4.0, "knee_goodput_floor": 0.9,
             "bisect_iters": 2},
    "curves": [
      {"label": "baseline"},
      {"label": "pipeline_off", "pipeline_depth": 1,
       "expect": {"knee": {"max": 1.2}}}
    ]
  })");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->name, "wan-sweep");
  EXPECT_EQ(spec->base.protocol, Protocol::kByzCast2Level);
  EXPECT_EQ(spec->base.environment, Environment::kWan);
  EXPECT_EQ(spec->base.num_groups, 2);
  EXPECT_EQ(spec->base.clients_per_group, 100);
  EXPECT_EQ(spec->base.payload_size, 64u);
  EXPECT_EQ(spec->base.warmup, 2 * kSecond);
  EXPECT_EQ(spec->base.duration, 6 * kSecond);
  EXPECT_EQ(spec->base.seed, 42u);
  EXPECT_TRUE(spec->base.monitors);
  EXPECT_EQ(spec->base.workload.pattern, Pattern::kMixed);
  EXPECT_EQ(spec->schedule.kind, RateSchedule::Kind::kSweep);
  ASSERT_EQ(spec->schedule.rates.size(), 3u);
  EXPECT_DOUBLE_EQ(spec->schedule.rates[1], 3000.0);
  EXPECT_DOUBLE_EQ(spec->schedule.knee_p99_factor, 4.0);
  EXPECT_DOUBLE_EQ(spec->schedule.knee_goodput_floor, 0.9);
  EXPECT_EQ(spec->schedule.bisect_iters, 2);
  ASSERT_EQ(spec->curves.size(), 2u);
  EXPECT_EQ(spec->curves[0].label, "baseline");
  EXPECT_EQ(spec->curves[0].config.pipeline_depth, 0u);  // preset depth
  EXPECT_TRUE(spec->curves[0].expect.empty());
  // A curve is its keys applied over a copy of the base: it inherits
  // everything else, and the base itself stays untouched.
  const ExperimentConfig& off = spec->curves[1].config;
  EXPECT_EQ(spec->curves[1].label, "pipeline_off");
  EXPECT_EQ(off.pipeline_depth, 1u);
  EXPECT_EQ(off.environment, Environment::kWan);
  EXPECT_EQ(off.clients_per_group, 100);
  EXPECT_EQ(off.duration, 6 * kSecond);
  EXPECT_EQ(off.workload.pattern, Pattern::kMixed);
  EXPECT_EQ(spec->base.pipeline_depth, 0u);
  ASSERT_EQ(spec->curves[1].expect.size(), 1u);
  EXPECT_EQ(spec->curves[1].expect[0].metric, "knee");
  EXPECT_DOUBLE_EQ(spec->curves[1].expect[0].min, 0.0);
  EXPECT_DOUBLE_EQ(spec->curves[1].expect[0].max, 1.2);
}

TEST(WorkloadSpec, MinimalDocumentKeepsDefaults) {
  const auto spec = parse(R"({"name": "tiny"})");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->base.protocol, Protocol::kByzCast2Level);
  EXPECT_EQ(spec->base.environment, Environment::kLan);
  EXPECT_EQ(spec->schedule.kind, RateSchedule::Kind::kFixed);
  EXPECT_DOUBLE_EQ(spec->schedule.fixed_rate, 0.0);  // 0 = closed loop
  EXPECT_TRUE(spec->curves.empty());
  EXPECT_LT(spec->base.open_loop_local_share, 0.0);  // pattern's own mix
  // Without curves the spec runs its base alone.
  const std::vector<CurveSpec> curves = curves_of(*spec);
  ASSERT_EQ(curves.size(), 1u);
  EXPECT_EQ(curves[0].label, "baseline");
  EXPECT_EQ(curves[0].config.seed, spec->base.seed);
}

TEST(WorkloadSpec, ParsesStagePipelineKnobs) {
  const auto spec = parse(R"({
    "name": "vertical",
    "verify_workers": 4,
    "exec_shards": 8,
    "curves": [{"label": "staged"},
               {"label": "serial", "verify_workers": 0, "exec_shards": 0}]
  })");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->base.verify_workers, 4u);
  EXPECT_EQ(spec->base.exec_shards, 8u);
  ASSERT_EQ(spec->curves.size(), 2u);
  EXPECT_EQ(spec->curves[0].config.verify_workers, 4u);
  // The serial curve is the same knobs at width 0.
  EXPECT_EQ(spec->curves[1].config.verify_workers, 0u);
  EXPECT_EQ(spec->curves[1].config.exec_shards, 0u);

  // Absent knobs default to the serial pipeline.
  const auto plain = parse(R"({"name": "tiny"})");
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->base.verify_workers, 0u);
  EXPECT_EQ(plain->base.exec_shards, 0u);
}

TEST(WorkloadSpec, ParsesBatchingAndTracingKnobs) {
  const auto spec = parse(R"({
    "name": "pipeline",
    "span_tracing": true,
    "span_sample_every": 32,
    "span_capacity": 4096,
    "rate": {"kind": "fixed", "value": 6000},
    "curves": [
      {"label": "depth1", "pipeline_depth": 1},
      {"label": "fixed_batches", "batch_min": 400, "batch_max": 400,
       "batch_timeout_us": 400,
       "expect": {"throughput": {"min": 1.2},
                  "global.queueing_p50": {"max": 1.0}}}
    ]
  })");
  ASSERT_TRUE(spec.has_value());
  EXPECT_TRUE(spec->base.span_tracing);
  EXPECT_EQ(spec->base.span_sample_every, 32u);
  EXPECT_EQ(spec->base.span_capacity, 4096u);
  EXPECT_EQ(spec->curves[0].config.pipeline_depth, 1u);
  const ExperimentConfig& fixed = spec->curves[1].config;
  EXPECT_EQ(fixed.pipeline_depth, 0u);
  EXPECT_EQ(fixed.batch_min, 400u);
  EXPECT_EQ(fixed.batch_max, 400u);
  EXPECT_EQ(fixed.batch_timeout, 400 * kMicrosecond);
  EXPECT_EQ(fixed.span_sample_every, 32u);
  ASSERT_EQ(spec->curves[1].expect.size(), 2u);
  EXPECT_EQ(spec->curves[1].expect[1].metric, "global.queueing_p50");
  EXPECT_DOUBLE_EQ(spec->curves[1].expect[1].max, 1.0);
}

TEST(WorkloadSpec, LatencyBoundsReadTheUntracedRecorders) {
  const auto spec = parse(R"({
    "name": "closed-loop",
    "rate": {"kind": "fixed", "value": 0},
    "curves": [
      {"label": "local"},
      {"label": "global", "workload": {"pattern": "uniform-pairs"},
       "expect": {"p50": {"min": 1.8, "max": 2.2},
                  "global.p99": {"max": 3}, "local.p50": {"min": 0.5}}}
    ]
  })");
  ASSERT_TRUE(spec.has_value());  // no span_tracing needed
  EXPECT_DOUBLE_EQ(spec->schedule.fixed_rate, 0.0);
  ASSERT_EQ(spec->curves[1].expect.size(), 3u);
  EXPECT_EQ(spec->curves[1].expect[0].metric, "p50");
  EXPECT_DOUBLE_EQ(spec->curves[1].expect[0].min, 1.8);
  EXPECT_DOUBLE_EQ(spec->curves[1].expect[0].max, 2.2);
  EXPECT_EQ(spec->curves[1].expect[1].metric, "global.p99");
  EXPECT_EQ(spec->curves[1].expect[2].metric, "local.p50");
}

TEST(WorkloadSpec, ParsesZipfWorkloadAndLocalShare) {
  const auto spec = parse(R"({
    "name": "zipf",
    "workload": {"pattern": "zipf", "zipf_s": 0.99, "global_fanout": 2,
                 "local_share": 0.9},
    "rate": {"kind": "fixed", "value": 4000}
  })");
  ASSERT_TRUE(spec.has_value());
  EXPECT_EQ(spec->base.workload.pattern, Pattern::kZipf);
  EXPECT_DOUBLE_EQ(spec->base.workload.zipf_s, 0.99);
  EXPECT_DOUBLE_EQ(spec->base.open_loop_local_share, 0.9);
  EXPECT_DOUBLE_EQ(spec->schedule.fixed_rate, 4000.0);
}

TEST(WorkloadSpec, RejectsBadDocuments) {
  const struct {
    const char* text;
    const char* why;
  } cases[] = {
      {R"({})", "missing name"},
      {R"({"name": "x", "protocol": "paxos"})", "unknown protocol"},
      {R"({"name": "x", "environment": "moon"})", "unknown environment"},
      {R"({"name": "x", "workload": {"pattern": "hot"}})", "unknown pattern"},
      {R"({"name": "x", "workload": {"zipf_s": -1}})", "negative zipf_s"},
      {R"({"name": "x", "workload": {"local_share": 1.5}})",
       "local_share > 1"},
      {R"({"name": "x", "rate": {"kind": "warp"}})", "unknown rate kind"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": []}})",
       "empty rates"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [100, 100]}})",
       "non-increasing rates"},
      {R"({"name": "x", "rate": {"kind": "step", "rates": [0, 100]}})",
       "non-positive rate"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [1, 2],
           "knee_p99_factor": 1.0}})",
       "knee factor must exceed 1"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [1, 2],
           "knee_goodput_floor": 1.5}})",
       "goodput floor above 1"},
      {R"({"name": "x", "ablations": []})", "the former switch list"},
      {R"({"name": "x", "num_groups": 0})", "no groups"},
      {R"({"name": "x", "duration_ms": 0})", "empty window"},
      // Negative or out-of-range numbers, wrong types.
      {R"({"name": "x", "payload_size": -1})", "negative payload"},
      {R"({"name": "x", "verify_workers": -1})", "negative workers"},
      {R"({"name": "x", "exec_shards": 100000})", "absurd shard count"},
      {R"({"name": "x", "seed": -1})", "negative seed"},
      {R"({"name": "x", "num_groups": 2.5})", "fractional count"},
      {R"({"name": "x", "num_groups": "2"})", "count as a string"},
      {R"({"name": "x", "monitors": 1})", "flag as a number"},
      {R"({"name": "x", "environment": 1})", "enum as a number"},
      {R"({"name": "x", "span_sample_every": 0})", "zero sampling period"},
      {R"({"name": "x", "batch_min": 8, "batch_max": 4})",
       "batch_min above batch_max"},
      {R"({"name": "x", "num_groups": 2,
           "workload": {"pattern": "zipf", "global_fanout": 3}})",
       "fanout above the group count"},
      // Misspelt keys at the root, in nested objects and in curves.
      {R"({"name": "x", "verify_worker": 4})", "misspelt root key"},
      {R"({"name": "x", "workload": {"patern": "local"}})",
       "misspelt workload key"},
      {R"({"name": "x", "rate": {"kind": "fixed", "valu": 5}})",
       "misspelt rate key"},
      {R"({"name": "x", "rate": {"kind": "fixed", "rates": [5]}})",
       "sweep key in a fixed schedule"},
      {R"({"name": "x", "curves": [{"label": "a"},
                                   {"label": "b", "verify_worker": 4}]})",
       "misspelt curve override"},
      {R"({"name": "x", "curves": [{"label": "a", "exec_shards": -2}]})",
       "negative curve override"},
      // Malformed curves.
      {R"({"name": "x", "curves": []})", "empty curves"},
      {R"({"name": "x", "curves": [{"verify_workers": 2}]})",
       "curve without a label"},
      {R"({"name": "x", "curves": [{"label": "a"}, {"label": "a"}]})",
       "duplicate labels"},
      {R"({"name": "x", "curves": ["a"]})", "curve not an object"},
      // Malformed expectations.
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [1, 2]},
           "curves": [{"label": "a"},
                      {"label": "b", "expect": {"knees": {"max": 1}}}]})",
       "unknown expect metric"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [1, 2]},
           "curves": [{"label": "a"},
                      {"label": "b", "expect": {"throughput": {"min": 1}}}]})",
       "throughput bound in sweep mode"},
      {R"({"name": "x", "rate": {"kind": "fixed", "value": 5},
           "curves": [{"label": "a"},
                      {"label": "b", "expect": {"knee": {"min": 1}}}]})",
       "knee bound in fixed mode"},
      {R"({"name": "x", "rate": {"kind": "fixed", "value": 5},
           "curves": [{"label": "a"},
                      {"label": "b",
                       "expect": {"local.cpu_p50": {"max": 1}}}]})",
       "breakdown bound without span tracing"},
      {R"({"name": "x", "curves": [{"label": "a"},
                                   {"label": "b",
                                    "expect": {"remote.p50": {"max": 1}}}]})",
       "unknown latency class"},
      {R"({"name": "x", "curves": [{"label": "a"},
                                   {"label": "b",
                                    "expect": {"local.p95": {"max": 1}}}]})",
       "unknown latency percentile"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [1, 2]},
           "curves": [{"label": "a"},
                      {"label": "b", "expect": {"p99": {"max": 1}}}]})",
       "latency bound in sweep mode"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [1, 2]},
           "curves": [{"label": "a", "expect": {"knee": {"max": 1}}}]})",
       "bound on the reference curve"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [1, 2]},
           "curves": [{"label": "a"},
                      {"label": "b", "expect": {"knee": {}}}]})",
       "bound without min or max"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [1, 2]},
           "curves": [{"label": "a"},
                      {"label": "b",
                       "expect": {"knee": {"min": 2, "max": 1}}}]})",
       "min above max"},
      {R"({"name": "x", "rate": {"kind": "sweep", "rates": [1, 2]},
           "curves": [{"label": "a"},
                      {"label": "b",
                       "expect": {"knee": {"min": 1, "mx": 2}}}]})",
       "misspelt bound key"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(parse(c.text, &error).has_value()) << c.why;
    EXPECT_FALSE(error.empty()) << c.why;
  }
}

TEST(WorkloadSpec, LoadsCheckedInSpecFiles) {
  // Every shipped spec must stay parseable: they are the CI sweeps', the
  // benchmark scripts' and the cluster smoke's inputs.
  std::size_t loaded = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(BZC_CONFIGS_DIR) + "/workloads")) {
    if (entry.path().extension() != ".json") continue;
    std::string error;
    const auto spec = load_workload_spec(entry.path().string(), &error);
    EXPECT_TRUE(spec.has_value()) << entry.path() << ": " << error;
    ++loaded;
  }
  EXPECT_GT(loaded, 0u);
}

TEST(WorkloadSpec, LoadReportsMissingFile) {
  std::string error;
  EXPECT_FALSE(load_workload_spec("/nonexistent/spec.json", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace byzcast::workload
