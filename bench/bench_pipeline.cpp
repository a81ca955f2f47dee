// Consensus pipelining / adaptive batching sweep. A WAN group's consensus
// round is network-bound (inter-region RTTs dwarf the leader's CPU), so the
// sequential protocol caps at one batch_max batch per round trip — here
// ~2.9k msg/s — no matter the offered load. The sweep drives a 2-level
// mixed open-loop workload at 6k msg/s (twice the sequential ceiling)
// through pipeline depths 1/2/4/8 (depth 1 = the sequential
// one-instance-at-a-time ablation) under both the default assembly window
// (batch_timeout 0 = the cpu_propose_fixed window) and a short 400us cut.
// Span tracing is on for every run, so the critical-path decomposition
// shows *where* a deeper window buys its throughput: the queueing component
// (mailbox + batch-assembly backlog) collapses against the saturated
// depth-1 ablation, while cpu and network stay put.
//
// (The LAN preset is the wrong place to look for this win: its calibrated
// cost model is leader-CPU-bound — every extra instance pays the fixed
// propose/validate cost, so at saturation the deepest batches, i.e. depth
// 1, are optimal. That is BFT-SMaRt's own observation; pipelining is a
// geo-replication lever.)
//
// Writes BENCH_pipeline.json and enforces, in-process (the simulation is
// deterministic, so these are stable gates, not flaky wall-clock
// comparisons):
//
//  * every configuration completes and its invariant monitors are clean;
//  * at the default window, the best depth > 1 beats the depth-1
//    ablation's mixed throughput by at least 20%;
//  * the global-class queueing p50 at the best depth does not exceed the
//    depth-1 ablation's.
//
// CI runs this binary in the perf-smoke job; tools/plot_benches.py picks up
// the JSON for the summary.
#include <cstdio>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/critical_path.hpp"
#include "workload/report.hpp"

namespace {

using namespace byzcast;

constexpr std::uint32_t kDepths[] = {1, 2, 4, 8};
constexpr Time kTimeouts[] = {0, 400 * kMicrosecond};  // 0 = preset window
constexpr double kOfferedRate = 6000.0;  // ~2x the depth-1 WAN ceiling

struct RunResult {
  std::uint32_t depth = 0;
  Time batch_timeout = 0;
  double throughput = 0.0;
  double throughput_global = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  core::ClassAggregate local;
  core::ClassAggregate global;
  std::uint64_t violations = 0;
  std::uint64_t completed = 0;
};

RunResult run_one(std::uint32_t depth, Time batch_timeout) {
  workload::ExperimentConfig config;
  config.protocol = workload::Protocol::kByzCast2Level;
  config.environment = workload::Environment::kWan;
  config.num_groups = 2;
  config.f = 1;
  config.clients_per_group = 100;
  config.workload.pattern = workload::Pattern::kMixed;
  config.open_loop_total_rate = kOfferedRate;
  config.payload_size = 64;
  config.warmup = 5 * kSecond;
  config.duration = 10 * kSecond;
  config.seed = 42;
  config.span_tracing = true;
  config.span_sample_every = 32;
  config.monitors = true;
  // The saturated depth-1 ablation queues tens of thousands of admitted
  // requests by design; leave the pending-copies bound off and keep the
  // ordering/agreement monitors armed.
  config.monitor_pending_bound = 0;
  config.pipeline_depth = depth;
  config.batch_timeout = batch_timeout;

  const workload::ExperimentResult result = workload::run_experiment(config);

  RunResult r;
  r.depth = depth;
  r.batch_timeout = batch_timeout;
  r.throughput = result.throughput;
  r.throughput_global = result.throughput_global;
  r.p50_ms = result.latency_all.percentile_ms(50.0);
  r.p99_ms = result.latency_all.percentile_ms(99.0);
  r.completed = result.completed;
  r.violations = result.monitors->total_violations();
  core::CriticalPathAnalyzer analyzer(
      *result.spans, core::CriticalPathAnalyzer::Options{config.f});
  r.local = analyzer.aggregate(/*global=*/false);
  r.global = analyzer.aggregate(/*global=*/true);
  return r;
}

double ms(Time t) { return static_cast<double>(t) / 1e6; }

Json aggregate_json(const core::ClassAggregate& agg) {
  Json j = Json::object();
  j.set("n", Json::number(agg.n));
  j.set("end_to_end_p50_ns", Json::number(agg.end_to_end.p50));
  j.set("queueing_p50_ns", Json::number(agg.queueing.p50));
  j.set("cpu_p50_ns", Json::number(agg.cpu.p50));
  j.set("network_p50_ns", Json::number(agg.network.p50));
  j.set("quorum_wait_p50_ns", Json::number(agg.quorum_wait.p50));
  return j;
}

}  // namespace

int main() {
  using workload::fmt;
  workload::print_header(
      "Pipelining sweep: ByzCast-2L WAN, 2 groups mixed 10:1, f=1, "
      "open-loop 6k msg/s, depth x batch-timeout (depth 1 = sequential "
      "ablation)");

  std::vector<RunResult> runs;
  for (const Time timeout : kTimeouts) {
    for (const std::uint32_t depth : kDepths) {
      runs.push_back(run_one(depth, timeout));
      const RunResult& r = runs.back();
      std::printf("depth=%u timeout=%lldus: %.0f msg/s (completed %llu)\n",
                  r.depth,
                  static_cast<long long>(r.batch_timeout / kMicrosecond),
                  r.throughput, static_cast<unsigned long long>(r.completed));
    }
  }

  std::vector<std::vector<std::string>> rows;
  for (const RunResult& r : runs) {
    rows.push_back(
        {std::to_string(r.depth),
         r.batch_timeout == 0
             ? "preset"
             : std::to_string(r.batch_timeout / kMicrosecond) + "us",
         fmt(r.throughput, 0), fmt(r.p50_ms, 2), fmt(r.p99_ms, 2),
         fmt(ms(r.global.queueing.p50), 2),
         fmt(ms(r.global.quorum_wait.p50), 2),
         std::to_string(r.violations)});
  }
  workload::print_table({"depth", "window", "msgs/s", "p50 ms", "p99 ms",
                         "glob queue p50", "glob quorum p50", "violations"},
                        rows);

  // Depth-1 ablation vs the best deeper window, at the default assembly
  // window (timeout row 0 holds runs 0..3 in kDepths order).
  const RunResult& ablation = runs[0];
  const RunResult* best = &ablation;
  for (std::size_t i = 1; i < 4; ++i) {
    if (runs[i].throughput > best->throughput) best = &runs[i];
  }
  std::printf(
      "\nbest depth %u: %.0f msg/s vs depth-1 ablation %.0f msg/s "
      "(%+.1f%%); global queueing p50 %.2f -> %.2f ms\n",
      best->depth, best->throughput, ablation.throughput,
      ablation.throughput > 0.0
          ? 100.0 * (best->throughput - ablation.throughput) /
                ablation.throughput
          : 0.0,
      ms(ablation.global.queueing.p50), ms(best->global.queueing.p50));

  Json configs = Json::array();
  for (const RunResult& r : runs) {
    Json c = Json::object();
    c.set("pipeline_depth", Json::number(r.depth));
    c.set("batch_timeout_us", Json::number(r.batch_timeout / kMicrosecond));
    c.set("throughput_msgs_s", Json::number(r.throughput));
    c.set("throughput_global_msgs_s", Json::number(r.throughput_global));
    c.set("latency_p50_ms", Json::number(r.p50_ms));
    c.set("latency_p99_ms", Json::number(r.p99_ms));
    c.set("monitor_violations", Json::number(r.violations));
    c.set("local", aggregate_json(r.local));
    c.set("global", aggregate_json(r.global));
    configs.push_back(std::move(c));
  }
  Json doc = Json::object();
  doc.set("bench", Json::string("pipeline"));
  doc.set("backend", Json::string("sim"));
  doc.set("environment", Json::string("wan"));
  doc.set("protocol", Json::string("byzcast-2l"));
  doc.set("groups", Json::number(2));
  doc.set("f", Json::number(1));
  doc.set("pattern", Json::string("mixed"));
  doc.set("clients_per_group", Json::number(100));
  doc.set("open_loop_rate_msgs_s", Json::number(kOfferedRate));
  doc.set("knobs",
          Json::string("Profile::pipeline_depth x Profile::batch_timeout "
                       "(0 = cpu_propose_fixed window); depth 1 = sequential "
                       "ablation"));
  doc.set("configs", std::move(configs));
  write_json_file("BENCH_pipeline.json", doc);

  int failures = 0;
  for (const RunResult& r : runs) {
    if (r.completed == 0 || r.throughput <= 0.0) {
      std::printf("FAIL: depth=%u timeout=%lld did not complete\n", r.depth,
                  static_cast<long long>(r.batch_timeout));
      ++failures;
    }
    if (r.violations != 0) {
      std::printf("FAIL: depth=%u timeout=%lld tripped %llu invariant "
                  "violations\n",
                  r.depth, static_cast<long long>(r.batch_timeout),
                  static_cast<unsigned long long>(r.violations));
      ++failures;
    }
  }
  if (best->throughput < 1.2 * ablation.throughput) {
    std::printf("FAIL: best depth %.0f msg/s is not >= 1.2x the depth-1 "
                "ablation (%.0f msg/s)\n",
                best->throughput, ablation.throughput);
    ++failures;
  }
  if (best->global.queueing.p50 > ablation.global.queueing.p50) {
    std::printf("FAIL: global queueing p50 grew against the ablation "
                "(%.2f -> %.2f ms)\n",
                ms(ablation.global.queueing.p50),
                ms(best->global.queueing.p50));
    ++failures;
  }
  return failures == 0 ? 0 : 1;
}
