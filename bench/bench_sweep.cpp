// Offered-load sweep with saturation-knee detection (the workload engine's
// flagship artifact). Default spec: ByzCast-2L on the WAN preset, 2 groups,
// mixed 10:1 open-loop load swept from well under the sequential ceiling to
// past the pipelined one, baseline (pipeline depth 4) next to the
// pipeline_off ablation (depth 1). The SweepDriver classifies each point
// against the low-load p99 plateau and goodput floor, bisects the knee, and
// the result lands in BENCH_sweep.json ("byzcast-sweep-v1", validated by
// tools/check_sweep.py, plotted by tools/plot_benches.py).
//
// Expected physics (calibrated by bench_pipeline): the depth-1 WAN group is
// network-bound at ~2.9k msg/s, so the pipeline_off curve knees around 3k
// offered, while the depth-4 baseline carries ~2x more before its knee —
// the sweep turns that ablation delta into a single number per curve.
//
// Usage: bench_sweep [--spec <file.json>] [--out <file.json>]
// Default spec: configs/workloads/wan_sweep.json schema, embedded below so
// the bench runs without a checkout-relative path.
//
// In-process gates (deterministic simulation, stable in CI):
//  * every measured point completes, with zero invariant-monitor violations
//    and zero sample-capacity overflows;
//  * every curve detects a knee inside the grid;
//  * each ablation curve's knee does not exceed the baseline's (removing an
//    optimization must not raise sustainable throughput).
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "workload/report.hpp"
#include "workload/runner.hpp"

namespace {

using namespace byzcast;

// Keep in sync with configs/workloads/wan_sweep.json (the file exists for
// cluster/CI use; the bench embeds a copy to stay path-independent).
constexpr const char* kDefaultSpec = R"json({
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
  "rate": {
    "kind": "sweep",
    "rates": [1500, 3000, 4500, 6000, 7500, 9000],
    "knee_p99_factor": 5.0,
    "knee_goodput_floor": 0.95,
    "bisect_iters": 3
  },
  "ablations": ["pipeline_off"]
})json";

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_path = "BENCH_sweep.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_sweep [--spec file.json] [--out file.json]\n");
      return 2;
    }
  }

  std::string error;
  std::optional<workload::WorkloadSpec> spec;
  if (spec_path.empty()) {
    const auto doc = Json::parse(kDefaultSpec, &error);
    if (doc) spec = workload::parse_workload_spec(*doc, &error);
  } else {
    spec = workload::load_workload_spec(spec_path, &error);
  }
  if (!spec) {
    std::fprintf(stderr, "bad workload spec: %s\n", error.c_str());
    return 2;
  }

  workload::print_header(
      "Offered-load sweep '" + spec->name + "': " +
      workload::to_string(spec->base.protocol) + " " +
      workload::to_string(spec->base.environment) + ", " +
      std::to_string(spec->base.num_groups) + " groups, knee = first rate "
      "with p99 > plateau x factor or goodput < floor, bisected");

  const workload::WorkloadOutcome outcome = workload::run_workload(*spec);

  using workload::fmt;
  for (const workload::SweepCurve& curve : outcome.curves) {
    std::printf("\ncurve: %s\n", curve.label.c_str());
    std::vector<std::vector<std::string>> rows;
    for (const workload::SweepPoint& pt : curve.points) {
      rows.push_back({fmt(pt.offered, 0), fmt(pt.throughput, 0),
                      fmt(100.0 * pt.goodput_ratio, 1), fmt(pt.p50_ms, 2),
                      fmt(pt.p99_ms, 2), pt.saturated ? "SAT" : "ok",
                      std::to_string(pt.monitor_violations)});
    }
    workload::print_table({"offered/s", "msgs/s", "goodput %", "p50 ms",
                           "p99 ms", "state", "violations"},
                          rows);
    if (curve.knee_found) {
      std::printf("knee: %.0f msg/s offered (p50 %.2f ms, p99 %.2f ms); "
                  "max healthy rate %.0f msg/s\n",
                  curve.knee.offered, curve.knee.p50_ms, curve.knee.p99_ms,
                  curve.max_unsaturated_rate);
    } else {
      std::printf("no knee inside the grid (healthy through %.0f msg/s)\n",
                  curve.max_unsaturated_rate);
    }
  }

  write_json_file(out_path, workload::outcome_to_json(outcome));

  int failures = 0;
  for (const workload::SweepCurve& curve : outcome.curves) {
    for (const workload::SweepPoint& pt : curve.points) {
      if (pt.completed == 0) {
        std::printf("FAIL: %s @ %.0f msg/s completed nothing\n",
                    curve.label.c_str(), pt.offered);
        ++failures;
      }
      if (pt.monitor_violations != 0) {
        std::printf("FAIL: %s @ %.0f msg/s tripped %llu invariant "
                    "violations\n",
                    curve.label.c_str(), pt.offered,
                    static_cast<unsigned long long>(pt.monitor_violations));
        ++failures;
      }
      if (pt.sample_overflow != 0) {
        std::printf("FAIL: %s @ %.0f msg/s overflowed sample capacity "
                    "(%llu dropped)\n",
                    curve.label.c_str(), pt.offered,
                    static_cast<unsigned long long>(pt.sample_overflow));
        ++failures;
      }
    }
    if (!curve.knee_found) {
      std::printf("FAIL: curve %s found no knee inside the grid\n",
                  curve.label.c_str());
      ++failures;
    }
  }
  // An optimization turned off must not RAISE the ceiling. Ablations that
  // don't move the knee at all (e.g. batch_adapt_off on the LAN, where the
  // global-relay path dominates) bisect independently per curve, so allow
  // one-bisection-step slack above the baseline before calling it a
  // regression.
  if (outcome.curves.size() >= 2 && outcome.curves.front().knee_found) {
    const double base_knee = outcome.curves.front().knee.offered;
    for (std::size_t i = 1; i < outcome.curves.size(); ++i) {
      const workload::SweepCurve& abl = outcome.curves[i];
      if (abl.knee_found && abl.knee.offered > base_knee * 1.2) {
        std::printf("FAIL: ablation %s knees at %.0f msg/s, above the "
                    "baseline's %.0f\n",
                    abl.label.c_str(), abl.knee.offered, base_knee);
        ++failures;
      }
    }
  }
  return failures == 0 ? 0 : 1;
}
