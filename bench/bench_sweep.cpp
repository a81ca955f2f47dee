// Runs a workload spec (configs/workloads/*.json) on the simulator: one
// curve per spec curve — a latency-vs-offered-load sweep with saturation
// knee detection, a fixed-rate point, or a step schedule — and writes the
// "byzcast-sweep-v1" artifact (validated by tools/check_sweep.py, plotted
// by tools/plot_benches.py). Curves differ only by knob values, e.g.
// pipeline_depth 1 for the sequential protocol. With span tracing on,
// every point also carries its critical-path breakdown per message class.
//
// Usage: bench_sweep --spec <file.json> [--out <file.json>]
//
// In-process gates (deterministic simulation, stable in CI):
//  * every measured point completes, with zero invariant-monitor violations
//    and zero sample-capacity overflows;
//  * every sweep curve detects a knee inside the grid;
//  * every `expect` bound of a curve holds on its ratio to the first curve.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "workload/report.hpp"
#include "workload/runner.hpp"

int main(int argc, char** argv) {
  using namespace byzcast;
  std::string spec_path;
  std::string out_path = "BENCH_sweep.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      spec_path.clear();  // unknown argument: print the usage below
      break;
    }
  }
  if (spec_path.empty()) {
    std::fprintf(stderr,
                 "usage: bench_sweep --spec file.json [--out file.json]\n");
    return 2;
  }

  std::string error;
  const auto spec = workload::load_workload_spec(spec_path, &error);
  if (!spec) {
    std::fprintf(stderr, "bad workload spec: %s\n", error.c_str());
    return 2;
  }

  const bool sweep =
      spec->schedule.kind == workload::RateSchedule::Kind::kSweep;
  workload::print_header(
      "Workload '" + spec->name + "': " +
      workload::to_string(spec->base.protocol) + " " +
      workload::to_string(spec->base.environment) + ", " +
      std::to_string(spec->base.num_groups) + " groups" +
      (sweep ? ", knee = first rate with p99 > plateau x factor or goodput "
               "< floor, bisected"
             : ""));

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
    rows.clear();
    for (const workload::SweepPoint& pt : curve.points) {
      for (const bool global : {false, true}) {
        const workload::ClassBreakdown& b = global ? pt.global : pt.local;
        if (!pt.traced || b.n == 0) continue;
        std::vector<std::string> row = {fmt(pt.offered, 0),
                                        global ? "global" : "local",
                                        std::to_string(b.n)};
        for (const auto& [name, member] : workload::kBreakdownComponents) {
          row.push_back(fmt(b.*member, 3));
        }
        rows.push_back(std::move(row));
      }
    }
    if (!rows.empty()) {
      workload::print_table({"offered/s", "class", "n", "e2e p50 ms",
                             "queue p50", "cpu p50", "net p50", "quorum p50"},
                            rows);
    }
    if (curve.knee_found) {
      std::printf("knee: %.0f msg/s offered (p50 %.2f ms, p99 %.2f ms); "
                  "max healthy rate %.0f msg/s\n",
                  curve.knee.offered, curve.knee.p50_ms, curve.knee.p99_ms,
                  curve.max_unsaturated_rate);
    } else if (sweep) {
      std::printf("no knee inside the grid (healthy through %.0f msg/s)\n",
                  curve.max_unsaturated_rate);
    }
  }

  write_json_file(out_path, workload::outcome_to_json(outcome));

  std::printf("\n");
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
    if (sweep && !curve.knee_found) {
      std::printf("FAIL: curve %s found no knee inside the grid\n",
                  curve.label.c_str());
      ++failures;
    }
  }
  const std::vector<workload::CurveSpec> curves = workload::curves_of(*spec);
  for (std::size_t i = 1; i < outcome.curves.size(); ++i) {
    for (const workload::BoundCheck& check : workload::check_bounds(
             outcome.curves[i], outcome.curves.front(), curves[i].expect)) {
      std::printf("%s: expect %s\n", check.ok ? "ok" : "FAIL",
                  check.text.c_str());
      if (!check.ok) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
