// Runs a workload spec (configs/workloads/*.json) on the simulator: one
// curve per spec curve — a latency-vs-offered-load sweep with saturation
// knee detection, a fixed-rate point (rate 0: the closed loop), or a step
// schedule — and writes the "byzcast-sweep-v1" artifact (validated by
// tools/check_sweep.py, plotted by tools/plot_benches.py). Curves differ
// only by knob values, e.g. pipeline_depth 1 for the sequential protocol,
// or a protocol and group count per curve for the paper's figures
// (configs/workloads/fig*.json). Every point carries throughput, mean,
// p50/p95/p99/p99.9/max and a CDF for all messages and per class; with
// span tracing on, also its critical-path breakdown per message class.
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
#include <utility>
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
      "Workload '" + spec->name + "'" +
      (sweep ? ": knee = first rate with p99 > plateau x factor or goodput "
               "< floor, bisected"
             : ""));

  const workload::WorkloadOutcome outcome = workload::run_workload(*spec);
  const std::vector<workload::CurveSpec> curves = workload::curves_of(*spec);

  using workload::fmt;
  // A closed-loop point (rate 0) has no offered load to compare against.
  const auto offered = [](const workload::SweepPoint& pt) {
    return pt.offered > 0.0 ? fmt(pt.offered, 0) + " msg/s" : "closed loop";
  };
  for (std::size_t i = 0; i < outcome.curves.size(); ++i) {
    const workload::SweepCurve& curve = outcome.curves[i];
    const workload::ExperimentConfig& cfg = curves[i].config;
    std::printf("\ncurve: %s (%s %s, %d groups x %d clients, %s)\n",
                curve.label.c_str(), workload::to_string(cfg.protocol),
                workload::to_string(cfg.environment), cfg.num_groups,
                cfg.clients_per_group,
                workload::to_string(cfg.workload.pattern));
    // One row per point for all messages (with its health), then one per
    // class that completed anything.
    std::vector<std::vector<std::string>> rows;
    for (const workload::SweepPoint& pt : curve.points) {
      for (const auto& [name, cls] :
           {std::pair{"all", &pt.all}, std::pair{"local", &pt.local},
            std::pair{"global", &pt.global}}) {
        const bool all = cls == &pt.all;
        if (!all && cls->n == 0) continue;
        std::vector<std::string> row = {
            all ? offered(pt) : "", name, std::to_string(cls->n),
            fmt(cls->throughput, 0),
            all && pt.offered > 0.0 ? fmt(100.0 * pt.goodput_ratio, 1) : ""};
        for (const auto& [field, member] : workload::kLatencyFields) {
          row.push_back(fmt(cls->*member, 2));
        }
        row.push_back(all ? (pt.saturated ? "SAT" : "ok") : "");
        row.push_back(all ? std::to_string(pt.monitor_violations) : "");
        rows.push_back(std::move(row));
      }
    }
    workload::print_table({"offered", "class", "n", "msgs/s", "goodput %",
                           "mean ms", "p50 ms", "p95 ms", "p99 ms",
                           "p99.9 ms", "max ms", "state", "violations"},
                          rows);
    rows.clear();
    for (const workload::SweepPoint& pt : curve.points) {
      for (const bool global : {false, true}) {
        const workload::ClassBreakdown& b =
            global ? pt.global_breakdown : pt.local_breakdown;
        if (!pt.traced || b.n == 0) continue;
        std::vector<std::string> row = {offered(pt),
                                        global ? "global" : "local",
                                        std::to_string(b.n)};
        for (const auto& [name, member] : workload::kBreakdownComponents) {
          row.push_back(fmt(b.*member, 3));
        }
        rows.push_back(std::move(row));
      }
    }
    if (!rows.empty()) {
      workload::print_table({"offered", "class", "n", "e2e p50 ms",
                             "queue p50", "cpu p50", "net p50", "quorum p50"},
                            rows);
    }
    if (curve.knee_found) {
      std::printf("knee: %.0f msg/s offered (p50 %.2f ms, p99 %.2f ms); "
                  "max healthy rate %.0f msg/s\n",
                  curve.knee.offered, curve.knee.all.p50_ms,
                  curve.knee.all.p99_ms, curve.max_unsaturated_rate);
    } else if (sweep) {
      std::printf("no knee inside the grid (healthy through %.0f msg/s)\n",
                  curve.max_unsaturated_rate);
    }
  }

  write_json_file(out_path, workload::outcome_to_json(outcome));

  std::printf("\n");
  int failures = 0;
  for (std::size_t i = 0; i < outcome.curves.size(); ++i) {
    const workload::SweepCurve& curve = outcome.curves[i];
    for (const workload::SweepPoint& pt : curve.points) {
      const std::string at = curve.label + " @ " + offered(pt);
      if (pt.completed == 0) {
        std::printf("FAIL: %s completed nothing\n", at.c_str());
        ++failures;
      }
      if (pt.monitor_violations != 0) {
        std::printf("FAIL: %s tripped %llu invariant violations\n",
                    at.c_str(),
                    static_cast<unsigned long long>(pt.monitor_violations));
        ++failures;
      }
      if (pt.sample_overflow != 0) {
        std::printf("FAIL: %s overflowed sample capacity (%llu dropped)\n",
                    at.c_str(),
                    static_cast<unsigned long long>(pt.sample_overflow));
        ++failures;
      }
    }
    if (sweep && !curve.knee_found) {
      std::printf("FAIL: curve %s found no knee inside the grid\n",
                  curve.label.c_str());
      ++failures;
    }
    for (const workload::BoundCheck& check : outcome.checks[i]) {
      std::printf("%s: expect %s\n", check.ok ? "ok" : "FAIL",
                  check.text.c_str());
      if (!check.ok) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
