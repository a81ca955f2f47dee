// Workload spec files: a JSON description of one experiment — population,
// destination pattern and skew, payload, rate schedule (fixed / step /
// sweep) and the curves to run it for — loadable by the sim harness
// (WorkloadRunner, bench_sweep) and by the real-TCP load generator
// (byzcast-loadgen --workload, which takes no curves). Specs live in
// configs/workloads/*.json; the schema is documented in
// docs/ARCHITECTURE.md, "Workload engine".
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "workload/experiment.hpp"
#include "workload/sweep.hpp"

namespace byzcast::workload {

/// How the open-loop offered load evolves over the run.
struct RateSchedule {
  enum class Kind {
    kFixed,  ///< one rate for the whole run (0 = closed loop)
    kStep,   ///< each rate in `rates` run as its own measurement segment
    kSweep,  ///< latency-vs-offered-load sweep over `rates` + knee search
  };
  Kind kind = Kind::kFixed;
  double fixed_rate = 0.0;
  std::vector<double> rates;
  // Knee detection (sweep only): a point is saturated when its p99 exceeds
  // `knee_p99_factor` x the low-load plateau p99, or its goodput falls
  // below `knee_goodput_floor` x offered. The knee is refined by
  // `bisect_iters` bisection steps between the last unsaturated and first
  // saturated grid rates.
  double knee_p99_factor = 5.0;
  double knee_goodput_floor = 0.95;
  int bisect_iters = 3;
};

/// One configuration a spec runs: its `curves` entry applied over the base.
struct CurveSpec {
  std::string label;
  ExperimentConfig config;
  /// Bounds on this curve's metrics relative to the spec's first curve.
  std::vector<RatioBound> expect;
};

struct WorkloadSpec {
  std::string name;
  /// Everything but the rate: protocol, environment, population, pattern,
  /// payload, windows, seed, monitors. The schedule decides how
  /// open_loop_total_rate is filled in per run.
  ExperimentConfig base;
  RateSchedule schedule;
  /// The spec's "curves", each resolved over `base`; empty when the spec
  /// lists none (see curves_of).
  std::vector<CurveSpec> curves;
};

/// The curves a spec runs: its own, or `base` alone labelled "baseline".
[[nodiscard]] std::vector<CurveSpec> curves_of(const WorkloadSpec& spec);

/// Parses a spec document. Returns nullopt and fills `error` on unknown
/// keys or enum strings, bad types, out-of-range numbers or missing
/// required fields ("name", each curve's "label").
[[nodiscard]] std::optional<WorkloadSpec> parse_workload_spec(
    const Json& doc, std::string* error);

/// Reads and parses a spec file from disk.
[[nodiscard]] std::optional<WorkloadSpec> load_workload_spec(
    const std::string& path, std::string* error);

}  // namespace byzcast::workload
