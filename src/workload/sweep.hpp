// SweepDriver: latency-vs-offered-load curves with automatic saturation-knee
// detection. Runs one open-loop experiment per grid rate, classifies each
// point as saturated (p99 blow-up past the low-load plateau, or goodput
// falling short of offered), takes the first saturated rate as the knee and
// refines it by bisection between the last healthy and first saturated grid
// points. The knee is the paper-style "maximum sustainable throughput"
// number that closed-loop sweeps only bracket by guessing client counts.
// Curves are compared by ratio bounds (a spec's `expect`), checked here on
// measured or synthetic curves alike.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "workload/experiment.hpp"

namespace byzcast::workload {

/// Critical-path medians of one message class (core::CriticalPathAnalyzer
/// over the run's spans).
struct ClassBreakdown {
  std::uint64_t n = 0;  // complete traced messages of this class
  double end_to_end_p50_ms = 0.0;
  double queueing_p50_ms = 0.0;
  double cpu_p50_ms = 0.0;
  double network_p50_ms = 0.0;
  double quorum_wait_p50_ms = 0.0;
};

/// Component names as they appear in artifacts ("<name>_p50_ms") and in
/// bound metrics ("<class>.<name>_p50").
inline constexpr std::pair<const char*, double ClassBreakdown::*>
    kBreakdownComponents[] = {
        {"end_to_end", &ClassBreakdown::end_to_end_p50_ms},
        {"queueing", &ClassBreakdown::queueing_p50_ms},
        {"cpu", &ClassBreakdown::cpu_p50_ms},
        {"network", &ClassBreakdown::network_p50_ms},
        {"quorum_wait", &ClassBreakdown::quorum_wait_p50_ms},
};

/// One measured point of a sweep curve.
struct SweepPoint {
  double offered = 0.0;        // msg/s offered (open-loop total rate)
  double throughput = 0.0;     // msg/s completed in the window
  double goodput_ratio = 0.0;  // throughput / offered
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t monitor_violations = 0;
  std::uint64_t sample_overflow = 0;  // recorder/meter caps hit (should be 0)
  bool saturated = false;
  /// Latency breakdown per class; filled only when the run had span_tracing
  /// on.
  bool traced = false;
  ClassBreakdown local;
  ClassBreakdown global;
};

struct SweepSettings {
  std::vector<double> rates;  // strictly increasing grid
  double knee_p99_factor = 5.0;
  double knee_goodput_floor = 0.95;
  int bisect_iters = 3;
};

struct SweepCurve {
  std::string label;
  /// All measured points (grid + bisection refinements), sorted by offered.
  std::vector<SweepPoint> points;
  bool knee_found = false;
  /// First saturated point after refinement (valid when knee_found).
  SweepPoint knee;
  /// Highest measured rate classified healthy (0 if none were).
  double max_unsaturated_rate = 0.0;
};

inline constexpr std::size_t kNoKnee = std::numeric_limits<std::size_t>::max();

/// Classifies saturation in place: the plateau p99 is the lowest-offered
/// point's; a point saturates when p99 > factor * plateau or
/// goodput_ratio < floor. `points` must be sorted by offered rate. Pure —
/// unit-testable without running experiments.
void classify_saturation(std::vector<SweepPoint>& points, double p99_factor,
                         double goodput_floor);

/// Index of the first saturated point, or kNoKnee.
[[nodiscard]] std::size_t first_saturated(const std::vector<SweepPoint>& pts);

/// Runs the full sweep for `base` (its open_loop_total_rate is overwritten
/// per point). Experiments run with whatever observability/monitors `base`
/// enables; monitor violations are summed into each point.
[[nodiscard]] SweepCurve run_sweep(const ExperimentConfig& base,
                                   const SweepSettings& settings,
                                   const std::string& label);

/// Measures a single point (exposed for the runner's fixed/step modes).
[[nodiscard]] SweepPoint measure_point(const ExperimentConfig& base,
                                       double rate);

/// One `expect` bound: a curve's `metric` divided by the same metric of a
/// reference curve must lie in [min, max].
struct RatioBound {
  std::string metric;
  double min = 0.0;
  double max = std::numeric_limits<double>::infinity();
};

/// True for the metric names a bound may use: "knee" (the knee's offered
/// rate), "throughput" (the first point's) and "<local|global>.<component>
/// _p50" (the first point's breakdown, components as kBreakdownComponents).
[[nodiscard]] bool is_bound_metric(const std::string& metric);

struct BoundCheck {
  bool ok = false;
  std::string text;  // "<label>: <metric> ratio ..." for the report
};

/// Checks each bound of `curve` against `reference`. A bound fails when
/// either curve lacks the metric (no knee, no points, or no complete traced
/// message of that class) or the reference's value is 0.
[[nodiscard]] std::vector<BoundCheck> check_bounds(
    const SweepCurve& curve, const SweepCurve& reference,
    const std::vector<RatioBound>& bounds);

}  // namespace byzcast::workload
