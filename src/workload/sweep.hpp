// SweepDriver: latency-vs-offered-load curves with automatic saturation-knee
// detection. Runs one open-loop experiment per grid rate, classifies each
// point as saturated (p99 blow-up past the low-load plateau, or goodput
// falling short of offered), takes the first saturated rate as the knee and
// refines it by bisection between the last healthy and first saturated grid
// points. The knee is the paper-style "maximum sustainable throughput"
// number that closed-loop sweeps only bracket by guessing client counts.
// Every measured point (open or closed loop) carries the latency and
// throughput of all messages and of each class. Curves are compared by
// ratio bounds (a spec's `expect`, e.g. the paper's figure shapes), checked
// here on measured or synthetic curves alike.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
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

/// Latency and completion rate of one message class, or of all messages,
/// over a point's measurement window (the run's untraced recorders).
struct ClassLatency {
  std::uint64_t n = 0;      // completions recorded after warm-up
  double throughput = 0.0;  // msg/s completed in the window
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
  /// (latency_ms, cumulative fraction), LatencyRecorder::cdf(kCdfPoints).
  std::vector<std::pair<double, double>> cdf;
};

/// CDF resolution of a point's classes (the paper's CDF figures' steps).
inline constexpr std::size_t kCdfPoints = 20;

/// Latency names as they appear in artifacts ("<name>_ms"). Bounds read
/// "p50" and "p99" only.
inline constexpr std::pair<const char*, double ClassLatency::*>
    kLatencyFields[] = {
        {"mean", &ClassLatency::mean_ms}, {"p50", &ClassLatency::p50_ms},
        {"p95", &ClassLatency::p95_ms},   {"p99", &ClassLatency::p99_ms},
        {"p999", &ClassLatency::p999_ms}, {"max", &ClassLatency::max_ms},
};

/// One measured point of a sweep curve.
struct SweepPoint {
  double offered = 0.0;        // msg/s offered (open loop); 0 = closed loop
  double goodput_ratio = 0.0;  // all.throughput / offered (0: closed loop)
  ClassLatency all;
  ClassLatency local;
  ClassLatency global;
  std::uint64_t completed = 0;     // whole run, warm-up included
  std::uint64_t a_deliveries = 0;  // replica a-delivery events in the window
  std::uint64_t monitor_violations = 0;
  std::uint64_t sample_overflow = 0;  // recorder/meter caps hit (should be 0)
  bool saturated = false;
  /// Latency breakdown per class; filled only when the run had span_tracing
  /// on.
  bool traced = false;
  ClassBreakdown local_breakdown;
  ClassBreakdown global_breakdown;
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
/// per point). Experiments run with whatever span tracing/monitors `base`
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

/// What a bound metric reads: "knee" (the knee's offered rate), a point
/// metric of the curve's first point — "throughput", "p50" and "p99" (all
/// messages), "<local|global>.p50" and ".p99" (the class's untraced
/// recorder) — or a traced one, "<local|global>.<component>_p50" (the
/// first point's breakdown, components as kBreakdownComponents).
enum class BoundMetric { kUnknown, kKnee, kPoint, kTraced };

[[nodiscard]] BoundMetric bound_metric(const std::string& metric);

/// One bound evaluated on a curve against the reference curve. `value` and
/// `reference` are unset when a curve lacks the metric (no knee, no points,
/// no message of that class or no traced one), and `ratio` also when the
/// reference value is 0; a bound without a ratio fails.
struct BoundCheck {
  RatioBound bound;
  std::optional<double> value;
  std::optional<double> reference;
  std::optional<double> ratio;
  bool ok = false;
  std::string text;  // "<label>: <metric> ratio ..." for the report
};

/// Checks each bound of `curve` against `reference`.
[[nodiscard]] std::vector<BoundCheck> check_bounds(
    const SweepCurve& curve, const SweepCurve& reference,
    const std::vector<RatioBound>& bounds);

}  // namespace byzcast::workload
