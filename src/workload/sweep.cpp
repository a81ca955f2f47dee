#include "workload/sweep.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "common/contracts.hpp"
#include "core/critical_path.hpp"

namespace byzcast::workload {

namespace {

ClassBreakdown breakdown_of(const core::ClassAggregate& agg) {
  ClassBreakdown b;
  b.n = agg.n;
  b.end_to_end_p50_ms = to_ms(agg.end_to_end.p50);
  b.queueing_p50_ms = to_ms(agg.queueing.p50);
  b.cpu_p50_ms = to_ms(agg.cpu.p50);
  b.network_p50_ms = to_ms(agg.network.p50);
  b.quorum_wait_p50_ms = to_ms(agg.quorum_wait.p50);
  return b;
}

ClassLatency latency_of(const LatencyRecorder& rec, double throughput) {
  ClassLatency c;
  c.n = rec.count();
  c.throughput = throughput;
  c.mean_ms = rec.mean_ms();
  c.p50_ms = rec.percentile_ms(50.0);
  c.p95_ms = rec.percentile_ms(95.0);
  c.p99_ms = rec.percentile_ms(99.0);
  c.p999_ms = rec.percentile_ms(99.9);
  c.max_ms = rec.percentile_ms(100.0);
  c.cdf = rec.cdf(kCdfPoints);
  return c;
}

/// A bound metric name split into its class ("" for all messages, "local",
/// "global") and the name after the dot.
struct MetricName {
  std::string cls;
  std::string name;
};

MetricName split_metric(const std::string& metric) {
  const std::size_t dot = metric.find('.');
  if (dot == std::string::npos) return {"", metric};
  return {metric.substr(0, dot), metric.substr(dot + 1)};
}

/// The breakdown member a "<component>_p50" name reads, or null.
double ClassBreakdown::*component_of(const std::string& name) {
  for (const auto& [component, member] : kBreakdownComponents) {
    if (name == std::string(component) + "_p50") return member;
  }
  return nullptr;
}

std::uint64_t sum_monitor_violations(const ExperimentResult& result) {
  return result.monitors ? result.monitors->total_violations() : 0;
}

/// The metric's value on `curve`; nullopt when the curve does not define it.
std::optional<double> curve_metric(const SweepCurve& curve,
                                   const std::string& metric) {
  const BoundMetric kind = bound_metric(metric);
  if (kind == BoundMetric::kKnee) {
    if (!curve.knee_found) return std::nullopt;
    return curve.knee.offered;
  }
  if (kind == BoundMetric::kUnknown || curve.points.empty()) {
    return std::nullopt;
  }
  const SweepPoint& pt = curve.points.front();
  if (metric == "throughput") return pt.all.throughput;
  const auto [cls, name] = split_metric(metric);
  if (kind == BoundMetric::kTraced) {
    const ClassBreakdown& b =
        cls == "global" ? pt.global_breakdown : pt.local_breakdown;
    if (!pt.traced || b.n == 0) return std::nullopt;
    return b.*component_of(name);
  }
  const ClassLatency& c =
      cls.empty() ? pt.all : cls == "global" ? pt.global : pt.local;
  if (c.n == 0) return std::nullopt;
  return name == "p50" ? c.p50_ms : c.p99_ms;
}

}  // namespace

void classify_saturation(std::vector<SweepPoint>& points, double p99_factor,
                         double goodput_floor) {
  if (points.empty()) return;
  // The plateau is the service latency floor: the lowest offered rate's
  // p99, i.e. what the system delivers when queueing is negligible.
  const double plateau_p99 = points.front().all.p99_ms;
  for (SweepPoint& pt : points) {
    const bool latency_blown =
        plateau_p99 > 0.0 && pt.all.p99_ms > p99_factor * plateau_p99;
    const bool goodput_short = pt.goodput_ratio < goodput_floor;
    // A point that completed nothing at all is trivially saturated (or the
    // run was misconfigured); either way it is not a sustainable rate.
    pt.saturated = latency_blown || goodput_short || pt.completed == 0;
  }
}

std::size_t first_saturated(const std::vector<SweepPoint>& pts) {
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].saturated) return i;
  }
  return kNoKnee;
}

SweepPoint measure_point(const ExperimentConfig& base, double rate) {
  ExperimentConfig config = base;
  config.open_loop_total_rate = rate;
  const ExperimentResult result = run_experiment(config);
  SweepPoint pt;
  pt.offered = rate;
  pt.all = latency_of(result.latency_all, result.throughput);
  pt.local = latency_of(result.latency_local, result.throughput_local);
  pt.global = latency_of(result.latency_global, result.throughput_global);
  pt.goodput_ratio = rate > 0.0 ? result.throughput / rate : 0.0;
  pt.completed = result.completed;
  pt.a_deliveries = result.a_deliveries;
  pt.monitor_violations = sum_monitor_violations(result);
  pt.sample_overflow = result.latency_all.overflow() +
                       result.latency_local.overflow() +
                       result.latency_global.overflow();
  if (result.spans) {
    const core::CriticalPathAnalyzer analyzer(
        *result.spans, core::CriticalPathAnalyzer::Options{config.f});
    pt.traced = true;
    pt.local_breakdown = breakdown_of(analyzer.aggregate(/*global=*/false));
    pt.global_breakdown = breakdown_of(analyzer.aggregate(/*global=*/true));
  }
  return pt;
}

SweepCurve run_sweep(const ExperimentConfig& base,
                     const SweepSettings& settings, const std::string& label) {
  BZC_EXPECTS(!settings.rates.empty());
  BZC_EXPECTS(std::is_sorted(settings.rates.begin(), settings.rates.end()));

  SweepCurve curve;
  curve.label = label;
  for (const double rate : settings.rates) {
    curve.points.push_back(measure_point(base, rate));
  }
  classify_saturation(curve.points, settings.knee_p99_factor,
                      settings.knee_goodput_floor);

  std::size_t knee_idx = first_saturated(curve.points);
  if (knee_idx == kNoKnee) {
    // The whole grid is healthy: report the top rate as the best measured
    // sustainable load, no knee.
    curve.max_unsaturated_rate = curve.points.back().offered;
    return curve;
  }
  if (knee_idx == 0) {
    // Even the lowest rate saturates (goodput collapse — the plateau rule
    // cannot fire on the first point by construction): no healthy bracket
    // to bisect, the knee IS the first grid point.
    curve.knee_found = true;
    curve.knee = curve.points.front();
    return curve;
  }

  // Bisect between the last healthy and first saturated rates: each probe
  // re-classifies against the existing plateau so the bracket shrinks by
  // half per iteration. Probes are appended to the curve (sorted at the
  // end) — they are real measurements, worth keeping in the artifact.
  double lo = curve.points[knee_idx - 1].offered;  // healthy
  double hi = curve.points[knee_idx].offered;      // saturated
  SweepPoint knee = curve.points[knee_idx];
  for (int i = 0; i < settings.bisect_iters; ++i) {
    const double mid = (lo + hi) / 2.0;
    SweepPoint probe = measure_point(base, mid);
    std::vector<SweepPoint> scratch = {curve.points.front(), probe};
    classify_saturation(scratch, settings.knee_p99_factor,
                        settings.knee_goodput_floor);
    probe = scratch.back();
    curve.points.push_back(probe);
    if (probe.saturated) {
      hi = mid;
      knee = probe;
    } else {
      lo = mid;
    }
  }

  std::sort(curve.points.begin(), curve.points.end(),
            [](const SweepPoint& a, const SweepPoint& b) {
              return a.offered < b.offered;
            });
  curve.knee_found = true;
  curve.knee = knee;
  curve.max_unsaturated_rate = lo;
  return curve;
}

BoundMetric bound_metric(const std::string& metric) {
  if (metric == "knee") return BoundMetric::kKnee;
  if (metric == "throughput") return BoundMetric::kPoint;
  const auto [cls, name] = split_metric(metric);
  const bool is_class = cls == "local" || cls == "global";
  if (!cls.empty() && !is_class) return BoundMetric::kUnknown;
  if (name == "p50" || name == "p99") return BoundMetric::kPoint;
  if (is_class && component_of(name) != nullptr) return BoundMetric::kTraced;
  return BoundMetric::kUnknown;
}

std::vector<BoundCheck> check_bounds(const SweepCurve& curve,
                                     const SweepCurve& reference,
                                     const std::vector<RatioBound>& bounds) {
  std::vector<BoundCheck> checks;
  for (const RatioBound& bound : bounds) {
    BoundCheck check;
    check.bound = bound;
    check.value = curve_metric(curve, bound.metric);
    check.reference = curve_metric(reference, bound.metric);
    char text[256];
    if (!check.value || !check.reference || *check.reference == 0.0) {
      std::snprintf(text, sizeof text, "%s: %s undefined on %s",
                    curve.label.c_str(), bound.metric.c_str(),
                    !check.value ? curve.label.c_str()
                                 : reference.label.c_str());
    } else {
      check.ratio = *check.value / *check.reference;
      check.ok = *check.ratio >= bound.min && *check.ratio <= bound.max;
      std::snprintf(text, sizeof text,
                    "%s: %s %g / %s %g = %.3f, bound [%g, %g]",
                    curve.label.c_str(), bound.metric.c_str(), *check.value,
                    reference.label.c_str(), *check.reference, *check.ratio,
                    bound.min, bound.max);
    }
    check.text = text;
    checks.push_back(std::move(check));
  }
  return checks;
}

}  // namespace byzcast::workload
