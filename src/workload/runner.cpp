#include "workload/runner.hpp"

#include <cmath>
#include <utility>

namespace byzcast::workload {

namespace {

SweepSettings settings_from(const RateSchedule& sched) {
  SweepSettings settings;
  settings.rates = sched.rates;
  settings.knee_p99_factor = sched.knee_p99_factor;
  settings.knee_goodput_floor = sched.knee_goodput_floor;
  settings.bisect_iters = sched.bisect_iters;
  return settings;
}

Json breakdown_to_json(const ClassBreakdown& b) {
  Json j = Json::object();
  j.set("n", Json::number(b.n));
  for (const auto& [name, member] : kBreakdownComponents) {
    j.set(std::string(name) + "_p50_ms", Json::number(b.*member));
  }
  return j;
}

/// Sets `c`'s members on `j`. A class that completed nothing in the window
/// carries its n and throughput only, unless `always`.
void set_latency(Json& j, const ClassLatency& c, bool always) {
  j.set("n", Json::number(c.n));
  j.set("throughput", Json::number(c.throughput));
  if (c.n == 0 && !always) return;
  for (const auto& [name, member] : kLatencyFields) {
    j.set(std::string(name) + "_ms", Json::number(c.*member));
  }
  Json cdf = Json::array();
  for (const auto& [ms, fraction] : c.cdf) {
    Json step = Json::array();
    step.push_back(Json::number(ms));
    step.push_back(Json::number(fraction));
    cdf.push_back(std::move(step));
  }
  j.set("cdf", std::move(cdf));
}

Json point_to_json(const SweepPoint& pt) {
  Json j = Json::object();
  j.set("offered", Json::number(pt.offered));
  // The all-message numbers are the point's own members, present even for
  // an empty window.
  set_latency(j, pt.all, /*always=*/true);
  j.set("goodput_ratio", Json::number(pt.goodput_ratio));
  j.set("completed", Json::number(pt.completed));
  j.set("a_deliveries", Json::number(pt.a_deliveries));
  j.set("monitor_violations", Json::number(pt.monitor_violations));
  j.set("sample_overflow", Json::number(pt.sample_overflow));
  j.set("saturated", Json::boolean(pt.saturated));
  for (const bool global : {false, true}) {
    Json cls = Json::object();
    set_latency(cls, global ? pt.global : pt.local, /*always=*/false);
    j.set(global ? "global" : "local", std::move(cls));
  }
  if (pt.traced) {
    Json breakdown = Json::object();
    breakdown.set("local", breakdown_to_json(pt.local_breakdown));
    breakdown.set("global", breakdown_to_json(pt.global_breakdown));
    j.set("breakdown", std::move(breakdown));
  }
  return j;
}

Json check_to_json(const BoundCheck& check) {
  Json j = Json::object();
  j.set("metric", Json::string(check.bound.metric));
  j.set("min", Json::number(check.bound.min));
  if (std::isfinite(check.bound.max)) {
    j.set("max", Json::number(check.bound.max));
  }
  for (const auto& [name, number] : {std::pair{"value", check.value},
                                     std::pair{"reference", check.reference},
                                     std::pair{"ratio", check.ratio}}) {
    if (number) j.set(name, Json::number(*number));
  }
  j.set("ok", Json::boolean(check.ok));
  return j;
}

Json curve_to_json(const SweepCurve& curve, const ExperimentConfig& config,
                   const std::vector<BoundCheck>& checks) {
  Json j = Json::object();
  j.set("label", Json::string(curve.label));
  j.set("protocol", Json::string(to_string(config.protocol)));
  j.set("environment", Json::string(to_string(config.environment)));
  j.set("num_groups", Json::number(config.num_groups));
  j.set("clients_per_group", Json::number(config.clients_per_group));
  j.set("pattern", Json::string(to_string(config.workload.pattern)));
  Json points = Json::array();
  for (const SweepPoint& pt : curve.points) points.push_back(point_to_json(pt));
  j.set("points", std::move(points));
  j.set("knee_found", Json::boolean(curve.knee_found));
  if (curve.knee_found) j.set("knee", point_to_json(curve.knee));
  j.set("max_unsaturated_rate", Json::number(curve.max_unsaturated_rate));
  if (!checks.empty()) {
    Json expect = Json::array();
    for (const BoundCheck& check : checks) {
      expect.push_back(check_to_json(check));
    }
    j.set("expect", std::move(expect));
  }
  return j;
}

}  // namespace

WorkloadOutcome run_workload(const WorkloadSpec& spec) {
  WorkloadOutcome outcome;
  outcome.spec = spec;
  const RateSchedule& sched = spec.schedule;
  const std::vector<CurveSpec> curves = curves_of(spec);
  for (const CurveSpec& c : curves) {
    SweepCurve curve;
    curve.label = c.label;
    switch (sched.kind) {
      case RateSchedule::Kind::kFixed:
        curve.points.push_back(measure_point(c.config, sched.fixed_rate));
        curve.max_unsaturated_rate = sched.fixed_rate;
        break;
      case RateSchedule::Kind::kStep:
        for (std::size_t i = 0; i < sched.rates.size(); ++i) {
          // Each segment is its own deterministic run with a distinct seed —
          // segments are independent measurements, not one evolving run, so
          // a saturated early segment cannot poison a later one's queues.
          ExperimentConfig seg = c.config;
          seg.seed = c.config.seed + i;
          curve.points.push_back(measure_point(seg, sched.rates[i]));
        }
        classify_saturation(curve.points, sched.knee_p99_factor,
                            sched.knee_goodput_floor);
        break;
      case RateSchedule::Kind::kSweep:
        curve = run_sweep(c.config, settings_from(sched), c.label);
        break;
    }
    outcome.curves.push_back(std::move(curve));
  }
  for (std::size_t i = 0; i < curves.size(); ++i) {
    outcome.checks.push_back(check_bounds(
        outcome.curves[i], outcome.curves.front(), curves[i].expect));
  }
  return outcome;
}

Json outcome_to_json(const WorkloadOutcome& outcome) {
  Json doc = Json::object();
  doc.set("schema", Json::string("byzcast-sweep-v1"));
  doc.set("name", Json::string(outcome.spec.name));
  doc.set("protocol", Json::string(to_string(outcome.spec.base.protocol)));
  doc.set("environment",
          Json::string(to_string(outcome.spec.base.environment)));
  doc.set("num_groups", Json::number(outcome.spec.base.num_groups));
  doc.set("clients_per_group",
          Json::number(outcome.spec.base.clients_per_group));
  doc.set("payload_size", Json::number(outcome.spec.base.payload_size));
  doc.set("duration_ms", Json::number(to_ms(outcome.spec.base.duration)));
  const std::vector<CurveSpec> specs = curves_of(outcome.spec);
  Json curves = Json::array();
  for (std::size_t i = 0; i < outcome.curves.size(); ++i) {
    curves.push_back(curve_to_json(outcome.curves[i], specs[i].config,
                                   outcome.checks[i]));
  }
  doc.set("curves", std::move(curves));
  return doc;
}

}  // namespace byzcast::workload
