#include "workload/runner.hpp"

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

Json point_to_json(const SweepPoint& pt) {
  Json j = Json::object();
  j.set("offered", Json::number(pt.offered));
  j.set("throughput", Json::number(pt.throughput));
  j.set("goodput_ratio", Json::number(pt.goodput_ratio));
  j.set("p50_ms", Json::number(pt.p50_ms));
  j.set("p99_ms", Json::number(pt.p99_ms));
  j.set("completed", Json::number(pt.completed));
  j.set("monitor_violations", Json::number(pt.monitor_violations));
  j.set("sample_overflow", Json::number(pt.sample_overflow));
  j.set("saturated", Json::boolean(pt.saturated));
  if (pt.traced) {
    Json breakdown = Json::object();
    breakdown.set("local", breakdown_to_json(pt.local));
    breakdown.set("global", breakdown_to_json(pt.global));
    j.set("breakdown", std::move(breakdown));
  }
  return j;
}

Json curve_to_json(const SweepCurve& curve) {
  Json j = Json::object();
  j.set("label", Json::string(curve.label));
  Json points = Json::array();
  for (const SweepPoint& pt : curve.points) points.push_back(point_to_json(pt));
  j.set("points", std::move(points));
  j.set("knee_found", Json::boolean(curve.knee_found));
  if (curve.knee_found) j.set("knee", point_to_json(curve.knee));
  j.set("max_unsaturated_rate", Json::number(curve.max_unsaturated_rate));
  return j;
}

}  // namespace

WorkloadOutcome run_workload(const WorkloadSpec& spec) {
  WorkloadOutcome outcome;
  outcome.spec = spec;
  const RateSchedule& sched = spec.schedule;
  for (const CurveSpec& c : curves_of(spec)) {
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
  Json curves = Json::array();
  for (const SweepCurve& curve : outcome.curves) {
    curves.push_back(curve_to_json(curve));
  }
  doc.set("curves", std::move(curves));
  return doc;
}

}  // namespace byzcast::workload
