// Saturation-knee classification and `expect` ratio bounds (pure, on
// synthetic curves), a small end-to-end sweep in the simulator (healthy
// rates stay unsaturated, the measured points carry the full record) and the
// runner's one-run-per-curve schedules.
#include "workload/sweep.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "workload/runner.hpp"

namespace byzcast::workload {
namespace {

SweepPoint point(double offered, double p99_ms, double goodput) {
  SweepPoint p;
  p.offered = offered;
  p.all.throughput = offered * goodput;
  p.goodput_ratio = goodput;
  p.all.p50_ms = p99_ms / 2;
  p.all.p99_ms = p99_ms;
  p.completed = static_cast<std::uint64_t>(offered * goodput);
  p.all.n = p.completed;
  return p;
}

TEST(SweepClassify, HealthyCurveHasNoKnee) {
  std::vector<SweepPoint> pts = {point(100, 10, 1.0), point(200, 11, 1.0),
                                 point(400, 12, 0.99)};
  classify_saturation(pts, 5.0, 0.95);
  for (const auto& p : pts) EXPECT_FALSE(p.saturated);
  EXPECT_EQ(first_saturated(pts), kNoKnee);
}

TEST(SweepClassify, LatencyBlowupPastPlateauIsSaturated) {
  // Plateau p99 is the lowest-offered point's (10 ms); 5x = 50 ms.
  std::vector<SweepPoint> pts = {point(100, 10, 1.0), point(200, 20, 1.0),
                                 point(400, 49, 1.0), point(800, 51, 1.0),
                                 point(1600, 500, 1.0)};
  classify_saturation(pts, 5.0, 0.95);
  EXPECT_FALSE(pts[0].saturated);
  EXPECT_FALSE(pts[1].saturated);
  EXPECT_FALSE(pts[2].saturated);  // 49 < 50: still on the healthy side
  EXPECT_TRUE(pts[3].saturated);
  EXPECT_TRUE(pts[4].saturated);
  EXPECT_EQ(first_saturated(pts), 3u);
}

TEST(SweepClassify, GoodputShortfallIsSaturatedEvenWithFlatLatency) {
  std::vector<SweepPoint> pts = {point(100, 10, 1.0), point(200, 10, 0.94)};
  classify_saturation(pts, 5.0, 0.95);
  EXPECT_FALSE(pts[0].saturated);
  EXPECT_TRUE(pts[1].saturated);
  EXPECT_EQ(first_saturated(pts), 1u);
}

TEST(SweepClassify, FirstPointCanOnlySaturateByGoodput) {
  // The plateau is defined by the first point, so its own latency can never
  // classify it — but a goodput collapse at the lowest rate still counts.
  std::vector<SweepPoint> pts = {point(100, 1000, 1.0)};
  classify_saturation(pts, 5.0, 0.95);
  EXPECT_FALSE(pts[0].saturated);

  std::vector<SweepPoint> collapsed = {point(100, 1000, 0.5)};
  classify_saturation(collapsed, 5.0, 0.95);
  EXPECT_TRUE(collapsed[0].saturated);
}

TEST(SweepClassify, ZeroCompletionsIsAlwaysSaturated) {
  std::vector<SweepPoint> pts = {point(100, 10, 1.0), point(200, 10, 1.0)};
  pts[1].completed = 0;
  pts[1].goodput_ratio = 1.0;  // even with a (bogus) healthy ratio
  classify_saturation(pts, 5.0, 0.95);
  EXPECT_TRUE(pts[1].saturated);
}

TEST(Sweep, MeasurePointFillsTheFullRecord) {
  ExperimentConfig cfg;
  cfg.num_groups = 2;
  cfg.clients_per_group = 10;
  cfg.workload.pattern = Pattern::kMixed;
  cfg.warmup = 300 * kMillisecond;
  cfg.duration = 1 * kSecond;
  cfg.seed = 7;
  const SweepPoint p = measure_point(cfg, 500.0);
  EXPECT_DOUBLE_EQ(p.offered, 500.0);
  EXPECT_GT(p.completed, 0u);
  EXPECT_GT(p.all.throughput, 0.0);
  EXPECT_GT(p.goodput_ratio, 0.9);  // 500/s on a LAN is far from saturation
  EXPECT_GT(p.all.p99_ms, 0.0);
  EXPECT_GE(p.all.p99_ms, p.all.p50_ms);
  EXPECT_EQ(p.sample_overflow, 0u);
}

TEST(Sweep, HealthyGridReportsNoKneeAndFullCurve) {
  ExperimentConfig cfg;
  cfg.num_groups = 2;
  cfg.clients_per_group = 10;
  cfg.workload.pattern = Pattern::kLocalOnly;
  cfg.warmup = 300 * kMillisecond;
  cfg.duration = 1 * kSecond;
  cfg.seed = 7;
  SweepSettings settings;
  settings.rates = {200.0, 400.0};
  const SweepCurve curve = run_sweep(cfg, settings, "smoke");
  EXPECT_EQ(curve.label, "smoke");
  ASSERT_EQ(curve.points.size(), 2u);
  EXPECT_FALSE(curve.knee_found);
  EXPECT_DOUBLE_EQ(curve.max_unsaturated_rate, 400.0);
  EXPECT_LT(curve.points[0].offered, curve.points[1].offered);
}

/// A curve whose knee, throughput and global queueing p50 are given.
SweepCurve bounded_curve(const std::string& label, double knee,
                         double throughput, double queueing_ms) {
  SweepCurve c;
  c.label = label;
  c.knee_found = true;
  c.knee = point(knee, 10, 1.0);
  SweepPoint pt = point(throughput, 10, 1.0);
  pt.traced = true;
  pt.global_breakdown.n = 5;
  pt.global_breakdown.queueing_p50_ms = queueing_ms;
  c.points = {pt};
  return c;
}

bool holds(const SweepCurve& curve, const SweepCurve& reference,
           const RatioBound& bound) {
  const std::vector<BoundCheck> checks =
      check_bounds(curve, reference, {bound});
  EXPECT_EQ(checks.size(), 1u);
  return !checks.empty() && checks.front().ok;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SweepBounds, EachBoundHoldsOnOneSideOfItsThresholdOnly) {
  // Ratios to the reference: knee 1.25, throughput 1.2, queueing 0.5.
  const SweepCurve ref = bounded_curve("ref", 1000, 1000, 10.0);
  const SweepCurve cur = bounded_curve("cur", 1250, 1200, 5.0);

  EXPECT_TRUE(holds(cur, ref, {"knee", 1.25, kInf}));  // bounds inclusive
  EXPECT_FALSE(holds(cur, ref, {"knee", 1.26, kInf}));
  EXPECT_TRUE(holds(cur, ref, {"knee", 0.0, 1.25}));
  EXPECT_FALSE(holds(cur, ref, {"knee", 0.0, 1.24}));

  EXPECT_TRUE(holds(cur, ref, {"throughput", 1.2, kInf}));
  EXPECT_FALSE(holds(cur, ref, {"throughput", 1.21, kInf}));
  EXPECT_TRUE(holds(cur, ref, {"throughput", 0.0, 1.2}));
  EXPECT_FALSE(holds(cur, ref, {"throughput", 0.0, 1.19}));

  EXPECT_TRUE(holds(cur, ref, {"global.queueing_p50", 0.0, 0.5}));
  EXPECT_FALSE(holds(cur, ref, {"global.queueing_p50", 0.0, 0.49}));
  EXPECT_TRUE(holds(cur, ref, {"global.queueing_p50", 0.5, kInf}));
  EXPECT_FALSE(holds(cur, ref, {"global.queueing_p50", 0.51, kInf}));

  // The direction matters: the same bounds read against the swapped pair.
  EXPECT_FALSE(holds(ref, cur, {"knee", 1.25, kInf}));
  EXPECT_TRUE(holds(ref, cur, {"global.queueing_p50", 2.0, 2.0}));
}

TEST(SweepBounds, MissingMetricFailsEvenAnOpenBound) {
  const SweepCurve ref = bounded_curve("ref", 1000, 1000, 10.0);
  const RatioBound any_queueing{"global.queueing_p50", 0.0, kInf};

  // A breakdown bound fails when either side traced no message of the class.
  SweepCurve untraced_class = bounded_curve("cur", 1000, 1000, 5.0);
  untraced_class.points[0].global_breakdown.n = 0;
  EXPECT_FALSE(holds(untraced_class, ref, any_queueing));
  EXPECT_FALSE(holds(ref, untraced_class, any_queueing));
  EXPECT_FALSE(holds(ref, ref, {"local.queueing_p50", 0.0, kInf}));  // n = 0

  SweepCurve untraced = bounded_curve("cur", 1000, 1000, 5.0);
  untraced.points[0].traced = false;
  EXPECT_FALSE(holds(untraced, ref, any_queueing));

  // A knee bound fails without a knee on either side.
  SweepCurve kneeless = bounded_curve("cur", 1000, 1000, 5.0);
  kneeless.knee_found = false;
  EXPECT_FALSE(holds(kneeless, ref, {"knee", 0.0, kInf}));
  EXPECT_FALSE(holds(ref, kneeless, {"knee", 0.0, kInf}));

  // A zero reference value has no ratio.
  const SweepCurve idle = bounded_curve("idle", 1000, 0, 0.0);
  EXPECT_FALSE(holds(ref, idle, {"throughput", 0.0, kInf}));
}

/// A single-point curve with the given (p50, p99) over all messages and per
/// class, ten messages of each class.
SweepCurve latency_curve(const std::string& label,
                         std::pair<double, double> all,
                         std::pair<double, double> local,
                         std::pair<double, double> global) {
  SweepPoint pt = point(1000, all.second, 1.0);
  pt.all.n = 20;
  pt.all.p50_ms = all.first;
  for (auto [cls, p50_p99] : {std::pair{&pt.local, local},
                              std::pair{&pt.global, global}}) {
    cls->n = 10;
    cls->p50_ms = p50_p99.first;
    cls->p99_ms = p50_p99.second;
  }
  SweepCurve c;
  c.label = label;
  c.points = {pt};
  return c;
}

TEST(SweepBounds, LatencyBoundsHoldOnOneSideOfTheirThresholdOnly) {
  const SweepCurve ref = latency_curve("ref", {10, 20}, {4, 8}, {20, 40});
  const SweepCurve cur = latency_curve("cur", {20, 40}, {2, 2}, {30, 60});
  const struct {
    const char* metric;
    double ratio;  // cur / ref
  } cases[] = {{"p50", 2.0},        {"p99", 2.0},        {"local.p50", 0.5},
               {"local.p99", 0.25}, {"global.p50", 1.5}, {"global.p99", 1.5}};
  for (const auto& c : cases) {
    EXPECT_TRUE(holds(cur, ref, {c.metric, c.ratio, kInf})) << c.metric;
    EXPECT_FALSE(holds(cur, ref, {c.metric, c.ratio * 1.01, kInf}))
        << c.metric;
    EXPECT_TRUE(holds(cur, ref, {c.metric, 0.0, c.ratio})) << c.metric;
    EXPECT_FALSE(holds(cur, ref, {c.metric, 0.0, c.ratio * 0.99}))
        << c.metric;
  }
}

TEST(SweepBounds, ClassWithoutMessagesFailsEvenAnOpenBound) {
  const SweepCurve mixed = latency_curve("mixed", {5, 20}, {4, 8}, {9, 20});
  // A local-only curve: its global class is empty, its stale numbers unread.
  SweepCurve local_only = latency_curve("local", {4, 8}, {4, 8}, {9, 20});
  local_only.points[0].global.n = 0;
  for (const char* metric : {"global.p50", "global.p99"}) {
    EXPECT_FALSE(holds(local_only, mixed, {metric, 0.0, kInf})) << metric;
    EXPECT_FALSE(holds(mixed, local_only, {metric, 0.0, kInf})) << metric;
  }
  EXPECT_TRUE(holds(local_only, mixed, {"local.p50", 0.0, kInf}));

  SweepCurve idle = latency_curve("idle", {5, 20}, {4, 8}, {9, 20});
  idle.points[0].all.n = 0;
  EXPECT_FALSE(holds(idle, mixed, {"p50", 0.0, kInf}));
  EXPECT_FALSE(holds(mixed, idle, {"p99", 0.0, kInf}));
}

TEST(SweepBounds, MetricNames) {
  for (const char* name :
       {"knee", "throughput", "local.cpu_p50", "global.queueing_p50",
        "global.end_to_end_p50", "local.network_p50",
        "global.quorum_wait_p50", "p50", "p99", "local.p50", "local.p99",
        "global.p50", "global.p99"}) {
    EXPECT_NE(bound_metric(name), BoundMetric::kUnknown) << name;
  }
  for (const char* name :
       {"", "knees", "cpu_p50", "remote.cpu_p50", "local.cpu",
        "local.cpu_p99", "local.", "p95", "p999", "max", "mean", "p50_ms",
        "local.p95", "all.p50", "remote.p50", "global.throughput"}) {
    EXPECT_EQ(bound_metric(name), BoundMetric::kUnknown) << name;
  }
  EXPECT_EQ(bound_metric("knee"), BoundMetric::kKnee);
  EXPECT_EQ(bound_metric("global.p99"), BoundMetric::kPoint);
  EXPECT_EQ(bound_metric("global.cpu_p50"), BoundMetric::kTraced);
}

TEST(WorkloadRunner, FixedAndStepRunTheScheduleOncePerCurve) {
  WorkloadSpec spec;
  spec.name = "runner";
  spec.base.num_groups = 1;
  spec.base.clients_per_group = 10;
  spec.base.warmup = 300 * kMillisecond;
  spec.base.duration = 1 * kSecond;
  spec.base.seed = 7;
  spec.base.span_tracing = true;
  ExperimentConfig staged = spec.base;
  staged.verify_workers = 2;
  spec.curves = {CurveSpec{"serial", spec.base, {}},
                 CurveSpec{"staged", staged, {}}};
  spec.schedule.fixed_rate = 400.0;

  const WorkloadOutcome fixed = run_workload(spec);
  ASSERT_EQ(fixed.curves.size(), 2u);
  EXPECT_EQ(fixed.curves[0].label, "serial");
  EXPECT_EQ(fixed.curves[1].label, "staged");
  for (const SweepCurve& curve : fixed.curves) {
    ASSERT_EQ(curve.points.size(), 1u);
    const SweepPoint& pt = curve.points.front();
    EXPECT_GT(pt.completed, 0u);
    // Traced runs carry the breakdown; local-only traffic has no global
    // class.
    EXPECT_TRUE(pt.traced);
    EXPECT_GT(pt.local_breakdown.n, 0u);
    EXPECT_GT(pt.local_breakdown.end_to_end_p50_ms, 0.0);
    EXPECT_EQ(pt.global_breakdown.n, 0u);
    EXPECT_FALSE(curve.knee_found);
  }
  EXPECT_TRUE(
      check_bounds(fixed.curves[1], fixed.curves[0],
                   {{"local.end_to_end_p50", 0.0, kInf}})
          .front()
          .ok);

  spec.schedule.kind = RateSchedule::Kind::kStep;
  spec.schedule.rates = {200.0, 400.0};
  const WorkloadOutcome step = run_workload(spec);
  ASSERT_EQ(step.curves.size(), 2u);
  for (const SweepCurve& curve : step.curves) {
    ASSERT_EQ(curve.points.size(), 2u);
    EXPECT_DOUBLE_EQ(curve.points[1].offered, 400.0);
  }
}

TEST(WorkloadRunner, ClosedLoopPointCarriesConsistentPerClassNumbers) {
  WorkloadSpec spec;
  spec.name = "closed";
  spec.base.num_groups = 2;
  spec.base.clients_per_group = 4;
  spec.base.workload.pattern = Pattern::kMixed;
  spec.base.workload.mixed_local = 2;
  spec.base.workload.mixed_global = 1;
  spec.base.warmup = 200 * kMillisecond;
  spec.base.duration = 1 * kSecond;
  spec.base.seed = 9;
  ExperimentConfig local_only = spec.base;
  local_only.workload.pattern = Pattern::kLocalOnly;
  spec.curves = {CurveSpec{"mixed", spec.base, {}},
                 CurveSpec{"local", local_only, {}}};
  // The default schedule: fixed rate 0, the closed loop.
  const WorkloadOutcome outcome = run_workload(spec);
  ASSERT_EQ(outcome.curves.size(), 2u);
  ASSERT_EQ(outcome.curves[0].points.size(), 1u);
  const SweepPoint& pt = outcome.curves[0].points.front();
  EXPECT_EQ(pt.offered, 0.0);
  EXPECT_EQ(pt.goodput_ratio, 0.0);
  EXPECT_GT(pt.local.n, 0u);
  EXPECT_GT(pt.global.n, 0u);
  EXPECT_EQ(pt.local.n + pt.global.n, pt.all.n);

  // The point reads the recorders of the same deterministic run.
  const ExperimentResult result = run_experiment(spec.base);
  EXPECT_EQ(pt.completed, result.completed);
  EXPECT_EQ(pt.a_deliveries, result.a_deliveries);
  EXPECT_GT(pt.a_deliveries, 0u);
  const struct {
    const ClassLatency* cls;
    const LatencyRecorder* rec;
    double throughput;
  } classes[] = {
      {&pt.all, &result.latency_all, result.throughput},
      {&pt.local, &result.latency_local, result.throughput_local},
      {&pt.global, &result.latency_global, result.throughput_global},
  };
  for (const auto& [cls, rec, throughput] : classes) {
    EXPECT_EQ(cls->n, rec->count());
    EXPECT_DOUBLE_EQ(cls->throughput, throughput);
    EXPECT_DOUBLE_EQ(cls->mean_ms, rec->mean_ms());
    EXPECT_DOUBLE_EQ(cls->p50_ms, rec->percentile_ms(50));
    EXPECT_DOUBLE_EQ(cls->p95_ms, rec->percentile_ms(95));
    EXPECT_DOUBLE_EQ(cls->p99_ms, rec->percentile_ms(99));
    EXPECT_DOUBLE_EQ(cls->p999_ms, rec->percentile_ms(99.9));
    EXPECT_DOUBLE_EQ(cls->max_ms, rec->percentile_ms(100));
    EXPECT_EQ(cls->cdf, rec->cdf(kCdfPoints));

    EXPECT_LE(cls->p50_ms, cls->p95_ms);
    EXPECT_LE(cls->p95_ms, cls->p99_ms);
    EXPECT_LE(cls->p99_ms, cls->p999_ms);
    EXPECT_LE(cls->p999_ms, cls->max_ms);
    ASSERT_FALSE(cls->cdf.empty());
    for (std::size_t i = 1; i < cls->cdf.size(); ++i) {
      EXPECT_GE(cls->cdf[i].first, cls->cdf[i - 1].first);
      EXPECT_GT(cls->cdf[i].second, cls->cdf[i - 1].second);
    }
    EXPECT_DOUBLE_EQ(cls->cdf.back().first, cls->max_ms);
    EXPECT_DOUBLE_EQ(cls->cdf.back().second, 1.0);
  }

  // The artifact names each curve's own config, and an empty class carries
  // no latency numbers.
  const Json doc = outcome_to_json(outcome);
  const Json& mixed = doc.get("curves").at(0);
  const Json& local = doc.get("curves").at(1);
  EXPECT_EQ(mixed.get("pattern").as_string(), "mixed");
  EXPECT_EQ(local.get("pattern").as_string(), "local");
  EXPECT_EQ(local.get("num_groups").as_int(), 2);
  const Json& mixed_pt = mixed.get("points").at(0);
  EXPECT_DOUBLE_EQ(mixed_pt.get("p999_ms").as_double(), pt.all.p999_ms);
  EXPECT_EQ(mixed_pt.get("global").get("cdf").size(), pt.global.cdf.size());
  const Json& empty = local.get("points").at(0).get("global");
  EXPECT_EQ(empty.get("n").as_int(), 0);
  EXPECT_FALSE(empty.has("p50_ms"));
  EXPECT_FALSE(empty.has("cdf"));
}

}  // namespace
}  // namespace byzcast::workload
