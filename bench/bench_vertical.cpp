// Intra-group vertical scaling: offered-load sweeps of one LAN group with
// the stage pipeline at increasing widths (the PR's headline artifact).
// Serial baseline = stage_pipeline_off ablation with the knobs SET (proving
// the ablation really disarms them); staged curves run verify_workers =
// exec_shards = w for w in {2, 4, 8}. The SweepDriver finds each curve's
// saturation knee; a span-traced fixed-rate pair (serial vs w=4, below both
// knees) decomposes end-to-end latency so the cpu component's drop is
// visible, not inferred. Results land in BENCH_vertical.json
// ("byzcast-vertical-v1", validated by tools/check_vertical.py, plotted by
// tools/plot_benches.py).
//
// Expected physics (LAN profile): the serial order stage pays ~43 us of CPU
// per message (admission 8 + validate 3 + execute 24 + batch-amortized
// propose/validate/vote), kneeing in the low-20k msg/s. Staging moves the
// MAC/digest shares to verify workers and refunds the execute makespan
// across shards, leaving ~13 us serial at w=4 — the knee moves past 26k
// offered (about 2x the serial ceiling on this grid).
//
// Usage: bench_vertical [--spec file.json] [--out file.json]
//                       [--workers 0,2,4,8]
//
// In-process gates (deterministic simulation, stable in CI):
//  * every measured point completes with zero invariant-monitor violations
//    and zero sample overflows;
//  * every curve knees inside the grid;
//  * no staged curve knees below the serial baseline;
//  * knee(w=4) >= 1.25 x knee(serial);
//  * the span-traced p50 cpu component shrinks at w=4 vs serial.
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/critical_path.hpp"
#include "workload/report.hpp"
#include "workload/runner.hpp"

namespace {

using namespace byzcast;

// One LAN group, local-only open-loop load: the vertical-scaling question is
// "how much can a single group carry", so no relays and no global traffic.
constexpr const char* kDefaultSpec = R"json({
  "name": "vertical-lan",
  "protocol": "byzcast-2l",
  "environment": "lan",
  "num_groups": 1,
  "f": 1,
  "clients_per_group": 100,
  "payload_size": 64,
  "warmup_ms": 500,
  "duration_ms": 2000,
  "seed": 42,
  "monitors": true,
  "workload": {"pattern": "local"},
  "rate": {
    "kind": "sweep",
    "rates": [8000, 14000, 20000, 26000, 34000, 44000, 56000, 72000,
              92000, 116000],
    "knee_p99_factor": 5.0,
    "knee_goodput_floor": 0.95,
    "bisect_iters": 2
  }
})json";

struct VerticalCurve {
  std::uint32_t workers = 0;  // 0 = serial (stage_pipeline_off)
  workload::SweepCurve curve;
};

Json point_to_json(const workload::SweepPoint& pt) {
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
  return j;
}

Json components_to_json(const core::ClassAggregate& agg) {
  Json j = Json::object();
  j.set("n", Json::number(agg.n));
  j.set("end_to_end_p50_ms", Json::number(to_ms(agg.end_to_end.p50)));
  j.set("queueing_p50_ms", Json::number(to_ms(agg.queueing.p50)));
  j.set("cpu_p50_ms", Json::number(to_ms(agg.cpu.p50)));
  j.set("network_p50_ms", Json::number(to_ms(agg.network.p50)));
  j.set("quorum_wait_p50_ms", Json::number(to_ms(agg.quorum_wait.p50)));
  return j;
}

/// Applies the stage knobs for one curve: workers == 0 keeps the knobs SET
/// but arms the ablation, so the serial baseline doubles as proof that
/// stage_pipeline_off fully disarms the pipeline.
workload::ExperimentConfig config_for(const workload::ExperimentConfig& base,
                                      std::uint32_t workers) {
  workload::ExperimentConfig config = base;
  if (workers == 0) {
    config.verify_workers = 4;
    config.exec_shards = 4;
    config.stage_pipeline_off = true;
  } else {
    config.verify_workers = workers;
    config.exec_shards = workers;
    config.stage_pipeline_off = false;
  }
  return config;
}

std::string label_for(std::uint32_t workers) {
  return workers == 0 ? "serial(stage_pipeline_off)"
                      : "w" + std::to_string(workers);
}

/// Span-traced fixed-rate run; returns the local-class component breakdown
/// (one group, local-only traffic: everything is local).
core::ClassAggregate trace_components(const workload::ExperimentConfig& base,
                                      double rate) {
  workload::ExperimentConfig config = base;
  config.open_loop_total_rate = rate;
  config.monitors = false;  // isolate the trace; monitors ran in the sweep
  config.span_tracing = true;
  config.span_sample_every = 8;
  config.span_capacity = 1u << 20;
  const workload::ExperimentResult result = workload::run_experiment(config);
  if (!result.spans) return {};
  core::CriticalPathAnalyzer::Options opts;
  opts.f = config.f;
  const core::CriticalPathAnalyzer analyzer(*result.spans, opts);
  return analyzer.aggregate(/*global=*/false);
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string out_path = "BENCH_vertical.json";
  std::vector<std::uint32_t> workers{0, 2, 4, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--spec") == 0 && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers.clear();
      const std::string list = argv[++i];
      std::size_t pos = 0;
      while (pos < list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string tok =
            list.substr(pos, comma == std::string::npos ? comma : comma - pos);
        workers.push_back(
            static_cast<std::uint32_t>(std::strtoul(tok.c_str(), nullptr, 10)));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_vertical [--spec file.json] [--out file.json]"
                   " [--workers 0,2,4,8]\n");
      return 2;
    }
  }
  if (workers.empty() || workers.front() != 0) {
    std::fprintf(stderr, "--workers must start with 0 (the serial curve is "
                         "every gate's baseline)\n");
    return 2;
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

  workload::SweepSettings settings;
  settings.rates = spec->schedule.rates;
  settings.knee_p99_factor = spec->schedule.knee_p99_factor;
  settings.knee_goodput_floor = spec->schedule.knee_goodput_floor;
  settings.bisect_iters = spec->schedule.bisect_iters;

  workload::print_header(
      "Vertical scaling '" + spec->name + "': " +
      workload::to_string(spec->base.protocol) + " " +
      workload::to_string(spec->base.environment) + ", " +
      std::to_string(spec->base.num_groups) +
      " group(s), verify/exec stage width swept; serial baseline = "
      "stage_pipeline_off");

  std::vector<VerticalCurve> curves;
  for (const std::uint32_t w : workers) {
    VerticalCurve vc;
    vc.workers = w;
    vc.curve = workload::run_sweep(config_for(spec->base, w), settings,
                                   label_for(w));
    curves.push_back(std::move(vc));
  }

  using workload::fmt;
  for (const VerticalCurve& vc : curves) {
    std::printf("\ncurve: %s\n", vc.curve.label.c_str());
    std::vector<std::vector<std::string>> rows;
    for (const workload::SweepPoint& pt : vc.curve.points) {
      rows.push_back({fmt(pt.offered, 0), fmt(pt.throughput, 0),
                      fmt(100.0 * pt.goodput_ratio, 1), fmt(pt.p50_ms, 2),
                      fmt(pt.p99_ms, 2), pt.saturated ? "SAT" : "ok",
                      std::to_string(pt.monitor_violations)});
    }
    workload::print_table({"offered/s", "msgs/s", "goodput %", "p50 ms",
                           "p99 ms", "state", "violations"},
                          rows);
    if (vc.curve.knee_found) {
      std::printf("knee: %.0f msg/s offered (p50 %.2f ms, p99 %.2f ms)\n",
                  vc.curve.knee.offered, vc.curve.knee.p50_ms,
                  vc.curve.knee.p99_ms);
    } else {
      std::printf("no knee inside the grid (healthy through %.0f msg/s)\n",
                  vc.curve.max_unsaturated_rate);
    }
  }

  // Span-traced component pair: serial vs w=4 (or the widest staged curve
  // when 4 isn't in the set), at half the serial knee — healthy for both.
  const VerticalCurve& serial = curves.front();
  const VerticalCurve* staged = nullptr;
  for (const VerticalCurve& vc : curves) {
    if (vc.workers == 4) staged = &vc;
  }
  if (staged == nullptr && curves.size() > 1) staged = &curves.back();

  double trace_rate = 0.0;
  core::ClassAggregate serial_cpu;
  core::ClassAggregate staged_cpu;
  if (serial.curve.knee_found && staged != nullptr) {
    trace_rate = serial.curve.knee.offered * 0.5;
    serial_cpu = trace_components(config_for(spec->base, 0), trace_rate);
    staged_cpu =
        trace_components(config_for(spec->base, staged->workers), trace_rate);
    std::printf("\ncomponent p50 at %.0f msg/s (ms): serial cpu %.3f "
                "queue %.3f | %s cpu %.3f queue %.3f\n",
                trace_rate, to_ms(serial_cpu.cpu.p50),
                to_ms(serial_cpu.queueing.p50), staged->curve.label.c_str(),
                to_ms(staged_cpu.cpu.p50), to_ms(staged_cpu.queueing.p50));
  }

  Json doc = Json::object();
  doc.set("schema", Json::string("byzcast-vertical-v1"));
  doc.set("name", Json::string(spec->name));
  doc.set("protocol", Json::string(workload::to_string(spec->base.protocol)));
  doc.set("environment",
          Json::string(workload::to_string(spec->base.environment)));
  doc.set("num_groups", Json::number(spec->base.num_groups));
  doc.set("clients_per_group", Json::number(spec->base.clients_per_group));
  doc.set("payload_size", Json::number(spec->base.payload_size));
  doc.set("duration_ms", Json::number(to_ms(spec->base.duration)));
  Json jcurves = Json::array();
  for (const VerticalCurve& vc : curves) {
    Json j = Json::object();
    j.set("label", Json::string(vc.curve.label));
    j.set("workers", Json::number(vc.workers));
    j.set("stage_pipeline_off", Json::boolean(vc.workers == 0));
    Json points = Json::array();
    for (const workload::SweepPoint& pt : vc.curve.points) {
      points.push_back(point_to_json(pt));
    }
    j.set("points", std::move(points));
    j.set("knee_found", Json::boolean(vc.curve.knee_found));
    if (vc.curve.knee_found) j.set("knee", point_to_json(vc.curve.knee));
    j.set("max_unsaturated_rate",
          Json::number(vc.curve.max_unsaturated_rate));
    jcurves.push_back(std::move(j));
  }
  doc.set("curves", std::move(jcurves));
  if (trace_rate > 0.0) {
    Json jtrace = Json::object();
    jtrace.set("rate", Json::number(trace_rate));
    jtrace.set("serial", components_to_json(serial_cpu));
    jtrace.set("staged", components_to_json(staged_cpu));
    jtrace.set("staged_label", Json::string(staged->curve.label));
    doc.set("cpu_breakdown", std::move(jtrace));
  }
  write_json_file(out_path, doc);

  int failures = 0;
  for (const VerticalCurve& vc : curves) {
    for (const workload::SweepPoint& pt : vc.curve.points) {
      if (pt.completed == 0) {
        std::printf("FAIL: %s @ %.0f msg/s completed nothing\n",
                    vc.curve.label.c_str(), pt.offered);
        ++failures;
      }
      if (pt.monitor_violations != 0) {
        std::printf("FAIL: %s @ %.0f msg/s tripped %llu invariant "
                    "violations\n",
                    vc.curve.label.c_str(), pt.offered,
                    static_cast<unsigned long long>(pt.monitor_violations));
        ++failures;
      }
      if (pt.sample_overflow != 0) {
        std::printf("FAIL: %s @ %.0f msg/s overflowed sample capacity\n",
                    vc.curve.label.c_str(), pt.offered);
        ++failures;
      }
    }
    if (!vc.curve.knee_found) {
      std::printf("FAIL: curve %s found no knee inside the grid\n",
                  vc.curve.label.c_str());
      ++failures;
    }
  }
  if (serial.curve.knee_found) {
    const double base_knee = serial.curve.knee.offered;
    for (std::size_t i = 1; i < curves.size(); ++i) {
      const VerticalCurve& vc = curves[i];
      if (!vc.curve.knee_found) continue;
      // Adding workers must never LOWER the ceiling (one bisection step of
      // measurement slack, as in bench_sweep's ablation gate).
      if (vc.curve.knee.offered < base_knee / 1.2) {
        std::printf("FAIL: %s knees at %.0f msg/s, below the serial "
                    "baseline's %.0f\n",
                    vc.curve.label.c_str(), vc.curve.knee.offered, base_knee);
        ++failures;
      }
    }
    if (staged != nullptr && staged->curve.knee_found) {
      const double ratio = staged->curve.knee.offered / base_knee;
      std::printf("\nknee(%s) / knee(serial) = %.0f / %.0f = %.2fx\n",
                  staged->curve.label.c_str(), staged->curve.knee.offered,
                  base_knee, ratio);
      if (ratio < 1.25) {
        std::printf("FAIL: vertical scaling gate needs >= 1.25x, got "
                    "%.2fx\n",
                    ratio);
        ++failures;
      }
    }
  }
  if (trace_rate > 0.0) {
    if (serial_cpu.n == 0 || staged_cpu.n == 0) {
      std::printf("FAIL: span-traced runs produced no complete breakdowns\n");
      ++failures;
    } else if (staged_cpu.cpu.p50 >= serial_cpu.cpu.p50) {
      std::printf("FAIL: p50 cpu component did not shrink (serial %.3f ms, "
                  "staged %.3f ms)\n",
                  to_ms(serial_cpu.cpu.p50), to_ms(staged_cpu.cpu.p50));
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
