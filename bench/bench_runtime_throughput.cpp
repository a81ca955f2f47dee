// Wall-clock throughput of the runtime backend: real msgs/s sustained by
// closed-loop clients over 1..N target groups at f=1, local-only and mixed
// (50% global pairs) workloads, on real threads (thread-per-group + one
// client worker). The simulator's counterpart figures are Fig. 4/5; here the
// numbers are host-dependent wall-clock measurements, not simulated-time
// reproductions — the point is exercising the concurrent backend end to end
// and giving the optimizer a real-hardware reference curve.
//
// Emits bench_csv/runtime_throughput.csv (series), the standard metrics
// sidecar bench_csv/runtime_metrics.json (from the largest mixed config),
// BENCH_runtime.json (machine-readable summary of every config), and
// BENCH_wire.json (before/after comparison against the BENCH_runtime.json
// found at startup — i.e. the previous run's numbers — plus the verdict of
// the five atomic-multicast property checkers over each config's
// DeliveryLog; a throughput number from a run that broke ordering would be
// meaningless).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/multicast.hpp"
#include "core/properties.hpp"
#include "core/tree.hpp"
#include "runtime/parallel_system.hpp"
#include "workload/report.hpp"

namespace {

using namespace byzcast;

constexpr int kClients = 2;
constexpr int kMsgsPerClient = 150;
constexpr std::size_t kPayload = 64;

struct ConfigResult {
  int groups = 0;
  std::string pattern;
  std::size_t workers = 0;
  int completed = 0;
  double elapsed_ms = 0.0;
  double throughput = 0.0;  // client completions / wall second
  double latency_mean_ms = 0.0;
  double latency_p95_ms = 0.0;
  std::uint64_t deliveries = 0;
  std::uint64_t wire_messages = 0;
  bool properties_ok = false;
  std::string properties_error;
};

core::OverlayTree make_tree(int groups) {
  std::vector<GroupId> targets;
  for (int i = 0; i < groups; ++i) targets.push_back(GroupId{i});
  return groups == 1 ? core::OverlayTree::single(targets[0])
                     : core::OverlayTree::two_level(targets, GroupId{100});
}

/// Runs one closed-loop configuration; `global_fraction` of messages go to
/// a random pair of distinct groups, the rest to one random group. When
/// `sidecar` is non-null the run records observability into it.
ConfigResult run_config(int groups, double global_fraction,
                        workload::ExperimentResult* sidecar) {
  runtime::ParallelOptions opts;
  opts.runtime.seed = 97;
  if (sidecar != nullptr) {
    sidecar->metrics = std::make_shared<MetricsRegistry>();
    opts.obs.metrics = sidecar->metrics.get();
  }
  runtime::ParallelSystem system(make_tree(groups), /*f=*/1, opts);

  std::vector<core::Client*> clients;
  std::vector<Rng> rngs;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(&system.add_client("client" + std::to_string(c)));
    rngs.push_back(system.env().fork_rng());
  }

  const Bytes payload(kPayload, std::uint8_t{0xab});
  const int total = kClients * kMsgsPerClient;
  std::vector<int> sent(kClients, 0);  // each slot touched by one worker
  // Canonical destination of every issued message, recorded at issue time
  // for the property checkers (slot c only touched by client c's worker).
  std::vector<std::vector<std::vector<GroupId>>> issued(kClients);
  std::atomic<int> done{0};
  std::mutex lat_mu;
  LatencyRecorder latency;

  // issue(c) always runs on client c's worker, so the re-issue from the
  // completion callback may call a_multicast directly.
  std::function<void(int)> issue = [&](int c) {
    auto& count = sent[static_cast<std::size_t>(c)];
    if (count == kMsgsPerClient) return;
    ++count;
    Rng& rng = rngs[static_cast<std::size_t>(c)];
    std::vector<GroupId> dst;
    if (groups > 1 && rng.next_bool(global_fraction)) {
      const auto a = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(groups)));
      const auto b = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(groups - 1)));
      dst = {GroupId{a}, GroupId{b < a ? b : b + 1}};
    } else {
      dst = {GroupId{static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(groups)))}};
    }
    core::MulticastMessage canon;
    canon.dst = dst;
    canon.canonicalize();
    issued[static_cast<std::size_t>(c)].push_back(std::move(canon.dst));
    clients[static_cast<std::size_t>(c)]->a_multicast(
        std::move(dst), payload,
        [&, c](const core::MulticastMessage&, Time lat) {
          {
            const std::lock_guard<std::mutex> lock(lat_mu);
            latency.record(system.env().now(), lat);
          }
          done.fetch_add(1);
          issue(c);
        });
  };

  system.start();
  const auto t0 = std::chrono::steady_clock::now();
  for (int c = 0; c < kClients; ++c) {
    system.env().run_on(clients[static_cast<std::size_t>(c)]->id(),
                        [&issue, c] { issue(c); });
  }
  const auto deadline = t0 + std::chrono::minutes(5);
  while (done.load() < total && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t1 = std::chrono::steady_clock::now();
  system.stop();

  ConfigResult r;
  r.groups = groups;
  r.pattern = global_fraction > 0.0 ? "mixed" : "local";
  r.workers = system.env().executor().workers();
  r.completed = done.load();
  r.elapsed_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.throughput = r.completed / (r.elapsed_ms / 1000.0);
  r.latency_mean_ms = latency.mean_ms();
  r.latency_p95_ms = latency.percentile_ms(95);
  r.deliveries = system.delivery_log().total_deliveries();
  r.wire_messages = system.env().network().sent();

  // Validate the run's DeliveryLog against the §II-B properties (threads
  // have quiesced after stop(), so the structural readers are safe).
  core::PropertyInput in;
  in.log = &system.delivery_log();
  for (int c = 0; c < kClients; ++c) {
    const auto& dsts = issued[static_cast<std::size_t>(c)];
    for (std::size_t k = 0; k < dsts.size(); ++k) {
      in.sent.push_back(core::SentMessage{
          MessageId{clients[static_cast<std::size_t>(c)]->id(),
                    static_cast<std::uint64_t>(k)},
          dsts[k]});
    }
  }
  for (int g = 0; g < groups; ++g) {
    auto& grp = system.system().group(GroupId{g});
    for (const int i : grp.correct_indices()) {
      in.correct_replicas[GroupId{g}].push_back(grp.replica(i).id());
    }
  }
  const core::PropertyResult verdict = core::check_all_properties(in);
  r.properties_ok = verdict.ok;
  r.properties_error = verdict.error;
  if (sidecar != nullptr) {
    sidecar->throughput = r.throughput;
    sidecar->completed = static_cast<std::uint64_t>(r.completed);
    sidecar->a_deliveries = r.deliveries;
    sidecar->wire_messages = r.wire_messages;
    sidecar->latency_all = latency;
  }
  return r;
}

/// Prior throughput per (groups, pattern), read from the
/// BENCH_runtime.json present at startup (the previous run of this binary —
/// e.g. the committed pre-zero-copy baseline). Empty when absent.
std::map<std::pair<int, std::string>, double> read_baseline() {
  std::map<std::pair<int, std::string>, double> out;
  const auto doc = read_json_file("BENCH_runtime.json");
  if (!doc) return out;
  const Json& configs = doc->get("configs");
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const Json& c = configs.at(i);
    const int groups = static_cast<int>(c.int_or("groups", 0));
    out[{groups, c.get("pattern").as_string()}] =
        c.num_or("throughput_msgs_s", 0.0);
  }
  return out;
}

/// The fields both BENCH files open with.
Json bench_header(const char* bench) {
  Json doc = Json::object();
  doc.set("bench", Json::string(bench));
  doc.set("backend", Json::string("runtime"));
  doc.set("f", Json::number(1));
  doc.set("clients", Json::number(kClients));
  doc.set("msgs_per_client", Json::number(kMsgsPerClient));
  return doc;
}

/// Before/after record of the zero-copy wire fabric change: prior numbers
/// (when a baseline file existed), this run's numbers, the improvement, and
/// whether the run's DeliveryLog passed the atomic multicast checkers.
void write_wire_json(
    const std::vector<ConfigResult>& results,
    const std::map<std::pair<int, std::string>, double>& baseline) {
  Json configs = Json::array();
  for (const auto& r : results) {
    Json c = Json::object();
    c.set("groups", Json::number(r.groups));
    c.set("pattern", Json::string(r.pattern));
    c.set("throughput_after_msgs_s", Json::number(r.throughput));
    const auto it = baseline.find({r.groups, r.pattern});
    if (it != baseline.end() && it->second > 0.0) {
      const double pct = 100.0 * (r.throughput - it->second) / it->second;
      c.set("throughput_before_msgs_s", Json::number(it->second));
      c.set("improvement_pct", Json::number(pct));
    }
    c.set("latency_mean_ms", Json::number(r.latency_mean_ms));
    c.set("latency_p95_ms", Json::number(r.latency_p95_ms));
    c.set("properties_ok", Json::boolean(r.properties_ok));
    if (!r.properties_ok) {
      c.set("properties_error", Json::string(r.properties_error));
    }
    configs.push_back(std::move(c));
  }
  Json doc = bench_header("wire_fabric_before_after");
  doc.set("baseline_source",
          Json::string(baseline.empty() ? "none" : "BENCH_runtime.json"));
  doc.set("configs", std::move(configs));
  write_json_file("BENCH_wire.json", doc);
}

void write_bench_json(const std::vector<ConfigResult>& results) {
  Json configs = Json::array();
  for (const auto& r : results) {
    Json c = Json::object();
    c.set("groups", Json::number(r.groups));
    c.set("pattern", Json::string(r.pattern));
    c.set("workers", Json::number(r.workers));
    c.set("completed", Json::number(r.completed));
    c.set("elapsed_ms", Json::number(r.elapsed_ms));
    c.set("throughput_msgs_s", Json::number(r.throughput));
    c.set("latency_mean_ms", Json::number(r.latency_mean_ms));
    c.set("latency_p95_ms", Json::number(r.latency_p95_ms));
    c.set("a_deliveries", Json::number(r.deliveries));
    c.set("wire_messages", Json::number(r.wire_messages));
    configs.push_back(std::move(c));
  }
  Json doc = bench_header("runtime_throughput");
  doc.set("configs", std::move(configs));
  write_json_file("BENCH_runtime.json", doc);
}

}  // namespace

int main() {
  using workload::fmt;
  workload::print_header(
      "Runtime backend: wall-clock throughput, 1..4 groups, f=1");

  // Prior numbers (if any) before this run overwrites BENCH_runtime.json.
  const auto baseline = read_baseline();

  std::vector<ConfigResult> results;
  workload::ExperimentResult probe;
  std::vector<std::vector<std::string>> rows;
  for (const int groups : {1, 2, 4}) {
    const auto local = run_config(groups, 0.0, nullptr);
    results.push_back(local);
    std::vector<std::string> row = {std::to_string(groups),
                                    fmt(local.throughput, 0)};
    if (groups > 1) {
      // The 4-group mixed run feeds the observability sidecar.
      const auto mixed =
          run_config(groups, 0.5, groups == 4 ? &probe : nullptr);
      results.push_back(mixed);
      row.push_back(fmt(mixed.throughput, 0));
    } else {
      row.push_back("-");
    }
    rows.push_back(row);
  }
  workload::print_table({"groups", "local msgs/s", "mixed msgs/s"}, rows);

  const auto& last = results.back();
  std::printf(
      "\n%d-group mixed run: %zu workers, %d msgs in %.0f ms "
      "(mean %.2f ms, p95 %.2f ms). Wall-clock numbers are host-dependent; "
      "compare shapes, not absolutes, against the simulated Fig. 4/5.\n",
      last.groups, last.workers, last.completed, last.elapsed_ms,
      last.latency_mean_ms, last.latency_p95_ms);

  workload::write_series_csv("bench_csv/runtime_throughput.csv",
                             {"groups", "local msgs/s", "mixed msgs/s"},
                             rows);
  workload::write_metrics_sidecar("bench_csv/runtime_metrics.json", probe);
  write_bench_json(results);
  write_wire_json(results, baseline);

  int failures = 0;
  for (const auto& r : results) {
    if (r.completed != kClients * kMsgsPerClient) {
      std::printf("WARN: %d-group %s run completed %d/%d\n", r.groups,
                  r.pattern.c_str(), r.completed, kClients * kMsgsPerClient);
      ++failures;
    }
    if (!r.properties_ok) {
      std::printf("FAIL: %d-group %s run violates properties: %s\n",
                  r.groups, r.pattern.c_str(), r.properties_error.c_str());
      ++failures;
    }
    const auto it = baseline.find({r.groups, r.pattern});
    if (it != baseline.end() && it->second > 0.0) {
      std::printf("%d-group %s: %.0f -> %.0f msgs/s (%+.1f%%)\n", r.groups,
                  r.pattern.c_str(), it->second, r.throughput,
                  100.0 * (r.throughput - it->second) / it->second);
    }
  }
  return failures == 0 ? 0 : 1;
}
