// The net backend on a small closed-loop workload, untraced and traced.
//
// Both rows run the same 3-target-group tree (root g0 with children g1, g2 —
// the checked-in deployment shape), f=1, closed-loop clients, 50% global
// messages, on an InProcessCluster: 12 replica processes' worth of
// ClusterNodes plus a client node, each on its own event loop, talking over
// real localhost sockets. The throughput delta between the rows is the
// tracing overhead at 1/64 sampling. Runtime-backend throughput is
// perfbench's question (perfbench/run.py), not this bench's.
//
// Emits BENCH_net.json with each row's throughput, latency mean and
// p50/p95/p99/p99.9/max, and the verdict of the five atomic-multicast
// property checkers per run (a throughput figure from a run that broke
// ordering would be meaningless). Exits nonzero on any incomplete workload
// or property violation.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/stats.hpp"
#include "core/multicast.hpp"
#include "core/properties.hpp"
#include "net/cluster.hpp"
#include "net/config.hpp"
#include "workload/report.hpp"

namespace {

using namespace byzcast;

constexpr int kClients = 2;
constexpr int kMsgsPerClient = 150;
constexpr std::size_t kPayload = 64;
constexpr double kGlobalFraction = 0.5;

struct BackendResult {
  std::string backend;
  int completed = 0;
  double elapsed_ms = 0.0;
  double throughput = 0.0;
  double latency_mean_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_p999_ms = 0.0;
  double latency_max_ms = 0.0;
  std::uint64_t deliveries = 0;
  bool properties_ok = false;
  std::string properties_error;
  std::uint64_t wire_messages = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t reconnects = 0;
};

net::ClusterConfig cluster_config() {
  std::string text = R"({"name": "bench", "f": 1, "seed": 29, "groups": [)";
  for (int g = 0; g < 3; ++g) {
    if (g > 0) text += ",";
    text += R"({"id": )" + std::to_string(g) + R"(, "target": true,)";
    text += g == 0 ? R"( "parent": null,)" : R"( "parent": 0,)";
    text += R"( "replicas": [)";
    for (int r = 0; r < 4; ++r) {
      if (r > 0) text += ",";
      text += R"({"host": "127.0.0.1", "port": )" +
              std::to_string(11000 + g * 10 + r) + "}";
    }
    text += "]}";
  }
  text += "]}";
  std::string err;
  auto cfg = net::ClusterConfig::parse(text, &err);
  if (!cfg) {
    std::fprintf(stderr, "config: %s\n", err.c_str());
    std::abort();
  }
  return *cfg;
}

std::vector<GroupId> pick_dst(Rng& rng) {
  if (rng.next_bool(kGlobalFraction)) {
    const auto a = static_cast<std::int32_t>(rng.next_below(3));
    const auto b = static_cast<std::int32_t>(rng.next_below(2));
    return {GroupId{a}, GroupId{b < a ? b : b + 1}};
  }
  return {GroupId{static_cast<std::int32_t>(rng.next_below(3))}};
}

/// `trace_sample_every` = 0 runs untraced; N traces every Nth message per
/// client (the deployment default is 64). The throughput delta between the
/// two net rows is the tracing overhead at that sampling rate.
BackendResult run_net(const net::ClusterConfig& cfg,
                      std::uint32_t trace_sample_every,
                      const std::string& backend_name) {
  net::InProcessCluster cluster(cfg);
  std::vector<core::Client*> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(&cluster.add_client("client" + std::to_string(c)));
    clients.back()->set_trace_sample_every(trace_sample_every);
  }
  cluster.start();

  const Bytes payload(kPayload, std::uint8_t{0xab});
  const int total = kClients * kMsgsPerClient;
  std::vector<int> sent(kClients, 0);
  std::vector<std::vector<std::vector<GroupId>>> issued(kClients);
  std::atomic<int> done{0};
  std::mutex lat_mu;
  LatencyRecorder latency;
  Rng rng(cfg.seed);

  // Runs on the client node's loop thread; re-issue from the completion.
  std::function<void(int)> issue = [&](int c) {
    auto& count = sent[static_cast<std::size_t>(c)];
    if (count == kMsgsPerClient) return;
    ++count;
    std::vector<GroupId> dst = pick_dst(rng);
    core::MulticastMessage canon;
    canon.dst = dst;
    canon.canonicalize();
    issued[static_cast<std::size_t>(c)].push_back(std::move(canon.dst));
    clients[static_cast<std::size_t>(c)]->a_multicast(
        std::move(dst), payload,
        [&, c](const core::MulticastMessage&, Time lat) {
          {
            const std::lock_guard<std::mutex> lock(lat_mu);
            latency.record(cluster.client_node().env().now(), lat);
          }
          done.fetch_add(1);
          issue(c);
        });
  };

  const auto t0 = std::chrono::steady_clock::now();
  cluster.client_node().env().post([&] {
    for (int c = 0; c < kClients; ++c) issue(c);
  });
  const auto deadline = t0 + std::chrono::minutes(5);
  while (done.load() < total && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Stragglers catch up via anti-entropy (liveness cadence 1s, state
  // transfer rate limit 500ms): wait for cluster-wide delivery stability
  // longer than that cadence before reading the logs.
  std::uint64_t last = cluster.total_deliveries();
  auto stable_since = std::chrono::steady_clock::now();
  const auto drain_deadline = stable_since + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t now = cluster.total_deliveries();
    if (now != last) {
      last = now;
      stable_since = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - stable_since >
               std::chrono::milliseconds(2500)) {
      break;
    }
  }

  BackendResult r;
  r.backend = backend_name;
  r.completed = done.load();
  r.elapsed_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.throughput = r.completed / (r.elapsed_ms / 1000.0);
  r.latency_mean_ms = latency.mean_ms();
  r.latency_p50_ms = latency.percentile_ms(50);
  r.latency_p95_ms = latency.percentile_ms(95);
  r.latency_p99_ms = latency.percentile_ms(99);
  r.latency_p999_ms = latency.percentile_ms(99.9);
  r.latency_max_ms = latency.percentile_ms(100);
  r.deliveries = cluster.total_deliveries();
  // Transport::stats() walks connection tables the loop thread mutates, so
  // read it only once stop() has joined every loop (connections stay).
  cluster.stop();
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 4; ++i) {
      const auto& ts =
          cluster.replica_node(GroupId{g}, i).env().transport().stats();
      r.wire_messages += ts.messages_sent;
      r.wire_bytes += ts.bytes_sent;
      r.reconnects += ts.reconnects;
    }
  }

  std::vector<core::SentMessage> sent_msgs;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (std::size_t k = 0; k < issued[c].size(); ++k) {
      sent_msgs.push_back(core::SentMessage{
          MessageId{clients[c]->id(), static_cast<std::uint64_t>(k)},
          issued[c][k]});
    }
  }
  core::PropertyResult verdict = cluster.check_properties(sent_msgs);
  if (verdict.ok && cluster.total_monitor_violations() > 0) {
    verdict.ok = false;
    verdict.error = "online monitor violations";
  }
  r.properties_ok = verdict.ok;
  r.properties_error = verdict.error;
  return r;
}

/// `results` holds the untraced row, then the traced one.
void write_bench_json(const std::vector<BackendResult>& results) {
  Json backends = Json::array();
  for (const BackendResult& r : results) {
    Json b = Json::object();
    b.set("backend", Json::string(r.backend));
    b.set("completed", Json::number(r.completed));
    b.set("elapsed_ms", Json::number(r.elapsed_ms));
    b.set("throughput_msgs_s", Json::number(r.throughput));
    b.set("latency_mean_ms", Json::number(r.latency_mean_ms));
    b.set("latency_p50_ms", Json::number(r.latency_p50_ms));
    b.set("latency_p95_ms", Json::number(r.latency_p95_ms));
    b.set("latency_p99_ms", Json::number(r.latency_p99_ms));
    b.set("latency_p999_ms", Json::number(r.latency_p999_ms));
    b.set("latency_max_ms", Json::number(r.latency_max_ms));
    b.set("a_deliveries", Json::number(r.deliveries));
    b.set("properties_ok", Json::boolean(r.properties_ok));
    if (!r.properties_ok) {
      b.set("properties_error", Json::string(r.properties_error));
    }
    b.set("wire_messages", Json::number(r.wire_messages));
    b.set("wire_bytes", Json::number(r.wire_bytes));
    b.set("reconnects", Json::number(r.reconnects));
    backends.push_back(std::move(b));
  }
  Json doc = Json::object();
  doc.set("bench", Json::string("net"));
  doc.set("groups", Json::number(3));
  doc.set("f", Json::number(1));
  doc.set("clients", Json::number(kClients));
  doc.set("msgs_per_client", Json::number(kMsgsPerClient));
  doc.set("global_fraction", Json::number(kGlobalFraction));
  doc.set("backends", std::move(backends));
  const BackendResult& net = results.at(0);
  const BackendResult& traced = results.at(1);
  if (net.throughput > 0.0) {
    // < 1.0 means tracing cost throughput; 1 - ratio is the overhead
    // fraction at the default 1/64 sampling.
    doc.set("traced_vs_untraced_throughput_ratio",
            Json::number(traced.throughput / net.throughput));
  }
  write_json_file("BENCH_net.json", doc);
}

}  // namespace

int main() {
  using workload::fmt;
  workload::print_header(
      "Net backend (real TCP), untraced and traced, 3 groups, f=1, mixed");

  const net::ClusterConfig cfg = cluster_config();
  std::vector<BackendResult> results;
  results.push_back(run_net(cfg, /*trace_sample_every=*/0, "net"));
  results.push_back(run_net(cfg, /*trace_sample_every=*/64, "net_traced"));

  std::vector<std::vector<std::string>> rows;
  for (const BackendResult& r : results) {
    rows.push_back({r.backend, std::to_string(r.completed), fmt(r.throughput, 0),
                    fmt(r.latency_mean_ms, 2), fmt(r.latency_p50_ms, 2),
                    fmt(r.latency_p95_ms, 2), fmt(r.latency_p99_ms, 2),
                    fmt(r.latency_p999_ms, 2), fmt(r.latency_max_ms, 2),
                    r.properties_ok ? "ok" : "VIOLATED"});
  }
  workload::print_table({"backend", "completed", "msgs/s", "mean ms", "p50 ms",
                         "p95 ms", "p99 ms", "p99.9 ms", "max ms",
                         "properties"},
                        rows);
  const BackendResult& nr = results[0];
  std::printf(
      "\nnet run: %llu wire messages, %.1f MiB on the wire, %llu reconnects. "
      "Wall-clock numbers are host-dependent.\n",
      (unsigned long long)nr.wire_messages,
      static_cast<double>(nr.wire_bytes) / (1024.0 * 1024.0),
      (unsigned long long)nr.reconnects);

  write_bench_json(results);

  int failures = 0;
  for (const BackendResult& r : results) {
    if (r.completed != kClients * kMsgsPerClient) {
      std::printf("FAIL: %s backend completed %d/%d\n", r.backend.c_str(),
                  r.completed, kClients * kMsgsPerClient);
      ++failures;
    }
    if (!r.properties_ok) {
      std::printf("FAIL: %s backend violates properties: %s\n",
                  r.backend.c_str(), r.properties_error.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
