// Tracing overhead on the wall-clock runtime backend: the same 4-group
// mixed closed-loop workload as bench_runtime_throughput, run with span
// tracing off, sampled (every 16th message per client) and full (every
// message), on real threads. Writes BENCH_trace.json with the measured
// throughput of each mode and the overhead relative to off.
//
// The knob is Client::set_trace_sample_every(n) — 0 disables tracing, n
// traces every n-th message of that client's stream (uid % n == 0) —
// surfaced as ExperimentConfig::span_sample_every for the simulator
// harness. The target for the sampled mode is <5% regression; each mode
// runs several times and the best throughput is kept, since single
// wall-clock runs on a shared host are noisy.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/span.hpp"
#include "core/multicast.hpp"
#include "core/tree.hpp"
#include "runtime/parallel_system.hpp"
#include "workload/report.hpp"

namespace {

using namespace byzcast;

constexpr int kGroups = 4;
constexpr int kClients = 2;
constexpr int kMsgsPerClient = 150;
constexpr int kRepeats = 3;
constexpr std::size_t kPayload = 64;

struct ModeResult {
  std::string mode;
  std::uint32_t sample_every = 0;
  double throughput = 0.0;       // best over kRepeats
  std::uint64_t spans = 0;       // spans recorded in the best run
  std::uint64_t dropped = 0;
};

core::OverlayTree make_tree() {
  std::vector<GroupId> targets;
  for (int i = 0; i < kGroups; ++i) targets.push_back(GroupId{i});
  return core::OverlayTree::two_level(targets, GroupId{100});
}

double run_once(std::uint32_t sample_every, std::uint64_t* spans,
                std::uint64_t* dropped) {
  runtime::ParallelOptions opts;
  opts.runtime.seed = 97;
  SpanLog span_log;
  if (sample_every > 0) opts.obs.spans = &span_log;
  runtime::ParallelSystem system(make_tree(), /*f=*/1, opts);

  std::vector<core::Client*> clients;
  std::vector<Rng> rngs;
  for (int c = 0; c < kClients; ++c) {
    auto& client = system.add_client("client" + std::to_string(c));
    client.set_trace_sample_every(sample_every);
    clients.push_back(&client);
    rngs.push_back(system.env().fork_rng());
  }

  const Bytes payload(kPayload, std::uint8_t{0xab});
  const int total = kClients * kMsgsPerClient;
  std::vector<int> sent(kClients, 0);
  std::atomic<int> done{0};

  // Mixed workload: half the messages go to a random pair of distinct
  // groups, half to one random group (same shape as runtime_throughput).
  std::function<void(int)> issue = [&](int c) {
    auto& count = sent[static_cast<std::size_t>(c)];
    if (count == kMsgsPerClient) return;
    ++count;
    Rng& rng = rngs[static_cast<std::size_t>(c)];
    std::vector<GroupId> dst;
    if (rng.next_bool(0.5)) {
      const auto a = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(kGroups)));
      const auto b = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(kGroups - 1)));
      dst = {GroupId{a}, GroupId{b < a ? b : b + 1}};
    } else {
      dst = {GroupId{static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(kGroups)))}};
    }
    clients[static_cast<std::size_t>(c)]->a_multicast(
        std::move(dst), payload,
        [&, c](const core::MulticastMessage&, Time) {
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

  if (spans != nullptr) *spans = span_log.spans().size();
  if (dropped != nullptr) *dropped = span_log.dropped();
  const double elapsed_s =
      std::chrono::duration<double>(t1 - t0).count();
  return done.load() / elapsed_s;
}

ModeResult run_mode(const std::string& mode, std::uint32_t sample_every) {
  ModeResult r;
  r.mode = mode;
  r.sample_every = sample_every;
  for (int i = 0; i < kRepeats; ++i) {
    std::uint64_t spans = 0;
    std::uint64_t dropped = 0;
    const double thr = run_once(sample_every, &spans, &dropped);
    if (thr > r.throughput) {
      r.throughput = thr;
      r.spans = spans;
      r.dropped = dropped;
    }
  }
  return r;
}

}  // namespace

int main() {
  using workload::fmt;
  workload::print_header(
      "Tracing overhead: runtime backend, 4 groups mixed, f=1");

  const ModeResult off = run_mode("off", 0);
  const ModeResult sampled = run_mode("sampled", 16);
  const ModeResult full = run_mode("full", 1);

  const auto pct = [&off](const ModeResult& r) {
    return off.throughput > 0.0
               ? 100.0 * (off.throughput - r.throughput) / off.throughput
               : 0.0;
  };
  std::vector<std::vector<std::string>> rows;
  for (const ModeResult* r : {&off, &sampled, &full}) {
    rows.push_back({r->mode, std::to_string(r->sample_every),
                    fmt(r->throughput, 0),
                    r == &off ? "-" : fmt(pct(*r), 1),
                    std::to_string(r->spans)});
  }
  workload::print_table(
      {"mode", "sample_every", "msgs/s", "overhead %", "spans"}, rows);
  std::printf(
      "\nknob: Client::set_trace_sample_every / "
      "ExperimentConfig::span_sample_every (0 = off). Target: sampled "
      "overhead < 5%%.\n");

  Json configs = Json::array();
  for (const ModeResult* r : {&off, &sampled, &full}) {
    Json c = Json::object();
    c.set("mode", Json::string(r->mode));
    c.set("sample_every", Json::number(r->sample_every));
    c.set("throughput_msgs_s", Json::number(r->throughput));
    if (r != &off) c.set("overhead_pct", Json::number(pct(*r)));
    c.set("spans_recorded", Json::number(r->spans));
    c.set("spans_dropped", Json::number(r->dropped));
    configs.push_back(std::move(c));
  }
  Json doc = Json::object();
  doc.set("bench", Json::string("trace_overhead"));
  doc.set("backend", Json::string("runtime"));
  doc.set("f", Json::number(1));
  doc.set("groups", Json::number(kGroups));
  doc.set("pattern", Json::string("mixed"));
  doc.set("clients", Json::number(kClients));
  doc.set("msgs_per_client", Json::number(kMsgsPerClient));
  doc.set("repeats", Json::number(kRepeats));
  doc.set("knob", Json::string("Client::set_trace_sample_every "
                               "(ExperimentConfig::span_sample_every); "
                               "0 = off"));
  doc.set("target_sampled_overhead_pct", Json::number(5));
  doc.set("configs", std::move(configs));
  write_json_file("BENCH_trace.json", doc);

  // Completion is the only hard gate; overhead numbers are host-dependent.
  int failures = 0;
  for (const ModeResult* r : {&off, &sampled, &full}) {
    if (r->throughput <= 0.0) {
      std::printf("FAIL: %s mode did not complete\n", r->mode.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
