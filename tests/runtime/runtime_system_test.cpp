// End-to-end check of the wall-clock backend: a 2-level ByzCast tree (three
// target groups under one auxiliary root, f=1) runs on real threads with a
// mixed local/global workload, and the five atomic multicast properties of
// §II-B are evaluated over the concurrently recorded DeliveryLog. This is
// the runtime counterpart of properties/byzcast_properties_test.cpp — same
// oracle, real concurrency instead of simulated time. The last case runs the
// single-group tree under a closed loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/span.hpp"
#include "core/multicast.hpp"
#include "runtime/parallel_system.hpp"
#include "support/properties.hpp"

namespace byzcast::runtime {
namespace {

using testing::PropertyInput;
using testing::SentMessage;

std::vector<GroupId> canonical(std::vector<GroupId> dst) {
  core::MulticastMessage m;
  m.dst = std::move(dst);
  m.canonicalize();
  return m.dst;
}

TEST(RuntimeSystem, MixedWorkloadSatisfiesAtomicMulticastProperties) {
  const std::vector<GroupId> targets{GroupId{0}, GroupId{1}, GroupId{2}};
  const GroupId aux{100};

  MetricsRegistry metrics;
  SpanLog spans;
  ParallelOptions opts;
  opts.runtime.seed = 7;
  opts.obs.metrics = &metrics;
  opts.obs.spans = &spans;
  ParallelSystem system(core::OverlayTree::two_level(targets, aux), /*f=*/1,
                        opts);
  // Thread-per-group: 4 groups + 1 client worker.
  ASSERT_GE(system.env().executor().workers(), 4u);

  std::vector<core::Client*> clients;
  for (int c = 0; c < 3; ++c) {
    clients.push_back(&system.add_client("client" + std::to_string(c)));
    clients.back()->set_trace_sample_every(1);
  }
  system.start();

  // Per client: 4 local singles, 3 pairwise globals, 1 all-groups global.
  const std::vector<std::vector<GroupId>> schedule{
      {GroupId{0}},           {GroupId{1}},
      {GroupId{2}},           {GroupId{0}},
      {GroupId{0}, GroupId{1}}, {GroupId{1}, GroupId{2}},
      {GroupId{0}, GroupId{2}}, {GroupId{0}, GroupId{1}, GroupId{2}},
  };

  std::vector<SentMessage> sent;
  std::atomic<int> completions{0};
  std::vector<std::vector<GroupId>> dsts;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (std::size_t k = 0; k < schedule.size(); ++k) {
      const auto dst = canonical(schedule[k]);
      sent.push_back(SentMessage{
          MessageId{clients[c]->id(), static_cast<std::uint64_t>(k)}, dst});
      dsts.push_back(dst);
      const Bytes payload =
          to_bytes("m-" + std::to_string(c) + "-" + std::to_string(k));
      ASSERT_TRUE(system.a_multicast(
          *clients[c], dst, payload,
          [&completions](const core::MulticastMessage&, Time) {
            completions.fetch_add(1);
          }));
    }
  }

  const std::size_t expected = system.expected_deliveries(dsts);
  ASSERT_TRUE(
      system.await_total_deliveries(expected, std::chrono::minutes(3)))
      << "quiescence timeout: " << system.delivery_log().total_deliveries()
      << "/" << expected << " deliveries";
  system.stop();

  PropertyInput in;
  in.log = &system.delivery_log();
  in.sent = sent;
  for (const GroupId g : targets) {
    auto& grp = system.system().group(g);
    for (const int i : grp.correct_indices()) {
      in.correct_replicas[g].push_back(grp.replica(i).id());
    }
  }
  EXPECT_TRUE(check_integrity(in));
  EXPECT_TRUE(check_validity_agreement(in));
  EXPECT_TRUE(check_prefix_order(in));
  EXPECT_TRUE(check_acyclic_order(in));

  // Every message completed back at its client (f+1 replies per dst group),
  // and the shared recorders saw concurrent traffic without losing it.
  EXPECT_EQ(completions.load(), static_cast<int>(sent.size()));
  EXPECT_EQ(system.delivery_log().total_deliveries(), expected);
  EXPECT_EQ(spans.traced_messages().size(), sent.size());
  EXPECT_EQ(spans.dropped(), 0u);
  EXPECT_GT(metrics.counters().size(), 0u);
}

TEST(RuntimeSystem, InjectedLatencyStillDeliversEverything) {
  const std::vector<GroupId> targets{GroupId{0}, GroupId{1}};
  MetricsRegistry metrics;
  ParallelOptions opts;
  opts.runtime.seed = 11;
  opts.runtime.net_delay = 2 * kMillisecond;  // every hop through the wheel
  opts.obs.metrics = &metrics;
  ParallelSystem system(core::OverlayTree::two_level(targets, GroupId{100}),
                        /*f=*/1, opts);
  core::Client& client = system.add_client("client0");
  system.start();

  std::vector<SentMessage> sent;
  std::vector<std::vector<GroupId>> dsts;
  for (int k = 0; k < 4; ++k) {
    const auto dst = canonical(k % 2 == 0
                                   ? std::vector<GroupId>{GroupId{0}}
                                   : std::vector<GroupId>{GroupId{0},
                                                          GroupId{1}});
    sent.push_back(
        SentMessage{MessageId{client.id(), static_cast<std::uint64_t>(k)},
                    dst});
    dsts.push_back(dst);
    ASSERT_TRUE(system.a_multicast(client, dst, to_bytes("d-" +
                                                         std::to_string(k))));
  }
  const std::size_t expected = system.expected_deliveries(dsts);
  ASSERT_TRUE(
      system.await_total_deliveries(expected, std::chrono::minutes(3)));
  system.stop();

  PropertyInput in;
  in.log = &system.delivery_log();
  in.sent = sent;
  for (const GroupId g : targets) {
    auto& grp = system.system().group(g);
    for (const int i : grp.correct_indices()) {
      in.correct_replicas[g].push_back(grp.replica(i).id());
    }
  }
  EXPECT_TRUE(check_integrity(in));
  EXPECT_TRUE(check_validity_agreement(in));
  EXPECT_TRUE(check_prefix_order(in));
  EXPECT_TRUE(check_acyclic_order(in));
}

TEST(RuntimeSystem, SingleGroupTreeSatisfiesProperties) {
  // The degenerate tree (one target group, no auxiliary root) under a closed
  // loop: each client re-issues from its own completion, on its own worker.
  constexpr int kClients = 2;
  constexpr int kMsgsPerClient = 40;
  const GroupId target{0};
  // The loop state is declared before the system so that it outlives the
  // workers even when an assertion returns early. Slot c is touched only by
  // client c's worker until every completion is in; the atomic count orders
  // those writes before the reads below.
  std::vector<core::Client*> clients;
  std::vector<int> issued(kClients, 0);
  std::atomic<int> completions{0};
  std::function<void(int)> issue = [&](int c) {
    int& k = issued[static_cast<std::size_t>(c)];
    if (k == kMsgsPerClient) return;
    const Bytes payload =
        to_bytes("s-" + std::to_string(c) + "-" + std::to_string(k++));
    clients[static_cast<std::size_t>(c)]->a_multicast(
        {target}, payload, [&, c](const core::MulticastMessage&, Time) {
          completions.fetch_add(1);
          issue(c);
        });
  };
  ParallelOptions opts;
  opts.runtime.seed = 13;
  ParallelSystem system(core::OverlayTree::single(target), /*f=*/1, opts);
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(&system.add_client("client" + std::to_string(c)));
  }
  system.start();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(system.env().run_on(clients[static_cast<std::size_t>(c)]->id(),
                                    [&issue, c] { issue(c); }));
  }
  const int total = kClients * kMsgsPerClient;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(3);
  while (completions.load() < total &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(completions.load(), total);

  std::vector<SentMessage> sent;
  std::vector<std::vector<GroupId>> dsts;
  for (const core::Client* client : clients) {
    for (int k = 0; k < kMsgsPerClient; ++k) {
      sent.push_back(SentMessage{
          MessageId{client->id(), static_cast<std::uint64_t>(k)}, {target}});
      dsts.push_back({target});
    }
  }
  const std::size_t expected = system.expected_deliveries(dsts);
  ASSERT_TRUE(
      system.await_total_deliveries(expected, std::chrono::minutes(3)));
  system.stop();

  PropertyInput in;
  in.log = &system.delivery_log();
  in.sent = sent;
  auto& grp = system.system().group(target);
  for (const int i : grp.correct_indices()) {
    in.correct_replicas[target].push_back(grp.replica(i).id());
  }
  EXPECT_TRUE(check_integrity(in));
  EXPECT_TRUE(check_validity_agreement(in));
  EXPECT_TRUE(check_prefix_order(in));
  EXPECT_TRUE(check_acyclic_order(in));
  EXPECT_EQ(system.delivery_log().total_deliveries(), expected);
}

}  // namespace
}  // namespace byzcast::runtime
