// Batching behaviour of the sequential consensus: the proposal-assembly
// window merges concurrent requests, batches respect batch_max, and
// throughput under load is far above the one-instance-per-request bound.
#include <gtest/gtest.h>

#include "bft/client_proxy.hpp"
#include "bft/group.hpp"
#include "sim/simulation.hpp"
#include "support/recording_app.hpp"

namespace byzcast::bft {
namespace {

using ::byzcast::testing::ExecutionTrace;
using ::byzcast::testing::recording_factory;

TEST(Batching, ConcurrentRequestsShareInstances) {
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(81, sim::Profile::lan());
  Group group(sim, GroupId{0}, 1, recording_factory(traces));

  // 30 clients, 10 ops each, closed loop.
  std::vector<std::unique_ptr<ClientProxy>> clients;
  std::vector<int> left(30, 10);
  for (int c = 0; c < 30; ++c) {
    clients.push_back(std::make_unique<ClientProxy>(
        sim, group.info(), "c" + std::to_string(c)));
  }
  std::function<void(std::size_t)> issue = [&](std::size_t c) {
    if (left[c]-- == 0) return;
    clients[c]->invoke(to_bytes("x"),
                       [&issue, c](const Bytes&, Time) { issue(c); });
  };
  for (std::size_t c = 0; c < clients.size(); ++c) issue(c);
  sim.run_until(60 * kSecond);

  const auto executed = group.replica(0).executed_requests();
  const auto instances = group.replica(0).decided_instances();
  EXPECT_EQ(executed, 300u);
  // The assembly window (Profile::batch_timeout) collects all closed-loop
  // clients: expect average batch size near the client count.
  EXPECT_LE(instances, 40u);
  EXPECT_GE(static_cast<double>(executed) / static_cast<double>(instances),
            8.0);
}

TEST(Batching, BatchMaxIsRespected) {
  sim::Profile profile = sim::Profile::lan();
  profile.batch_max = 5;
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(82, profile);
  Group group(sim, GroupId{0}, 1, recording_factory(traces, /*reply=*/false));

  // Open-loop burst of 50 requests from one sender: with batch_max = 5 at
  // least 10 instances are needed.
  class Burst final : public sim::Actor {
   public:
    Burst(sim::Simulation& sim, GroupInfo info)
        : Actor(sim, "burst"), info_(std::move(info)) {}
    void fire(int n) {
      for (int i = 0; i < n; ++i) {
        Request req;
        req.group = info_.id;
        req.origin = id();
        req.seq = static_cast<std::uint64_t>(i);
        req.op = to_bytes("b" + std::to_string(i));
        const Bytes encoded = encode_request(req);
        for (const ProcessId r : info_.replicas()) send(r, encoded);
      }
    }

   protected:
    void on_message(const sim::WireMessage&) override {}

   private:
    GroupInfo info_;
  };

  Burst burst(sim, group.info());
  burst.fire(50);
  sim.run_until(60 * kSecond);
  EXPECT_EQ(group.replica(0).executed_requests(), 50u);
  EXPECT_GE(group.replica(0).decided_instances(), 10u);
}

TEST(Batching, AdaptiveTargetShrinksUnderLightLoad) {
  // Control for the freeze test below: with adaptation on, a trickle of
  // closed-loop clients keeps every assembly window underfull, so the
  // target decays from batch_max toward the observed backlog.
  sim::Profile profile = sim::Profile::lan();
  profile.batch_max = 32;
  profile.batch_min = 1;
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(84, profile);
  Group group(sim, GroupId{0}, 1, recording_factory(traces));
  ClientProxy client(sim, group.info(), "light");
  std::function<void(int)> issue = [&](int left) {
    if (left == 0) return;
    client.invoke(to_bytes("x"),
                  [&issue, left](const Bytes&, Time) { issue(left - 1); });
  };
  issue(40);
  sim.run_until(60 * kSecond);
  EXPECT_EQ(group.replica(0).executed_requests(), 40u);
  EXPECT_LT(group.replica(0).batch_target(), 32u);
}

TEST(Batching, BatchAdaptOffFreezesTargetAtMax) {
  // Fixed batching is batch_min == batch_max: the same underfull trickle
  // must leave the target pinned at batch_max, so every cut waits out the
  // full window.
  sim::Profile profile = sim::Profile::lan();
  profile.batch_max = 32;
  profile.batch_min = 32;
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(84, profile);
  Group group(sim, GroupId{0}, 1, recording_factory(traces));
  ClientProxy client(sim, group.info(), "light");
  std::function<void(int)> issue = [&](int left) {
    if (left == 0) return;
    client.invoke(to_bytes("x"),
                  [&issue, left](const Bytes&, Time) { issue(left - 1); });
  };
  issue(40);
  sim.run_until(60 * kSecond);
  EXPECT_EQ(group.replica(0).executed_requests(), 40u);
  EXPECT_EQ(group.replica(0).batch_target(), 32u);
}

TEST(Batching, SingleRequestStillDecidesPromptly) {
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(83, sim::Profile::lan());
  Group group(sim, GroupId{0}, 1, recording_factory(traces));
  ClientProxy client(sim, group.info(), "solo");
  Time latency = -1;
  client.invoke(to_bytes("solo"),
                [&](const Bytes&, Time l) { latency = l; });
  sim.run_until(10 * kSecond);
  ASSERT_GE(latency, 0);
  // One assembly window + one consensus round, single-digit milliseconds.
  EXPECT_LT(latency, 10 * kMillisecond);
  EXPECT_EQ(group.replica(0).decided_instances(), 1u);
}

}  // namespace
}  // namespace byzcast::bft
