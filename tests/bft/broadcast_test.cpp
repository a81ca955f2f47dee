// End-to-end tests of one atomic broadcast group in the failure-free case:
// total order, agreement, integrity, client replies.
#include <gtest/gtest.h>

#include "bft/client_proxy.hpp"
#include "bft/group.hpp"
#include "sim/simulation.hpp"
#include "support/recording_app.hpp"

namespace byzcast::bft {
namespace {

using ::byzcast::testing::ExecutionTrace;
using ::byzcast::testing::recording_factory;

struct Harness {
  explicit Harness(int f = 1, std::uint64_t seed = 1)
      : sim(seed, sim::Profile::lan()),
        group(sim, GroupId{0}, f, recording_factory(traces)) {}

  /// Runs `per_client` closed-loop operations on `num_clients` clients.
  void run_clients(int num_clients, int per_client,
                   Time horizon = 30 * kSecond) {
    std::vector<std::unique_ptr<ClientProxy>> clients;
    std::vector<int> remaining(static_cast<std::size_t>(num_clients),
                               per_client);
    for (int c = 0; c < num_clients; ++c) {
      clients.push_back(std::make_unique<ClientProxy>(
          sim, group.info(), "client" + std::to_string(c)));
    }
    std::function<void(std::size_t)> issue = [&](std::size_t c) {
      if (remaining[c] == 0) return;
      --remaining[c];
      const std::string op = "op-" + std::to_string(c) + "-" +
                             std::to_string(remaining[c]);
      clients[c]->invoke(to_bytes(op), [&, c](const Bytes&, Time) {
        ++completions;
        issue(c);
      });
    };
    for (std::size_t c = 0; c < clients.size(); ++c) issue(c);
    sim.run_until(horizon);
  }

  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim;
  Group group;
  int completions = 0;
};

TEST(Broadcast, SingleClientSingleOp) {
  Harness h;
  h.run_clients(1, 1, 5 * kSecond);
  EXPECT_EQ(h.completions, 1);
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ(h.traces[i].size(), 1u) << "replica " << i;
    EXPECT_EQ(to_text(h.traces[i][0].op), "op-0-0");
  }
}

TEST(Broadcast, AllReplicasExecuteSameSequence) {
  Harness h;
  h.run_clients(5, 20);
  EXPECT_EQ(h.completions, 100);
  ASSERT_EQ(h.traces[0].size(), 100u);
  for (int i = 1; i < 4; ++i) {
    ASSERT_EQ(h.traces[i].size(), 100u);
    for (std::size_t k = 0; k < 100; ++k) {
      EXPECT_EQ(h.traces[i][k].origin, h.traces[0][k].origin);
      EXPECT_EQ(h.traces[i][k].seq, h.traces[0][k].seq);
      EXPECT_EQ(h.traces[i][k].op, h.traces[0][k].op);
    }
  }
}

TEST(Broadcast, HistoryDigestsAgree) {
  Harness h;
  h.run_clients(4, 25);
  const Digest d0 = h.group.replica(0).history_digest();
  for (int i = 1; i < 4; ++i) {
    EXPECT_EQ(h.group.replica(i).history_digest(), d0);
  }
  EXPECT_NE(d0, Digest{});
}

// The history digest is streamed into one SHA-256 context. Its value is the
// buffered formula, recomputed here: SHA-256 of a Writer holding the
// length-prefixed previous digest, the request id and the length-prefixed
// op, chained over the execution order. The ops include a 4 KiB one and an
// empty one.
TEST(Broadcast, HistoryDigestMatchesBufferedFormula) {
  Harness h;
  ClientProxy client(h.sim, h.group.info(), "client0");
  const std::vector<Bytes> ops = {to_bytes("first"), Bytes(4096, 0x7e),
                                  Bytes{}, to_bytes("last")};
  std::size_t next = 0;
  std::function<void()> issue = [&] {
    if (next == ops.size()) return;
    client.invoke(ops[next++], [&](const Bytes&, Time) { issue(); });
  };
  issue();
  h.sim.run_until(10 * kSecond);

  ASSERT_EQ(h.traces[0].size(), ops.size());
  Digest expected{};
  for (const auto& e : h.traces[0]) {
    Writer w;
    w.bytes(BytesView(expected.data(), expected.size()));
    w.message_id(MessageId{e.origin, e.seq});
    w.bytes(e.op);
    expected = Sha256::hash(w.data());
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(h.group.replica(i).history_digest(), expected) << "replica " << i;
  }
}

TEST(Broadcast, IntegrityEachRequestExecutedOnce) {
  Harness h;
  h.run_clients(3, 30);
  for (int i = 0; i < 4; ++i) {
    std::set<std::pair<std::int32_t, std::uint64_t>> seen;
    for (const auto& rec : h.traces[i]) {
      EXPECT_TRUE(seen.emplace(rec.origin.value, rec.seq).second)
          << "duplicate execution at replica " << i;
    }
  }
}

TEST(Broadcast, BatchingMergesConcurrentRequests) {
  Harness h;
  h.run_clients(50, 4);
  EXPECT_EQ(h.completions, 200);
  // 200 requests from 50 concurrent clients must take far fewer consensus
  // instances than requests (Mod-SMaRt batching).
  EXPECT_LT(h.group.replica(0).decided_instances(), 150u);
  EXPECT_GE(h.group.replica(0).executed_requests(), 200u);
}

TEST(Broadcast, WorksWithLargerGroups) {
  Harness h(/*f=*/2);
  ASSERT_EQ(h.group.n(), 7);
  h.run_clients(3, 10);
  EXPECT_EQ(h.completions, 30);
  const Digest d0 = h.group.replica(0).history_digest();
  for (int i = 1; i < 7; ++i) {
    EXPECT_EQ(h.group.replica(i).history_digest(), d0);
  }
}

TEST(Broadcast, SingleClientLatencyIsMilliseconds) {
  // Sanity-check the LAN calibration: a single client in an idle group
  // completes in single-digit milliseconds (paper Fig. 7: ~4 ms).
  Harness h;
  Time measured = -1;
  ClientProxy client(h.sim, h.group.info(), "solo");
  client.invoke(to_bytes("ping"),
                [&measured](const Bytes&, Time latency) {
                  measured = latency;
                });
  h.sim.run_until(5 * kSecond);
  ASSERT_GE(measured, 0);
  EXPECT_LT(measured, 20 * kMillisecond);
  EXPECT_GT(measured, 200 * kMicrosecond);
}

}  // namespace
}  // namespace byzcast::bft
