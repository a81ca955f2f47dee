// Sim-vs-runtime equivalence over the zero-copy wire fabric: the same fixed
// workload is run on the deterministic simulator (twice — its DeliveryLog
// must be bit-for-bit identical across runs, so the shared-Buffer fan-out
// cannot have introduced nondeterminism) and on the wall-clock thread
// backend. Both logs must satisfy the §II-B atomic multicast properties and
// agree on *what* each group delivered; the runtime's interleaving may
// differ, which is exactly what the property checkers constrain.
// The stage-pipeline variant repeats the exercise with verify workers and
// exec shards on: the simulator's stage model must stay deterministic and
// deliver the same sets, and the runtime StagePool must not change
// delivered content.
// (Suite name matches the ThreadSanitizer CI filter via "RuntimeSystem".)
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/multicast.hpp"
#include "runtime/parallel_system.hpp"
#include "support/byzcast_harness.hpp"
#include "support/properties.hpp"

namespace byzcast::runtime {
namespace {

using testing::ByzCastHarness;
using testing::HarnessConfig;
using testing::PropertyInput;
using testing::SentMessage;
using testing::TreeKind;

constexpr int kClients = 2;

/// Per client: three locals and three globals over two target groups.
const std::vector<std::vector<GroupId>>& schedule() {
  static const std::vector<std::vector<GroupId>> kSchedule{
      {GroupId{0}},
      {GroupId{1}},
      {GroupId{0}, GroupId{1}},
      {GroupId{0}},
      {GroupId{0}, GroupId{1}},
      {GroupId{1}},
  };
  return kSchedule;
}

/// (group, client index, client-local seq): which message a group delivered,
/// independent of the backend's process-id assignment.
using DeliveredKey = std::tuple<std::int32_t, std::size_t, std::uint64_t>;

/// Raw delivery tuple for exact sim-vs-sim comparison (includes order and
/// virtual timestamps).
using RawRecord =
    std::tuple<std::int32_t, std::int32_t, std::int32_t, std::uint64_t,
               Time>;

struct SimRun {
  std::vector<RawRecord> raw;           // full log, in record order
  std::set<DeliveredKey> delivered;     // group-level delivered sets
};

SimRun run_sim(std::uint64_t seed,
               const sim::Profile& profile = sim::Profile::lan()) {
  HarnessConfig config;
  config.tree = TreeKind::kTwoLevel;
  config.num_targets = 2;
  config.f = 1;
  config.seed = seed;
  config.profile = profile;
  ByzCastHarness h(config);
  h.run_tracked(kClients, static_cast<int>(schedule().size()),
                [](int, int k, Rng&) {
                  return schedule()[static_cast<std::size_t>(k)];
                });
  EXPECT_EQ(h.completions,
            kClients * static_cast<int>(schedule().size()));
  testing::expect_atomic_multicast_properties(h.property_input());

  std::map<std::int32_t, std::size_t> client_index;
  for (std::size_t c = 0; c < h.clients.size(); ++c) {
    client_index[h.clients[c]->id().value] = c;
  }

  SimRun out;
  for (const auto& rec : h.system.delivery_log().records()) {
    out.raw.emplace_back(rec.group.value, rec.replica.value,
                         rec.msg.origin.value, rec.msg.seq, rec.when);
    const auto it = client_index.find(rec.msg.origin.value);
    if (it == client_index.end()) {
      ADD_FAILURE() << "delivery from unknown origin "
                    << rec.msg.origin.value;
      continue;
    }
    out.delivered.emplace(rec.group.value, it->second, rec.msg.seq);
  }
  return out;
}

/// The wall-clock backend, same fixed workload: checks the §II-B properties
/// and returns the delivered sets. `verify_workers`/`exec_shards` > 0 turn
/// the RuntimeEnv's StagePool on.
std::set<DeliveredKey> run_runtime(std::uint32_t verify_workers,
                                   std::uint32_t exec_shards) {
  const std::vector<GroupId> targets{GroupId{0}, GroupId{1}};
  ParallelOptions opts;
  opts.runtime.seed = 42;
  opts.runtime.profile.verify_workers = verify_workers;
  opts.runtime.profile.exec_shards = exec_shards;
  ParallelSystem system(core::OverlayTree::two_level(targets, GroupId{100}),
                        /*f=*/1, opts);
  std::vector<core::Client*> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(&system.add_client("client" + std::to_string(c)));
  }
  system.start();

  std::vector<SentMessage> sent;
  std::vector<std::vector<GroupId>> dsts;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (std::size_t k = 0; k < schedule().size(); ++k) {
      core::MulticastMessage canon;
      canon.dst = schedule()[k];
      canon.canonicalize();
      sent.push_back(SentMessage{
          MessageId{clients[c]->id(), static_cast<std::uint64_t>(k)},
          canon.dst});
      dsts.push_back(canon.dst);
      EXPECT_TRUE(system.a_multicast(
          *clients[c], canon.dst,
          to_bytes("m-" + std::to_string(c) + "-" + std::to_string(k))));
    }
  }
  const std::size_t expected = system.expected_deliveries(dsts);
  EXPECT_TRUE(
      system.await_total_deliveries(expected, std::chrono::minutes(3)))
      << system.delivery_log().total_deliveries() << "/" << expected;
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
  testing::expect_atomic_multicast_properties(in);

  std::map<std::int32_t, std::size_t> client_index;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    client_index[clients[c]->id().value] = c;
  }
  std::set<DeliveredKey> delivered;
  for (const auto& rec : system.delivery_log().records()) {
    const auto it = client_index.find(rec.msg.origin.value);
    EXPECT_NE(it, client_index.end());
    if (it == client_index.end()) continue;
    delivered.emplace(rec.group.value, it->second, rec.msg.seq);
  }
  return delivered;
}

TEST(RuntimeSystemEquivalence, SimIsDeterministicAndRuntimeDeliversSameSets) {
  // 1) Determinism: two sim runs with the same seed produce the same
  //    DeliveryLog record-for-record (order, replicas, timestamps). Shared
  //    payload buffers must not leak wall-clock state into the simulation.
  const SimRun sim_a = run_sim(/*seed=*/42);
  const SimRun sim_b = run_sim(/*seed=*/42);
  ASSERT_EQ(sim_a.raw.size(), sim_b.raw.size());
  EXPECT_EQ(sim_a.raw, sim_b.raw);

  // 2) The wall-clock backend, same workload: properties hold and every
  //    group a-delivers exactly the same message set as the simulator.
  EXPECT_EQ(run_runtime(/*verify_workers=*/0, /*exec_shards=*/0),
            sim_a.delivered);
}

TEST(RuntimeSystemEquivalence, StagePipelineIsDeterministicAndEquivalent) {
  const SimRun serial = run_sim(/*seed=*/42);

  // 1) The simulator's stage model (verify pool + exec-shard makespan) must
  //    be exactly as deterministic as the serial pipeline.
  sim::Profile staged = sim::Profile::lan();
  staged.verify_workers = 4;
  staged.exec_shards = 4;
  const SimRun stage_a = run_sim(/*seed=*/42, staged);
  const SimRun stage_b = run_sim(/*seed=*/42, staged);
  ASSERT_EQ(stage_a.raw.size(), stage_b.raw.size());
  EXPECT_EQ(stage_a.raw, stage_b.raw);

  // 2) Staging moves work between stages; it must not change WHAT each
  //    group delivers.
  EXPECT_EQ(stage_a.delivered, serial.delivered);

  // 3) Runtime with a real StagePool (4 verify workers, 2 exec shards):
  //    properties hold and delivered sets match the simulator's.
  EXPECT_EQ(run_runtime(/*verify_workers=*/4, /*exec_shards=*/2),
            serial.delivered);
}

}  // namespace
}  // namespace byzcast::runtime
