// Consensus pipelining: up to pipeline_depth instances run WRITE/ACCEPT
// concurrently, decisions apply strictly in instance order, the adaptive
// batch target cuts full batches early (stale assembly timers are dropped),
// and a leader crash with a window of open instances recovers every one of
// them through the multi-instance STOPDATA/SYNC path without gaps,
// duplicates or FIFO violations.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bft/client_proxy.hpp"
#include "bft/group.hpp"
#include "sim/simulation.hpp"
#include "support/recording_app.hpp"

namespace byzcast::bft {
namespace {

using ::byzcast::testing::ExecutionTrace;
using ::byzcast::testing::recording_factory;

/// Open-loop sender: fires `n` requests at the group in one burst, so the
/// leader's backlog stays deep enough to keep the pipeline full.
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

/// Per-origin FIFO + no duplicates over one replica's execution trace.
void expect_fifo_no_duplicates(const ExecutionTrace& trace) {
  std::map<ProcessId, std::uint64_t> next_seq;
  for (const auto& rec : trace) {
    const auto it = next_seq.emplace(rec.origin, 0).first;
    EXPECT_EQ(rec.seq, it->second)
        << "origin " << to_string(rec.origin) << " out of FIFO order";
    ++it->second;
  }
}

void expect_traces_agree(const Group& group,
                         std::map<int, ExecutionTrace>& traces) {
  const auto correct = group.correct_indices();
  ASSERT_GE(correct.size(), 3u);
  const auto& reference = traces[correct.front()];
  for (const int i : correct) {
    ASSERT_EQ(traces[i].size(), reference.size()) << "replica " << i;
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_EQ(traces[i][k].origin, reference[k].origin) << "pos " << k;
      EXPECT_EQ(traces[i][k].seq, reference[k].seq) << "pos " << k;
      EXPECT_EQ(traces[i][k].op, reference[k].op) << "pos " << k;
    }
  }
}

TEST(Pipeline, OverlappingInstancesUnderBurst) {
  sim::Profile profile = sim::Profile::lan();
  profile.batch_max = 10;
  profile.pipeline_depth = 4;
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(91, profile);
  Group group(sim, GroupId{0}, 1, recording_factory(traces, /*reply=*/false));

  Burst burst(sim, group.info());
  burst.fire(200);
  sim.run_until(60 * kSecond);

  const Replica& leader = group.replica(0);
  EXPECT_EQ(leader.executed_requests(), 200u);
  // The backlog outpaces decisions, so several instances must have been in
  // flight at once — the sequential protocol caps this at 1.
  EXPECT_GE(leader.pipeline_high_water(), 2u);
  // Full backlog + batch_max=10: every cut is a full early cut, 20 exactly.
  // If a superseded assembly timer ever fired (the pre-guard bug), it would
  // cut an extra partial batch and this count would exceed 20.
  EXPECT_EQ(leader.decided_instances(), 20u);
  EXPECT_GE(leader.counters().early_batch_cuts, 19u);
  // Every early cut supersedes an armed assembly window whose timer later
  // fires into a bumped epoch and must be dropped.
  EXPECT_GE(leader.counters().stale_window_drops, 1u);
  expect_traces_agree(group, traces);
  for (const int i : group.correct_indices()) {
    expect_fifo_no_duplicates(traces[i]);
  }
}

TEST(Pipeline, DepthOneReproducesSequentialProtocol) {
  sim::Profile profile = sim::Profile::lan();
  profile.batch_max = 10;
  profile.pipeline_depth = 1;
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(92, profile);
  Group group(sim, GroupId{0}, 1, recording_factory(traces, /*reply=*/false));

  Burst burst(sim, group.info());
  burst.fire(200);
  sim.run_until(60 * kSecond);

  const Replica& leader = group.replica(0);
  EXPECT_EQ(leader.executed_requests(), 200u);
  EXPECT_EQ(leader.pipeline_high_water(), 1u);
  // One instance at a time: quorums can never complete out of order.
  EXPECT_EQ(leader.counters().buffered_decisions, 0u);
  EXPECT_EQ(leader.decided_instances(), 20u);
  expect_traces_agree(group, traces);
}

TEST(Pipeline, StaleTimerQuietWithoutEarlyCuts) {
  // A lone request never fills the batch target, so the only cut is the
  // assembly timer's own — no window is ever superseded and the stale-drop
  // counter must stay at zero (the guard is inert on the slow path).
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(93, sim::Profile::lan());
  Group group(sim, GroupId{0}, 1, recording_factory(traces));
  ClientProxy client(sim, group.info(), "solo");
  Time latency = -1;
  client.invoke(to_bytes("solo"), [&](const Bytes&, Time l) { latency = l; });
  sim.run_until(10 * kSecond);
  ASSERT_GE(latency, 0);
  const Replica& leader = group.replica(0);
  EXPECT_EQ(leader.counters().stale_window_drops, 0u);
  EXPECT_GE(leader.counters().timer_batch_cuts, 1u);
  EXPECT_EQ(leader.counters().early_batch_cuts, 0u);
}

TEST(Pipeline, BatchTimeoutCutsPartialBatchSooner) {
  // With batch_timeout well under the preset's 1.6 ms window, a lone
  // request decides measurably faster than under the default window.
  Time latency_default = -1;
  Time latency_fast = -1;
  for (const bool fast : {false, true}) {
    sim::Profile profile = sim::Profile::lan();
    if (fast) profile.batch_timeout = 200 * kMicrosecond;
    std::map<int, ExecutionTrace> traces;
    sim::Simulation sim(94, profile);
    Group group(sim, GroupId{0}, 1, recording_factory(traces));
    ClientProxy client(sim, group.info(), "solo");
    client.invoke(to_bytes("solo"), [&](const Bytes&, Time l) {
      (fast ? latency_fast : latency_default) = l;
    });
    sim.run_until(10 * kSecond);
  }
  ASSERT_GE(latency_default, 0);
  ASSERT_GE(latency_fast, 0);
  // The shorter assembly window shaves most of the preset window off the
  // wait (the proposal CPU itself is still paid).
  EXPECT_LT(latency_fast, latency_default);
}

TEST(Pipeline, LeaderCrashMidPipelineReproposesOpenWindow) {
  // Crash the leader while several instances are in flight. A partition
  // between replicas 2 and 3 (healed shortly after) keeps the last proposals
  // from reaching an ACCEPT quorum, so the new leader inherits genuinely
  // open instances and must re-propose them through the multi-instance
  // STOPDATA/SYNC path — in order, without gaps or duplicates.
  for (const Time crash_at : {3 * kMillisecond, 4 * kMillisecond,
                              5 * kMillisecond}) {
    sim::Profile profile = sim::Profile::lan();
    profile.batch_max = 5;
    profile.pipeline_depth = 4;
    std::vector<FaultSpec> faults(4);
    faults[0].silent_after = crash_at;
    std::map<int, ExecutionTrace> traces;
    sim::Simulation sim(95, profile);
    Group group(sim, GroupId{0}, 1,
                recording_factory(traces, /*reply=*/false), faults);
    const auto replicas = group.info().replicas();
    sim.network().faults().partition({replicas[2]}, {replicas[3]},
                                     /*heal_at=*/crash_at +
                                         100 * kMillisecond);

    Burst burst(sim, group.info());
    burst.fire(40);
    sim.run_until(120 * kSecond);

    for (const int i : group.correct_indices()) {
      EXPECT_EQ(traces[i].size(), 40u)
          << "replica " << i << " crash_at " << crash_at;
      EXPECT_GE(group.replica(i).counters().views_installed, 1u)
          << "replica " << i;
      expect_fifo_no_duplicates(traces[i]);
    }
    expect_traces_agree(group, traces);
  }
}

TEST(Pipeline, CutBatchSizingMatchesAcrossPaths) {
  // Satellite regression for the extracted cut_batch(): the view-change
  // re-propose path must cut batches with exactly the same sizing rule as
  // do_propose. A leader crash with a deep backlog forces the new leader to
  // cut its first post-crash batch on the SYNC path; every decided batch —
  // whichever path cut it — must respect batch_max.
  sim::Profile profile = sim::Profile::lan();
  profile.batch_max = 5;
  profile.pipeline_depth = 1;
  std::vector<FaultSpec> faults(4);
  faults[0].silent_after = 4 * kMillisecond;
  std::map<int, ExecutionTrace> traces;
  sim::Simulation sim(96, profile);
  Group group(sim, GroupId{0}, 1, recording_factory(traces, /*reply=*/false),
              faults);

  Burst burst(sim, group.info());
  burst.fire(23);
  sim.run_until(120 * kSecond);

  for (const int i : group.correct_indices()) {
    const Replica& rep = group.replica(i);
    ASSERT_EQ(traces[i].size(), 23u) << "replica " << i;
    EXPECT_GE(rep.counters().views_installed, 1u) << "replica " << i;
    // If the re-propose path skipped the shared helper, the crashed leader's
    // 18-request leftover backlog would surface as one oversized batch.
    EXPECT_LE(rep.max_decided_batch(), 5u) << "replica " << i;
    expect_fifo_no_duplicates(traces[i]);
  }
  expect_traces_agree(group, traces);
}

}  // namespace
}  // namespace byzcast::bft
