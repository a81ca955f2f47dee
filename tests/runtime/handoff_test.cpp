// Hand-off invariants of the runtime backend below the protocol: verify
// results re-enter their owner in send order although the pool finishes out
// of order, and the lock-free route table turns sends to detached pids into
// counted drops while actors attach and detach under load. (Both suites are
// in the ThreadSanitizer CI filter.)
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/multicast.hpp"
#include "runtime/env.hpp"
#include "runtime/parallel_system.hpp"
#include "sim/actor.hpp"

namespace byzcast::runtime {
namespace {

/// Polls `pred` until it holds or `timeout` passes.
template <typename Pred>
bool wait_for(Pred pred, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

Buffer numbered(std::uint32_t seq, std::size_t size) {
  Bytes b(size, 0x5a);
  std::memcpy(b.data(), &seq, sizeof seq);
  return Buffer{std::move(b)};
}

std::uint32_t seq_of(const sim::WireMessage& m) {
  std::uint32_t seq = 0;
  std::memcpy(&seq, m.payload.data(), sizeof seq);
  return seq;
}

/// Sends on request; receives by counting (and, when staged, recording the
/// sequence number and verify verdict of each message in handling order).
class Probe final : public sim::Actor {
 public:
  Probe(sim::ExecutionEnv& env, bool staged)
      : Actor(env, "probe"), staged_(staged) {}

  void send_to(ProcessId to, Buffer payload) { send(to, std::move(payload)); }
  /// Sends with a MAC that cannot verify.
  void send_forged(ProcessId to, Buffer payload) {
    sim::WireMessage msg;
    msg.from = id();
    msg.to = to;
    msg.payload = std::move(payload);
    env().send_message(std::move(msg));
  }

  std::vector<std::pair<std::uint32_t, int>> seen;  // (seq, verdict)
  std::atomic<std::uint64_t> received{0};

 protected:
  void on_message(const sim::WireMessage& m) override {
    if (staged_) seen.emplace_back(seq_of(m), m.verify_verdict);
    received.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] bool stage_verifiable(const sim::WireMessage&) const override {
    return staged_;
  }

 private:
  const bool staged_;
};

RuntimeOptions options(std::size_t workers) {
  RuntimeOptions opts;
  opts.workers = workers;
  opts.seed = 3;
  return opts;
}

TEST(StagePoolVerifyOrder, FanOutReleasesInSendOrderWithBadMacInPlace) {
  RuntimeOptions opts = options(2);
  opts.profile.fast_macs = false;  // real HMAC: 64 KiB takes far longer
  opts.profile.verify_workers = 4;
  RuntimeEnv env(opts);
  env.set_placement_domain(0);
  Probe sender(env, /*staged=*/false);
  env.set_placement_domain(1);
  Probe receiver(env, /*staged=*/true);
  env.start();

  // Alternating 64 B / 64 KiB payloads, round-robined over four workers:
  // a small one finishes long before the large one submitted just ahead.
  constexpr std::uint32_t kMessages = 96;
  constexpr std::uint32_t kForged = 41;
  ASSERT_TRUE(env.run_on(sender.id(), [&] {
    for (std::uint32_t seq = 0; seq < kMessages; ++seq) {
      Buffer payload = numbered(seq, seq % 2 == 0 ? 64 : 64 * 1024);
      if (seq == kForged) {
        sender.send_forged(receiver.id(), std::move(payload));
      } else {
        sender.send_to(receiver.id(), std::move(payload));
      }
    }
  }));
  ASSERT_TRUE(wait_for([&] { return receiver.received.load() == kMessages; },
                       std::chrono::seconds(60)));
  env.stop();

  ASSERT_EQ(receiver.seen.size(), kMessages);
  for (std::uint32_t i = 0; i < kMessages; ++i) {
    EXPECT_EQ(receiver.seen[i].first, i) << "position " << i;
    EXPECT_EQ(receiver.seen[i].second, i == kForged ? -1 : 1)
        << "seq " << receiver.seen[i].first;
  }
  EXPECT_EQ(env.network().dropped(), 0u);
}

TEST(ThreadNetworkRouting, SendToDetachedPidCountsAsDrop) {
  RuntimeEnv env(options(1));
  auto gone = std::make_unique<Probe>(env, false);
  auto in_flight = std::make_unique<Probe>(env, false);
  const ProcessId gone_id = gone->id();
  const ProcessId in_flight_id = in_flight->id();
  env.start();

  // Detached before the send: dropped at routing time.
  gone.reset();
  sim::WireMessage msg;
  msg.to = gone_id;
  env.send_message(msg);
  EXPECT_EQ(env.network().dropped(), 1u);

  // Detached while the delivery waits in the worker's mailbox: dropped when
  // the worker re-resolves the route.
  std::atomic<bool> release{false};
  std::atomic<bool> blocked{false};
  ASSERT_TRUE(env.run_on(in_flight_id, [&] {
    blocked.store(true);
    while (!release.load()) std::this_thread::yield();
  }));
  ASSERT_TRUE(wait_for([&] { return blocked.load(); },
                       std::chrono::seconds(30)));
  msg.to = in_flight_id;
  env.send_message(msg);
  in_flight.reset();
  release.store(true);
  ASSERT_TRUE(wait_for([&] { return env.network().dropped() == 2; },
                       std::chrono::seconds(30)));
  env.stop();
  EXPECT_EQ(env.network().sent(), 2u);
}

TEST(ThreadNetworkRouting, ClientAttachedAfterStartGetsReplies) {
  ParallelOptions opts;
  opts.runtime.seed = 5;
  ParallelSystem system(
      core::OverlayTree::two_level({GroupId{0}, GroupId{1}}, GroupId{100}),
      /*f=*/1, opts);
  system.start();
  // Created while every worker runs: its route is published concurrently
  // with lookups by the replicas' workers.
  core::Client& late = system.add_client("late");
  std::atomic<int> completions{0};
  for (int k = 0; k < 3; ++k) {
    ASSERT_TRUE(system.a_multicast(
        late, {GroupId{0}, GroupId{1}}, to_bytes("late-" + std::to_string(k)),
        [&completions](const core::MulticastMessage&, Time) {
          completions.fetch_add(1);
        }));
  }
  EXPECT_TRUE(wait_for([&] { return completions.load() == 3; },
                       std::chrono::minutes(2)))
      << completions.load() << "/3 completions";
  system.stop();
  EXPECT_EQ(system.env().network().dropped(), 0u);
}

TEST(ThreadNetworkRouting, AttachAndDetachUnderConcurrentSends) {
  // Senders on workers 0-1 send to a steady sink, to a victim that detaches
  // mid-run and to a newcomer that attaches mid-run (up to 16 pids later, so
  // its route lands in a fresh segment). Every message is either handled
  // or counted as a drop.
  RuntimeEnv env(options(4));
  std::vector<std::unique_ptr<Probe>> senders;
  for (int d = 0; d < 2; ++d) {
    env.set_placement_domain(d);
    senders.push_back(std::make_unique<Probe>(env, false));
  }
  env.set_placement_domain(2);
  Probe sink(env, false);
  env.set_placement_domain(3);
  auto victim = std::make_unique<Probe>(env, false);
  const ProcessId victim_id = victim->id();
  env.start();

  std::atomic<std::int32_t> newcomer_pid{-1};
  std::atomic<bool> stop{false};
  std::atomic<int> running{0};
  // A bound in case the test fails while senders still run.
  constexpr int kMaxPerSender = 1'000'000;
  for (auto& s : senders) {
    Probe* sender = s.get();
    ASSERT_TRUE(env.run_on(sender->id(), [&, sender] {
      running.fetch_add(1);
      for (int i = 0; i < kMaxPerSender && !stop.load(); ++i) {
        sender->send_to(sink.id(), numbered(0, 16));
        sender->send_to(victim_id, numbered(0, 16));
        if (const std::int32_t pid = newcomer_pid.load(); pid >= 0) {
          sender->send_to(ProcessId{pid}, numbered(0, 16));
        }
      }
    }));
  }
  ASSERT_TRUE(wait_for([&] { return running.load() == 2; },
                       std::chrono::seconds(30)));

  // Attach: burn pids into the next segment, then create the newcomer.
  for (int i = 0; i < 16; ++i) (void)env.allocate_pid();
  env.set_placement_domain(2);
  Probe newcomer(env, false);
  newcomer_pid.store(newcomer.id().value);
  // Detach: destroyed on its own worker, so no delivery to it runs
  // concurrently with its destructor.
  std::uint64_t victim_handled = 0;
  ASSERT_TRUE(env.run_on(victim_id, [&] {
    victim_handled = victim->received.load();
    victim.reset();
  }));
  const bool overlapped = wait_for(
      [&] {
        return newcomer.received.load() > 100 && env.network().dropped() > 0;
      },
      std::chrono::seconds(60));
  stop.store(true);
  env.stop();

  EXPECT_TRUE(overlapped) << "newcomer handled " << newcomer.received.load()
                          << ", dropped " << env.network().dropped();
  EXPECT_GT(sink.received.load(), 0u);
  EXPECT_EQ(sink.received.load() + newcomer.received.load() +
                victim_handled + env.network().dropped(),
            env.network().sent())
      << "every message sent is handled or counted as a drop";
}

}  // namespace
}  // namespace byzcast::runtime
