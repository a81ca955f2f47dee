// ThreadNetwork: the wall-clock implementation of the ExecutionEnv message
// seam. Where sim::Network turns a send into a scheduler event, this turns
// it into a delivery task — the message as data, no closure — posted to the
// destination actor's executor worker, so delivery runs serialized with
// everything else that actor does. An optional fixed one-way delay routes
// the post through the timing wheel, modelling a network where real threads
// still do the real work but messages take real time to cross.
//
// Routing is lock-free: RuntimeEnv pids are dense from 0, so the route table
// is a segmented array indexed by pid. Segment k holds kFirstSegment << k
// slots and is allocated, under the attach lock, when the first pid in it
// attaches; a published segment never moves, so readers (any thread) index
// it with two atomic loads. A slot is attached once and detached once (pids
// are never reused).
//
// The destination actor is re-resolved at delivery time (on its own worker):
// a message in flight toward an actor that detached meanwhile counts as a
// drop, never a dangling pointer — the exact rule sim::Network applies.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "common/types.hpp"
#include "runtime/executor.hpp"
#include "runtime/timer_wheel.hpp"
#include "sim/wire.hpp"

namespace byzcast::sim {
class Actor;
}  // namespace byzcast::sim

namespace byzcast::runtime {

class ThreadNetwork final : public Executor::DeliverySink {
 public:
  /// `delay` is the injected one-way latency for every message; 0 delivers
  /// as soon as the destination worker gets to the task. Registers itself
  /// as `executor`'s delivery sink.
  ThreadNetwork(Executor& executor, TimerWheel& wheel, Time delay);
  ~ThreadNetwork();

  ThreadNetwork(const ThreadNetwork&) = delete;
  ThreadNetwork& operator=(const ThreadNetwork&) = delete;

  /// Registers `actor`, pinned to `worker`. Thread-safe; each pid attaches
  /// at most once.
  void attach(ProcessId id, sim::Actor* actor, std::size_t worker);
  void detach(ProcessId id);

  /// Routes toward msg.to from any thread. Unknown destinations drop.
  void send(sim::WireMessage msg);

  /// Hands a message that passed the verify stage back to `owner`'s lane
  /// (Actor::enqueue_verified). No injected delay; an owner detached
  /// meanwhile counts as a drop.
  void deliver_verified(ProcessId owner, sim::WireMessage msg);

  /// Worker an attached actor is pinned to; Executor::npos if unknown.
  [[nodiscard]] std::size_t worker_of(ProcessId id) const;
  /// The attached actor, or null. The pointer stays valid while the
  /// executor runs: actors are destroyed only after the env stops.
  [[nodiscard]] sim::Actor* actor_of(ProcessId id) const;

  [[nodiscard]] std::uint64_t sent() const {
    return sent_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct Route {
    std::atomic<sim::Actor*> actor{nullptr};
    /// Written once, before `actor` is published (release).
    std::size_t worker = Executor::npos;
  };

  static constexpr std::size_t kFirstSegment = 16;
  /// 16 * (2^28 - 1) slots: every non-negative 32-bit pid.
  static constexpr std::size_t kSegments = 28;

  /// The route slot for `id`, or null when its segment is not allocated.
  [[nodiscard]] Route* find(ProcessId id) const;
  /// Posts a delivery to `to`'s worker; counts a drop when `to` is unknown
  /// or the executor stopped.
  void route(ProcessId to, sim::WireMessage msg, bool verified);
  void deliver(ProcessId to, sim::WireMessage msg, bool verified) override;

  Executor& executor_;
  TimerWheel& wheel_;
  const Time delay_;

  std::mutex attach_mu_;  // serializes segment allocation and attach
  std::array<std::atomic<Route*>, kSegments> segments_{};

  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> bytes_{0};
};

}  // namespace byzcast::runtime
