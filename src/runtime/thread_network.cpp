#include "runtime/thread_network.hpp"

#include <bit>
#include <utility>

#include "common/contracts.hpp"
#include "sim/actor.hpp"

namespace byzcast::runtime {

namespace {

/// (segment, offset) of slot `pid` when segment k holds first << k slots:
/// segment k starts at pid first * (2^k - 1), i.e. where pid + first
/// reaches first * 2^k.
struct SlotIndex {
  std::size_t segment;
  std::size_t offset;
};

template <std::size_t kFirst>
SlotIndex locate(ProcessId id) {
  static_assert(std::has_single_bit(kFirst));
  const std::size_t shifted = static_cast<std::size_t>(id.value) + kFirst;
  const std::size_t segment = static_cast<std::size_t>(
      std::bit_width(shifted) - std::bit_width(kFirst));
  return {segment, shifted - (kFirst << segment)};
}

}  // namespace

ThreadNetwork::ThreadNetwork(Executor& executor, TimerWheel& wheel,
                             Time delay)
    : executor_(executor), wheel_(wheel), delay_(delay) {
  BZC_EXPECTS(delay >= 0);
  executor_.set_delivery_sink(this);
}

ThreadNetwork::~ThreadNetwork() {
  for (auto& segment : segments_) delete[] segment.load();
}

ThreadNetwork::Route* ThreadNetwork::find(ProcessId id) const {
  if (!id.valid()) return nullptr;
  const SlotIndex at = locate<kFirstSegment>(id);
  Route* segment = segments_[at.segment].load(std::memory_order_acquire);
  return segment == nullptr ? nullptr : &segment[at.offset];
}

void ThreadNetwork::attach(ProcessId id, sim::Actor* actor,
                           std::size_t worker) {
  BZC_EXPECTS(actor != nullptr);
  BZC_EXPECTS(id.valid());
  BZC_EXPECTS(worker < executor_.workers());
  const std::lock_guard<std::mutex> lock(attach_mu_);
  const SlotIndex at = locate<kFirstSegment>(id);
  Route* segment = segments_[at.segment].load(std::memory_order_relaxed);
  if (segment == nullptr) {
    segment = new Route[kFirstSegment << at.segment];
    segments_[at.segment].store(segment, std::memory_order_release);
  }
  Route& slot = segment[at.offset];
  BZC_EXPECTS(slot.worker == Executor::npos);  // never attached before
  slot.worker = worker;
  slot.actor.store(actor, std::memory_order_release);
}

void ThreadNetwork::detach(ProcessId id) {
  if (Route* slot = find(id)) {
    slot->actor.store(nullptr, std::memory_order_release);
  }
}

sim::Actor* ThreadNetwork::actor_of(ProcessId id) const {
  const Route* slot = find(id);
  return slot == nullptr ? nullptr
                         : slot->actor.load(std::memory_order_acquire);
}

std::size_t ThreadNetwork::worker_of(ProcessId id) const {
  const Route* slot = find(id);
  if (slot == nullptr ||
      slot->actor.load(std::memory_order_acquire) == nullptr) {
    return Executor::npos;
  }
  return slot->worker;
}

void ThreadNetwork::send(sim::WireMessage msg) {
  sent_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(msg.payload.size(), std::memory_order_relaxed);
  if (delay_ == 0) {
    const ProcessId to = msg.to;
    route(to, std::move(msg), /*verified=*/false);
    return;
  }
  // The wheel fires on its tick thread; the callback only posts, so the
  // actual delivery work still happens on the destination worker.
  wheel_.schedule(delay_, [this, m = std::move(msg)]() mutable {
    const ProcessId to = m.to;
    route(to, std::move(m), /*verified=*/false);
  });
}

void ThreadNetwork::deliver_verified(ProcessId owner, sim::WireMessage msg) {
  route(owner, std::move(msg), /*verified=*/true);
}

void ThreadNetwork::route(ProcessId to, sim::WireMessage msg, bool verified) {
  const std::size_t worker = worker_of(to);
  if (worker == Executor::npos ||
      !executor_.post(worker, to, std::move(msg), verified)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ThreadNetwork::deliver(ProcessId to, sim::WireMessage msg,
                            bool verified) {
  sim::Actor* actor = actor_of(to);
  if (actor == nullptr) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // We are on the actor's own worker, and teardown stops the executor
  // before destroying actors.
  if (verified) {
    actor->enqueue_verified(std::move(msg));
  } else {
    actor->enqueue(std::move(msg));
  }
}

}  // namespace byzcast::runtime
