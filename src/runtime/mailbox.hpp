// Bounded multi-producer single-consumer mailbox: the inbox of one executor
// worker, verify worker or exec shard. Producers are other workers, the timer
// wheel and the load-injecting edge thread; the single consumer is the owning
// thread's run loop.
//
// Two producer entry points with different blocking disciplines:
//
//  * push()       — blocks while the mailbox is full. Only the *edge* (a
//                   thread outside the executor, e.g. the benchmark driver)
//                   may use it: blocking there is backpressure. A worker
//                   must never call it, or two full mailboxes pushing into
//                   each other deadlock.
//  * force_push() — never blocks; capacity is advisory for interior traffic
//                   (worker-to-worker sends, timer fires). Protocol traffic
//                   is bounded by the protocol itself once the edge is
//                   throttled, so the overshoot is small.
//
// The consumer takes everything queued in one drain() — one lock per batch,
// not per item — and runs it in order, so each producer's items stay FIFO
// across batches. A producer signals only when the consumer is parked, and
// drain() wakes blocked push() callers only when there are any. The queue
// and the consumer's batch are two vectors swapped under the lock, so in
// steady state a hand-off allocates nothing: each keeps its capacity.
// Capacity bounds the items queued and not yet drained; the batch being run
// does not count.
//
// close() wakes everyone; drain() then returns what is left, then false.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace byzcast::runtime {

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(std::size_t capacity) : capacity_(capacity) {
    BZC_EXPECTS(capacity > 0);
  }

  /// Blocking bounded push (edge producers only). Returns false iff the
  /// mailbox was closed — the item is dropped then.
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mu_);
    while (!closed_ && items_.size() >= capacity_) {
      ++blocked_producers_;
      not_full_.wait(lock);
      --blocked_producers_;
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    const bool wake = take_parked();
    lock.unlock();
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push that ignores capacity (interior producers: workers,
  /// timer wheel). Returns false iff closed.
  bool force_push(T item) {
    bool wake = false;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(item));
      wake = take_parked();
    }
    if (wake) not_empty_.notify_one();
    return true;
  }

  /// Blocks until items are queued or the mailbox is closed *and* drained.
  /// Swaps every queued item into `batch`, which must be empty (the caller
  /// clears it after running the batch, keeping its capacity); returns false
  /// only when closed and drained.
  bool drain(std::vector<T>& batch) {
    BZC_EXPECTS(batch.empty());
    std::unique_lock<std::mutex> lock(mu_);
    while (items_.empty() && !closed_) {
      consumer_parked_ = true;
      not_empty_.wait(lock);
    }
    consumer_parked_ = false;
    if (items_.empty()) return false;  // closed and drained
    batch.swap(items_);
    const bool wake_producers = blocked_producers_ > 0;
    lock.unlock();
    if (wake_producers) not_full_.notify_all();
    return true;
  }

  /// Rejects future pushes and wakes all waiters. Items already queued stay
  /// drainable (the consumer runs them before its loop exits).
  void close() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  /// Caller holds mu_. True (once) when the consumer is parked and must be
  /// signalled; later producers see it cleared and skip the syscall.
  bool take_parked() { return std::exchange(consumer_parked_, false); }

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> items_;
  bool consumer_parked_ = false;
  std::size_t blocked_producers_ = 0;
  bool closed_ = false;
};

}  // namespace byzcast::runtime
