// Executor: a fixed pool of worker threads, each owning one bounded MPSC
// mailbox of tasks. Every actor is pinned to exactly one worker, so all of
// an actor's message handling and timer callbacks run on that worker — the
// per-actor serialization the protocol code was written against, with
// parallelism *across* actors on different workers.
//
// A task is either a wire delivery or a closure. A delivery carries the
// message as data (destination, WireMessage, verified mark) and runs through
// the executor's DeliverySink on the destination's worker — the per-hop path
// allocates no closure. Closures are for timers, edge posts and drain
// continuations.
//
// Posting rules (see Mailbox for the blocking disciplines):
//  * post() from the target's own worker thread goes to a thread-local run
//    queue, not the mailbox — a worker must never block on its own full
//    mailbox, and drain continuations (scheduled with zero delay) must run
//    before the rest of the batch to preserve the actor drain discipline.
//  * post() from any other thread force-pushes (interior traffic).
//  * post_external() blocks while full: the backpressure edge for load
//    injectors.
//
// A worker drains its whole mailbox per lock and runs the batch in order.
// stop() closes all mailboxes, lets each worker drain what is already
// queued, and joins. Tasks posted after stop() are dropped (false).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "runtime/mailbox.hpp"
#include "sim/wire.hpp"

namespace byzcast::runtime {

class Executor {
 public:
  using Closure = std::function<void()>;

  /// Runs wire deliveries on the destination's worker (ThreadNetwork).
  class DeliverySink {
   public:
    /// `verified`: the message already passed the verify stage.
    virtual void deliver(ProcessId to, sim::WireMessage msg,
                         bool verified) = 0;

   protected:
    ~DeliverySink() = default;
  };

  /// One unit of work: `fn` when set, else a delivery of `msg` to `to`.
  struct Task {
    Closure fn;
    ProcessId to;
    sim::WireMessage msg;
    bool verified = false;
  };

  static constexpr std::size_t kDefaultMailboxCapacity = 4096;

  explicit Executor(std::size_t workers,
                    std::size_t mailbox_capacity = kDefaultMailboxCapacity);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Where deliveries run; set once, before start().
  void set_delivery_sink(DeliverySink* sink);

  void start();
  /// Idempotent; drains queued tasks, then joins all workers.
  void stop();

  [[nodiscard]] std::size_t workers() const { return mailboxes_.size(); }

  /// Runs `fn` on worker `worker`. Never blocks. Returns false iff the
  /// executor is stopped (task dropped).
  bool post(std::size_t worker, Closure fn);
  /// Delivers `msg` to `to` on worker `worker`. Never blocks; false iff
  /// stopped.
  bool post(std::size_t worker, ProcessId to, sim::WireMessage msg,
            bool verified);

  /// Blocking bounded post for threads outside the pool (the load edge).
  /// Returns false iff stopped.
  bool post_external(std::size_t worker, Closure fn);

  /// Index of the worker running the calling thread, or npos for outside
  /// threads.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t current_worker() const;

 private:
  bool post_task(std::size_t worker, Task task);
  void run(std::size_t index);
  void run_task(Task& task);

  DeliverySink* sink_ = nullptr;
  std::vector<std::unique_ptr<Mailbox<Task>>> mailboxes_;
  std::vector<std::thread> threads_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace byzcast::runtime
