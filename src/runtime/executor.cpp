#include "runtime/executor.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace byzcast::runtime {

namespace {

// Identity of the worker running the current thread. A plain thread_local:
// one executor's workers never run inside another's, and the pointer pair
// lets post() recognize self-posts even with several executors alive (tests
// construct more than one).
struct WorkerContext {
  const Executor* executor = nullptr;
  std::size_t index = Executor::npos;
  std::vector<Executor::Task>* local = nullptr;
};

thread_local WorkerContext t_ctx;

}  // namespace

Executor::Executor(std::size_t workers, std::size_t mailbox_capacity) {
  BZC_EXPECTS(workers > 0);
  mailboxes_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    mailboxes_.push_back(std::make_unique<Mailbox<Task>>(mailbox_capacity));
  }
}

Executor::~Executor() { stop(); }

void Executor::set_delivery_sink(DeliverySink* sink) {
  BZC_EXPECTS(!started_);
  sink_ = sink;
}

void Executor::start() {
  if (started_) return;
  started_ = true;
  threads_.reserve(mailboxes_.size());
  for (std::size_t i = 0; i < mailboxes_.size(); ++i) {
    threads_.emplace_back([this, i] { run(i); });
  }
}

void Executor::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& mb : mailboxes_) mb->close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

std::size_t Executor::current_worker() const {
  return t_ctx.executor == this ? t_ctx.index : npos;
}

bool Executor::post(std::size_t worker, Closure fn) {
  return post_task(worker, Task{std::move(fn), {}, {}, false});
}

bool Executor::post(std::size_t worker, ProcessId to, sim::WireMessage msg,
                    bool verified) {
  BZC_EXPECTS(sink_ != nullptr);
  return post_task(worker, Task{nullptr, to, std::move(msg), verified});
}

bool Executor::post_task(std::size_t worker, Task task) {
  BZC_EXPECTS(worker < mailboxes_.size());
  if (t_ctx.executor == this && t_ctx.index == worker) {
    // Self-post: run-queue jump keeps drain continuations ahead of the rest
    // of the batch and cannot block on our own capacity.
    t_ctx.local->push_back(std::move(task));
    return true;
  }
  return mailboxes_[worker]->force_push(std::move(task));
}

bool Executor::post_external(std::size_t worker, Closure fn) {
  BZC_EXPECTS(worker < mailboxes_.size());
  BZC_EXPECTS(t_ctx.executor == nullptr);  // workers must never block here
  return mailboxes_[worker]->push(Task{std::move(fn), {}, {}, false});
}

void Executor::run_task(Task& task) {
  if (task.fn) {
    // Moved out so the closure's captures die when it returns, not when
    // the batch is cleared.
    const Closure fn = std::move(task.fn);
    fn();
  } else {
    sink_->deliver(task.to, std::move(task.msg), task.verified);
  }
}

void Executor::run(std::size_t index) {
  std::vector<Task> batch;
  std::vector<Task> local;
  t_ctx = WorkerContext{this, index, &local};
  Mailbox<Task>& mailbox = *mailboxes_[index];
  while (mailbox.drain(batch)) {  // false: closed and drained
    for (Task& task : batch) {
      run_task(task);
      // Self-posts run before the rest of the batch; a self-post may post
      // again, so index (push_back may reallocate) and move out first.
      for (std::size_t i = 0; i < local.size(); ++i) {
        Task next = std::move(local[i]);
        run_task(next);
      }
      local.clear();
    }
    batch.clear();
  }
  t_ctx = WorkerContext{};
}

}  // namespace byzcast::runtime
