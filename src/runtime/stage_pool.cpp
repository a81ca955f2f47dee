#include "runtime/stage_pool.hpp"

#include <utility>

#include "common/contracts.hpp"
#include "sim/actor.hpp"

namespace byzcast::runtime {

namespace {
/// Set while the calling thread is one of this process's exec shard workers.
thread_local bool t_in_exec_shard = false;
}  // namespace

StagePool::StagePool(std::uint32_t verify_workers, std::uint32_t exec_shards,
                     std::size_t mailbox_capacity, ThreadNetwork& network)
    : network_(network) {
  verify_boxes_.reserve(verify_workers);
  for (std::uint32_t i = 0; i < verify_workers; ++i) {
    verify_boxes_.push_back(
        std::make_unique<Mailbox<VerifyTask>>(mailbox_capacity));
  }
  exec_boxes_.reserve(exec_shards);
  for (std::uint32_t i = 0; i < exec_shards; ++i) {
    exec_boxes_.push_back(
        std::make_unique<Mailbox<std::function<void()>>>(mailbox_capacity));
  }
}

StagePool::~StagePool() { stop(); }

void StagePool::start() {
  BZC_EXPECTS(!started_);
  started_ = true;
  threads_.reserve(verify_boxes_.size() + exec_boxes_.size());
  for (std::size_t i = 0; i < verify_boxes_.size(); ++i) {
    threads_.emplace_back([this, i] { run_verify(i); });
  }
  for (std::size_t i = 0; i < exec_boxes_.size(); ++i) {
    threads_.emplace_back([this, i] { run_exec(i); });
  }
}

void StagePool::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& box : verify_boxes_) box->close();
  for (auto& box : exec_boxes_) box->close();
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
  threads_.clear();
}

void StagePool::run_verify(std::size_t index) {
  Mailbox<VerifyTask>& box = *verify_boxes_[index];
  std::vector<VerifyTask> batch;
  while (box.drain(batch)) {
    for (VerifyTask& task : batch) {
      if (const sim::Actor* owner = network_.actor_of(task.owner)) {
        owner->stage_preverify(task.msg);
      }
      // An owner detached meanwhile makes this a counted network drop.
      network_.deliver_verified(task.owner, std::move(task.msg));
    }
    batch.clear();
  }
}

void StagePool::submit_verify(ProcessId owner, sim::WireMessage msg) {
  BZC_EXPECTS(!verify_boxes_.empty());
  const std::size_t worker = static_cast<std::size_t>(
      next_verify_worker_.fetch_add(1, std::memory_order_relaxed) %
      verify_boxes_.size());
  // After stop() the push is dropped (teardown only; see the header).
  verify_boxes_[worker]->force_push(VerifyTask{owner, std::move(msg)});
}

void StagePool::run_exec(std::size_t index) {
  t_in_exec_shard = true;
  Mailbox<std::function<void()>>& box = *exec_boxes_[index];
  std::vector<std::function<void()>> batch;
  while (box.drain(batch)) {
    for (std::function<void()>& work : batch) {
      const std::function<void()> run = std::move(work);
      run();
    }
    batch.clear();
  }
  t_in_exec_shard = false;
}

void StagePool::submit_exec(std::uint64_t key, std::function<void()> work) {
  BZC_EXPECTS(!exec_boxes_.empty());
  const std::size_t shard = static_cast<std::size_t>(key % exec_boxes_.size());
  // After stop() the push is dropped (teardown only; see the header).
  exec_boxes_[shard]->force_push(std::move(work));
}

bool StagePool::in_exec_shard() const { return t_in_exec_shard; }

}  // namespace byzcast::runtime
