// StagePool: the runtime backend's implementation of sim::StageBackend.
//
// Two fixed thread pools hang off the RuntimeEnv next to the Executor:
//
//  * verify workers — each owns a bounded MPSC mailbox of verify tasks (the
//    owner and the message, as data). Submissions go round-robin on an
//    atomic counter; a worker runs the owner's Actor::stage_preverify and
//    posts the message back to the owner's executor lane. Workers finish
//    out of order; the owner's ticket frontier (sim::Actor) restores
//    submission order on its own lane, without a lock.
//  * exec shards — each owns a mailbox of deferred execute/reply closures,
//    keyed by destination key (key % shards), so work on one key is serial
//    while distinct keys run in parallel. Reply FIFO per origin is the
//    caller's job (bft::ExecBarrier); the shard only provides keyed serial
//    execution.
//
// Shutdown: stop() closes both pools' mailboxes and joins the workers
// (remaining queued tasks are drained, verified messages posted back). The
// owning RuntimeEnv stops the pool before the Executor, so every post-back
// still finds a live worker. A submission after stop() is dropped silently:
// that happens only at teardown, after the run reached quiescence.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/thread_network.hpp"
#include "sim/stages.hpp"
#include "sim/wire.hpp"

namespace byzcast::runtime {

class StagePool final : public sim::StageBackend {
 public:
  /// `network` resolves verify owners and carries results back to them.
  StagePool(std::uint32_t verify_workers, std::uint32_t exec_shards,
            std::size_t mailbox_capacity, ThreadNetwork& network);
  ~StagePool() override;

  StagePool(const StagePool&) = delete;
  StagePool& operator=(const StagePool&) = delete;

  void start();
  /// Idempotent: drains and joins both pools. Later submissions are
  /// dropped.
  void stop();

  // --- StageBackend --------------------------------------------------------
  [[nodiscard]] std::uint32_t verify_workers() const override {
    return static_cast<std::uint32_t>(verify_boxes_.size());
  }
  [[nodiscard]] std::uint32_t exec_shards() const override {
    return static_cast<std::uint32_t>(exec_boxes_.size());
  }
  void submit_verify(ProcessId owner, sim::WireMessage msg) override;
  void submit_exec(std::uint64_t key, std::function<void()> work) override;
  [[nodiscard]] bool in_exec_shard() const override;

 private:
  struct VerifyTask {
    ProcessId owner;
    sim::WireMessage msg;
  };

  void run_verify(std::size_t index);
  void run_exec(std::size_t index);

  ThreadNetwork& network_;
  std::vector<std::unique_ptr<Mailbox<VerifyTask>>> verify_boxes_;
  std::vector<std::unique_ptr<Mailbox<std::function<void()>>>> exec_boxes_;
  /// Round-robin dispatch of verify tasks across workers.
  std::atomic<std::uint64_t> next_verify_worker_{0};
  std::vector<std::thread> threads_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace byzcast::runtime
