// RuntimeEnv: the wall-clock, multi-threaded ExecutionEnv backend. The same
// bft::Replica / core::ByzCastNode code that runs on the deterministic
// simulator runs here on real threads: an Executor worker pool hosts the
// actors (pinned one placement domain per worker, round-robin when domains
// outnumber workers), a ThreadNetwork carries messages between them, and a
// TimerWheel fires protocol timeouts and injected latency.
//
// Lifecycle: construct → wire systems/actors → start() → drive load from the
// edge with run_on() → wait for quiescence (poll the DeliveryLog) → stop()
// → destroy actors. stop() halts the wheel first (no new timer fires), then
// the stage pool (verify/exec workers drain, verified messages posted into
// still-live executor lanes), then the executor (mailboxes close, workers
// drain and join), so by the time actors die no thread can touch them.
// Determinism is NOT preserved on this backend — runs are real concurrent
// executions; the property checkers, not golden traces, are the correctness
// oracle.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "common/auth.hpp"
#include "common/rng.hpp"
#include "common/span.hpp"
#include "runtime/executor.hpp"
#include "runtime/stage_pool.hpp"
#include "runtime/thread_network.hpp"
#include "runtime/timer_wheel.hpp"
#include "runtime/wall_clock.hpp"
#include "sim/env.hpp"
#include "sim/profile.hpp"

namespace byzcast::runtime {

struct RuntimeOptions {
  /// Worker threads. runtime::ParallelSystem resolves 0 (the default) to
  /// one worker per overlay group plus one for clients.
  std::size_t workers = 0;
  std::size_t mailbox_capacity = Executor::kDefaultMailboxCapacity;
  /// Injected one-way network latency (0: deliver as fast as threads go).
  Time net_delay = 0;
  /// Timer wheel resolution.
  Time tick = kMillisecond;
  std::uint64_t seed = 1;
  sim::Profile profile = sim::Profile::wallclock();
};

class RuntimeEnv final : public sim::ExecutionEnv {
 public:
  /// `opts.workers` must be >= 1 here (use ParallelSystem for the 0=auto
  /// convention).
  explicit RuntimeEnv(RuntimeOptions opts);
  ~RuntimeEnv() override;

  void start();
  /// Idempotent. Wheel, then stage pool, then executor: after stop() no
  /// thread runs actor code, so actors can be destroyed safely.
  void stop();

  // --- ExecutionEnv --------------------------------------------------------
  [[nodiscard]] Time now() const override { return clock_.now(); }
  [[nodiscard]] const sim::Profile& profile() const override {
    return opts_.profile;
  }
  [[nodiscard]] std::shared_ptr<const KeyStore> keys() const override {
    return keys_;
  }
  void attach_observability(Observability obs) override { obs_ = obs; }
  [[nodiscard]] MetricsRegistry* metrics() const override {
    return obs_.metrics;
  }
  [[nodiscard]] SpanLog* spans() const override { return obs_.spans; }
  [[nodiscard]] ProcessId allocate_pid() override {
    return ProcessId{next_pid_.fetch_add(1, std::memory_order_relaxed)};
  }
  [[nodiscard]] Rng fork_rng() override;
  void set_placement_domain(std::int32_t domain) override;
  void attach(ProcessId id, sim::Actor* actor) override;
  void detach(ProcessId id) override { network_.detach(id); }
  void send_message(sim::WireMessage msg) override {
    network_.send(std::move(msg));
  }
  [[nodiscard]] sim::StageBackend* stages() const override {
    return stages_.get();
  }
  void schedule(ProcessId owner, Time delay,
                std::function<void()> fn) override;

  // --- runtime-specific ----------------------------------------------------
  /// Runs `fn` serialized with `owner` from a thread OUTSIDE the pool, with
  /// backpressure (blocks while the owner's worker mailbox is full). The
  /// load-injection edge: benchmarks submit client requests through this.
  /// Returns false if the owner is unknown or the executor stopped.
  bool run_on(ProcessId owner, std::function<void()> fn);

  [[nodiscard]] Executor& executor() { return executor_; }
  [[nodiscard]] ThreadNetwork& network() { return network_; }
  [[nodiscard]] const RuntimeOptions& options() const { return opts_; }
  /// The stage pool, or null when the profile configures no stage threads
  /// (verify_workers == 0 and exec_shards == 0).
  [[nodiscard]] StagePool* stage_pool() { return stages_.get(); }

 private:
  [[nodiscard]] std::size_t worker_for_domain(std::int32_t domain);

  RuntimeOptions opts_;
  WallClock clock_;
  Executor executor_;
  TimerWheel wheel_;
  ThreadNetwork network_;
  /// Verify/exec stage threads (stage pipeline); null at depth 0. Declared
  /// after the executor/network it posts into, stopped before them.
  std::unique_ptr<StagePool> stages_;
  std::shared_ptr<KeyStore> keys_;
  Observability obs_;
  std::atomic<std::int32_t> next_pid_{0};

  std::mutex rng_mu_;
  Rng master_rng_;

  // Placement state: touched from the wiring thread(s) only, but guarded so
  // late client creation while workers run stays well-defined.
  std::mutex placement_mu_;
  std::map<std::int32_t, std::size_t> domain_worker_;
  std::size_t next_worker_ = 0;
  std::int32_t current_domain_ = 0;
};

}  // namespace byzcast::runtime
