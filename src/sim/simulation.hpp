// Simulation: the deterministic, single-threaded ExecutionEnv backend — the
// composition root owning scheduler, latency model, network, key store and
// the master RNG. Systems (groups of actors) are created against one
// Simulation and driven by running its scheduler. The wall-clock sibling is
// runtime::RuntimeEnv (src/runtime).
#pragma once

#include <memory>

#include "common/auth.hpp"
#include "common/rng.hpp"
#include "sim/env.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "sim/profile.hpp"
#include "sim/scheduler.hpp"

namespace byzcast::sim {

class Simulation final : public ExecutionEnv {
 public:
  /// LAN-model simulation.
  Simulation(std::uint64_t seed, const Profile& profile);

  /// Simulation with a caller-provided latency model (e.g. WAN).
  Simulation(std::uint64_t seed, const Profile& profile,
             std::unique_ptr<LatencyModel> latency);

  [[nodiscard]] Scheduler& scheduler() { return scheduler_; }
  [[nodiscard]] Network& network() { return *network_; }
  [[nodiscard]] const Profile& profile() const override { return profile_; }
  [[nodiscard]] Time now() const override { return scheduler_.now(); }

  [[nodiscard]] std::shared_ptr<const KeyStore> keys() const override {
    return keys_;
  }

  /// Mutable access to the latency model, for post-construction setup such
  /// as WAN region assignment (actors receive their pids at construction).
  [[nodiscard]] LatencyModel& latency_model() { return *latency_; }

  /// Attaches observability sinks (owned by the caller, must outlive the
  /// simulation). Actors and replicas publish through these; by default
  /// both are null and every stamp is a no-op.
  void attach_observability(Observability obs) override { obs_ = obs; }
  [[nodiscard]] MetricsRegistry* metrics() const override {
    return obs_.metrics;
  }
  [[nodiscard]] SpanLog* spans() const override { return obs_.spans; }

  /// Derives an independent RNG stream (per-actor randomness).
  [[nodiscard]] Rng fork_rng() override { return master_rng_.fork(); }

  /// Allocates a fresh system-wide process id.
  [[nodiscard]] ProcessId allocate_pid() override {
    return ProcessId{next_pid_++};
  }

  // --- ExecutionEnv routing / timers ---------------------------------------
  void attach(ProcessId id, Actor* actor) override {
    network_->attach(id, actor);
  }
  void detach(ProcessId id) override { network_->detach(id); }
  void send_message(WireMessage msg) override {
    network_->send(std::move(msg));
  }
  /// Single-threaded backend: every event is serialized by the scheduler,
  /// so the owner id needs no routing.
  void schedule(ProcessId, Time delay, std::function<void()> fn) override {
    scheduler_.schedule_after(delay, std::move(fn));
  }

  /// Runs until simulated `deadline`.
  void run_until(Time deadline) { scheduler_.run_until(deadline); }
  /// Runs until no events remain (quiescence).
  void run_to_quiescence() { scheduler_.run_all(); }

 private:
  Profile profile_;
  Scheduler scheduler_;
  Rng master_rng_;
  std::unique_ptr<LatencyModel> latency_;
  std::unique_ptr<Network> network_;
  std::shared_ptr<KeyStore> keys_;
  std::int32_t next_pid_ = 0;
  Observability obs_;
};

}  // namespace byzcast::sim
