// NetEnv: the third ExecutionEnv backend — real TCP sockets between OS
// processes. One NetEnv hosts the slice of the system that lives in this
// process; everything else is reachable only through the Transport.
//
// The ghost-actor composition trick: every process constructs the FULL
// ByzCastSystem (all groups, all replicas) against its NetEnv, because pid
// assignment is positional — allocate_pid() hands out 0,1,2,... in
// construction order, and construction order is a pure function of the
// (shared) cluster config. The NetEnv then keeps only the local pids live:
//
//   * attach() registers an actor for delivery only when its pid is local;
//   * send_message() drops sends whose `from` is not local (a ghost's output
//     never exists — the real owner of that pid, in another process, emits
//     the real copy);
//   * schedule() drops callbacks whose owner is not local (a ghost's timers
//     never fire).
//
// Ghost actors are therefore inert objects that exist purely to advance the
// pid counter and populate the shared GroupInfo wiring. Replica::start only
// arms env-routed timers, so constructing a ghost has no side effects.
//
// Locality rule: a pid below the config's replica_count() is local iff it is
// in the declared local set; a pid at or above `dynamic_local_floor` is
// local iff THIS process allocated it at runtime (its own clients). Remote
// client pids reach the process only as reply targets and route back over
// the connection whose HELLO announced them.
//
// Cross-process consistency: the KeyStore seed formula and MAC mode match
// RuntimeEnv exactly, so MACs signed in one process verify in another.
//
// Determinism is NOT preserved (same caveat as RuntimeEnv): the property
// checkers, not golden traces, are the oracle.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "common/auth.hpp"
#include "common/rng.hpp"
#include "common/span.hpp"
#include "net/event_loop.hpp"
#include "net/transport.hpp"
#include "sim/env.hpp"
#include "sim/profile.hpp"

namespace byzcast::net {

struct NetEnvOptions {
  std::uint64_t seed = 42;
  sim::Profile profile = sim::Profile::wallclock();
  TransportOptions transport;
};

class NetEnv final : public sim::ExecutionEnv {
 public:
  struct Stats {
    std::uint64_t local_deliveries = 0;
    std::uint64_t remote_sends = 0;
    std::uint64_t ghost_send_drops = 0;   // sends from non-local pids
    std::uint64_t no_actor_drops = 0;     // local pid with no live actor
  };

  explicit NetEnv(NetEnvOptions opts);
  ~NetEnv() override;

  // --- wiring (before start()/run()) -------------------------------------

  [[nodiscard]] EventLoop& loop() { return loop_; }
  [[nodiscard]] Transport& transport() { return transport_; }

  /// Declares which replica pids this process hosts and the first pid value
  /// that counts as a locally created client. Call before constructing the
  /// system.
  void set_local_pids(std::unordered_set<std::int32_t> pids,
                      std::int32_t dynamic_local_floor);
  [[nodiscard]] bool is_local(ProcessId pid) const;

  // --- lifecycle ----------------------------------------------------------

  /// Spawns a background thread running the loop (tests, load generator).
  void start();
  /// Runs the loop on the calling thread until request_stop (daemon main).
  void run();
  /// Stops the loop (joins the background thread when start() was used).
  /// Idempotent; safe from any thread.
  void stop();

  /// Enqueues `fn` onto the loop thread; safe from any thread. The edge
  /// through which non-loop threads (main, load driver) talk to actors.
  void post(std::function<void()> fn) { loop_.post(std::move(fn)); }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  // --- ExecutionEnv -------------------------------------------------------

  [[nodiscard]] Time now() const override { return loop_.now(); }
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
  [[nodiscard]] ProcessId allocate_pid() override;
  [[nodiscard]] Rng fork_rng() override;
  void attach(ProcessId id, sim::Actor* actor) override;
  void detach(ProcessId id) override;
  void send_message(sim::WireMessage msg) override;
  void schedule(ProcessId owner, Time delay,
                std::function<void()> fn) override;

 private:
  void deliver_local(sim::WireMessage msg);

  NetEnvOptions opts_;
  EventLoop loop_;
  Transport transport_;
  std::shared_ptr<const KeyStore> keys_;

  std::unordered_set<std::int32_t> local_pids_;
  std::int32_t dynamic_local_floor_ = 0;
  /// Dynamic pids handed out by this process's allocate_pid (locally
  /// created clients). Guarded: allocation may race the loop thread.
  mutable std::mutex allocated_mu_;
  std::unordered_set<std::int32_t> allocated_here_;

  /// Loop-thread-only after start (wiring happens before).
  std::unordered_map<std::int32_t, sim::Actor*> actors_;
  Stats stats_;

  std::atomic<std::int32_t> next_pid_{0};
  std::mutex rng_mu_;
  Rng master_rng_;
  Observability obs_;

  std::thread loop_thread_;
  std::atomic<bool> started_{false};
};

}  // namespace byzcast::net
