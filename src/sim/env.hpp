// ExecutionEnv: the seam between protocol logic and its execution backend.
//
// Everything an Actor needs from its host — clock, message routing, timers,
// randomness, keys, the cost model and observability sinks — is expressed
// through this interface, so the same bft::Replica / core::ByzCastNode code
// runs unchanged on two backends:
//
//  * sim::Simulation     — single-threaded, discrete-event, deterministic;
//  * runtime::RuntimeEnv — multi-threaded, wall-clock, thread-per-group
//                          executors with MPSC mailboxes (src/runtime).
//
// Contract for concurrent backends: `schedule` and message delivery for one
// owner are serialized (an actor is never entered from two threads at once),
// `allocate_pid` / `fork_rng` are thread-safe, and `now` is monotone.
#pragma once

#include <functional>
#include <memory>

#include "common/auth.hpp"
#include "common/rng.hpp"
#include "common/span.hpp"
#include "common/types.hpp"
#include "sim/profile.hpp"
#include "sim/wire.hpp"

namespace byzcast::sim {

class Actor;
class StageBackend;

class ExecutionEnv {
 public:
  virtual ~ExecutionEnv() = default;

  /// Current time: simulated ns for the simulator, wall-clock ns since
  /// backend construction for the runtime.
  [[nodiscard]] virtual Time now() const = 0;

  /// Cost model. The runtime backend uses Profile::wallclock(), whose CPU
  /// constants are zero (real CPUs do real work); only protocol knobs such
  /// as leader_timeout and batch_max remain meaningful there.
  [[nodiscard]] virtual const Profile& profile() const = 0;

  [[nodiscard]] virtual std::shared_ptr<const KeyStore> keys() const = 0;

  /// Observability sinks shared by every actor of the system; null members
  /// disable that sink.
  virtual void attach_observability(Observability obs) = 0;
  [[nodiscard]] virtual MetricsRegistry* metrics() const = 0;
  [[nodiscard]] virtual SpanLog* spans() const = 0;

  /// Allocates a fresh system-wide process id.
  [[nodiscard]] virtual ProcessId allocate_pid() = 0;

  /// Derives an independent RNG stream (per-actor randomness).
  [[nodiscard]] virtual Rng fork_rng() = 0;

  /// Placement hint for concurrent backends: actors created after this call
  /// belong to scheduling domain `domain` (composition roots use one domain
  /// per overlay group, which yields the runtime's default thread-per-group
  /// placement). The deterministic simulator ignores it.
  virtual void set_placement_domain(std::int32_t domain) { (void)domain; }

  /// Registers / unregisters an actor for message delivery.
  virtual void attach(ProcessId id, Actor* actor) = 0;
  virtual void detach(ProcessId id) = 0;

  /// Routes an authenticated message toward msg.to. Unknown destinations
  /// are dropped silently (a real network has no delivery guarantee).
  virtual void send_message(WireMessage msg) = 0;

  /// Stage pipeline backend (sim/stages.hpp), or nullptr when this backend
  /// runs every stage inline. Only the wall-clock runtime returns one (and
  /// only when Profile::verify_workers > 0); the deterministic simulator
  /// models the verify pool inside Actor instead.
  [[nodiscard]] virtual StageBackend* stages() const { return nullptr; }

  /// Runs `fn` after `delay`, serialized with `owner`'s message handling.
  /// Callers are responsible for guarding `fn` against the owner's
  /// destruction (Actor::schedule_in does this with its alive token).
  ///
  /// Timing semantics: the simulated `delay` is exact on the deterministic
  /// simulator. The wall-clock runtime backend resolves timers at its wheel
  /// tick (1ms) and treats any sub-tick delay as zero — it runs `fn` as soon
  /// as the owner's worker drains to it. Simulated CPU-cost hints fall in
  /// this range by design; do not use sub-tick delays where the two backends
  /// must agree on firing order relative to tick-scale timers.
  virtual void schedule(ProcessId owner, Time delay,
                        std::function<void()> fn) = 0;
};

}  // namespace byzcast::sim
