// Actor: one protocol process, runnable on any ExecutionEnv backend.
// Incoming messages queue at the actor and are served one at a time; each
// message occupies the CPU for a subclass-declared service cost before its
// effects become visible. On the deterministic simulator this single-server
// queue is what produces realistic saturation and latency growth under load;
// on the wall-clock runtime the costs are zero and the real CPU does the
// work, but the one-message-at-a-time discipline is preserved by the
// per-actor executor serialization.
//
// Lifetime: timer callbacks armed via schedule_in carry a weak reference to
// the actor's alive token and become no-ops once the actor is destroyed, so
// an actor may be torn down while scheduler activity it triggered is still
// pending. (Message delivery is guarded the same way by the network: a
// destination destroyed in flight counts as a drop.)
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/auth.hpp"
#include "common/rng.hpp"
#include "sim/env.hpp"
#include "sim/stages.hpp"

namespace byzcast::sim {

class Actor {
 public:
  Actor(ExecutionEnv& env, std::string name);
  virtual ~Actor();

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  [[nodiscard]] ProcessId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Called by the network at message arrival time. Concurrent backends
  /// must call this serialized on the actor's executor, never directly
  /// from a sender's thread. Messages the subclass declares stage-verifiable
  /// detour through the verify stage (real pool or simulated model) before
  /// entering the inbox; everything else goes straight in.
  void enqueue(WireMessage msg);

  /// Inbox entry for a message coming back from the verify stage. Must run
  /// serialized on the actor (the stage pool posts it back to the owner's
  /// executor lane; the simulator schedules it at modeled-done time).
  /// Results arrive in any order; each is released to the inbox only after
  /// every earlier verify ticket was (a message ahead of its turn waits).
  void enqueue_verified(WireMessage msg);

  /// Verify-stage body: stamps msg.verify_verdict from the MAC check and, on
  /// success, lets the subclass precompute digests (stage_precompute).
  /// Thread-safe: touches only the Authenticator and const state.
  void stage_preverify(WireMessage& msg) const;

  /// A crashed actor ignores everything from now on.
  void crash() { crashed_ = true; }
  [[nodiscard]] bool crashed() const { return crashed_; }

  // --- observability -------------------------------------------------------
  /// MAC verifications this actor answered from the Authenticator memo
  /// (always 0 under fast MACs).
  [[nodiscard]] std::uint64_t mac_memo_hits() const {
    return auth_.verify_cache_hits();
  }

 protected:
  /// Handles one message, after its service time elapsed. The MAC has NOT
  /// been verified; call `verify` if authenticity matters (it always does
  /// for protocol logic; the check cost is part of the declared service
  /// cost).
  virtual void on_message(const WireMessage& msg) = 0;

  /// CPU time this message occupies before `on_message` runs.
  [[nodiscard]] virtual Time service_cost(const WireMessage& msg) const;

  /// Signs and sends `payload` to `to` through the network. Adds the
  /// per-send CPU cost to this actor's busy time. Takes a Buffer so fan-out
  /// callers encode once and pass the same buffer to every recipient; a
  /// Bytes rvalue converts implicitly (one materialization, no copy).
  void send(ProcessId to, Buffer payload);

  /// Checks that `msg` was authenticated by its claimed sender for us.
  /// Honors a verify-stage verdict stamped on the message, so pre-verified
  /// messages cost no second MAC check.
  [[nodiscard]] bool verify(const WireMessage& msg) const;

  // --- verify-stage hooks (stage pipeline; default: not staged) -----------
  /// Which inbound messages may detour through the verify stage. Only
  /// messages whose verification + digest work is independent of actor state
  /// qualify (protocol traffic, not timers/replies).
  [[nodiscard]] virtual bool stage_verifiable(const WireMessage&) const {
    return false;
  }
  /// Simulated CPU the verify stage spends on this message (the share of
  /// service_cost that moves off the order stage). 0 disables the simulated
  /// model for this message; the wall-clock runtime ignores it.
  [[nodiscard]] virtual Time stage_verify_cost(const WireMessage&) const {
    return 0;
  }
  /// Digest precomputation performed on the verify worker after a successful
  /// MAC check (e.g. stamping the PROPOSE batch digest). Thread-safe: const,
  /// pure function of the message bytes.
  virtual void stage_precompute(WireMessage&) const {}

  /// Schedules `fn` to run after `delay`; fires regardless of the actor's
  /// queue (used for timeouts). The callback must check state freshness.
  /// If the actor is destroyed before the timer fires, the callback is
  /// dropped (alive-token check at fire time).
  void schedule_in(Time delay, std::function<void()> fn);

  /// Adds `cost` to the actor's current busy period (models extra CPU work
  /// performed while handling the current message). Negative values refund
  /// CPU that a parallel stage absorbed (never below the current period's
  /// zero — callers bound their refunds).
  void consume_cpu(Time cost) { extra_busy_ += cost; }

  /// CPU consumed so far while handling the current message. The staged
  /// execution path diffs successive readings to price each request's
  /// deferred work for the shard-makespan model.
  [[nodiscard]] Time consumed_cpu() const { return extra_busy_; }

  /// Signs and sends from an exec shard thread: no CPU accounting (the
  /// shard burns real CPU off the order stage) and no crash check (crash()
  /// is a sim affordance; stage sends exist only on the runtime backend).
  /// Thread-safe: Authenticator::sign and the runtime network are.
  void send_from_stage(ProcessId to, Buffer payload);

  [[nodiscard]] Time now() const { return env_.now(); }
  [[nodiscard]] Rng& rng() { return rng_; }
  /// The hosting execution environment (cost model, metrics, ...). Named
  /// `env` because it may be the simulator or the wall-clock runtime.
  [[nodiscard]] ExecutionEnv& env() { return env_; }
  [[nodiscard]] const ExecutionEnv& env() const { return env_; }

 private:
  void maybe_drain();
  /// Simulated verify pool: W servers, earliest-free assignment, completion
  /// timed behind `verify_frontier_` so results re-enter in arrival order —
  /// the order the ticket frontier enforces on the runtime's real pool.
  void model_stage_verify(WireMessage msg, std::uint32_t workers, Time vcost);
  /// Holds a verify result whose earlier tickets are still out.
  void park_verified(WireMessage msg);
  /// Records the per-message mailbox-wait / CPU-service infrastructure spans
  /// (no-op unless a SpanLog is attached with actor spans enabled).
  void stamp_actor_spans(const WireMessage& m) const;

  ExecutionEnv& env_;
  ProcessId id_;
  std::string name_;
  Authenticator auth_;
  Rng rng_;
  /// Liveness witness for deferred work: callbacks hold a weak_ptr and
  /// no-op once the actor is gone. Reset first in the destructor.
  std::shared_ptr<void> alive_;
  std::deque<WireMessage> inbox_;
  bool draining_ = false;
  bool crashed_ = false;
  Time extra_busy_ = 0;
  /// Simulated verify pool state (empty until the first staged message).
  std::vector<Time> verify_busy_;
  Time verify_frontier_ = 0;
  /// Verify ticket frontier (both backends): the next ticket to hand out,
  /// the next one to release, and results parked ahead of their turn in a
  /// ring indexed by ticket (power-of-two size; grows, never shrinks).
  std::uint64_t verify_issued_ = 0;
  std::uint64_t verify_released_ = 0;
  std::vector<std::optional<WireMessage>> verify_parked_;
};

}  // namespace byzcast::sim
