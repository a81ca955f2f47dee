// StageBackend: the execution-backend seam for the replica stage pipeline
// (ROADMAP item 5 — intra-group vertical scaling).
//
// A backend that can run work on extra threads exposes one of these through
// ExecutionEnv::stages(). Two stages hang off it:
//
//  * verify stage — inbound protocol messages are handed to a worker pool
//    for MAC verification and batch-digest precomputation before they enter
//    the serial order stage. Results come back to the owner's executor lane
//    in any order; the owner (sim::Actor) releases them through its ticket
//    frontier in submission order, so the order stage sees exactly the
//    arrival sequence it would have seen inline.
//  * execute/reply stage — once delivery order is fixed, pure per-request
//    work (application execution of independent keys, reply encoding) is
//    sharded by destination key. Ordering, relay forwarding and a-delivery
//    bookkeeping never move off the order stage; callers enforce reply FIFO
//    with a per-origin barrier (bft/exec_barrier.hpp).
//
// The deterministic simulator returns nullptr and instead *models* the
// verify pool inside Actor (same ticket frontier, simulated time); the net
// backend also returns nullptr and runs everything inline. Both are
// bit-identical to the pre-stage behaviour at verify_workers = 0.
#pragma once

#include <cstdint>
#include <functional>

#include "common/types.hpp"
#include "sim/wire.hpp"

namespace byzcast::sim {

class StageBackend {
 public:
  virtual ~StageBackend() = default;

  /// Worker threads in the verify pool (> 0, or the backend would not exist).
  [[nodiscard]] virtual std::uint32_t verify_workers() const = 0;
  /// Shard threads in the execute/reply stage (0 = exec stays inline).
  [[nodiscard]] virtual std::uint32_t exec_shards() const = 0;

  /// Hands one inbound message of `owner` to the verify pool. A pool worker
  /// runs the owner's Actor::stage_preverify on it, then the message
  /// re-enters through Actor::enqueue_verified, serialized on the owner's
  /// executor lane. Completions may arrive in any order; msg.verify_ticket
  /// lets the owner restore submission order.
  virtual void submit_verify(ProcessId owner, WireMessage msg) = 0;

  /// Runs `work` on the exec shard responsible for `key` (key % exec_shards).
  /// `work` must be thread-safe; per-shard execution is serial. Only valid
  /// when exec_shards() > 0.
  virtual void submit_exec(std::uint64_t key, std::function<void()> work) = 0;

  /// True when the calling thread is an exec shard worker (used by actors to
  /// route replies produced off the order stage through the FIFO barrier).
  [[nodiscard]] virtual bool in_exec_shard() const = 0;
};

}  // namespace byzcast::sim
