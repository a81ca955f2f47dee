// Cost model for the simulated testbed. All constants live here so that the
// calibration (DESIGN.md §8) is explicit and adjustable in one place.
//
// The LAN preset is calibrated against the paper's cluster results: a single
// f=1 BFT-SMaRt group saturates around ~19-20k local messages/s and a
// single-client request completes in a few milliseconds (§V-D, Fig. 7). The
// WAN preset uses the paper's Table I inter-region RTTs.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace byzcast::sim {

struct Profile {
  // --- network -----------------------------------------------------------
  /// Base one-way latency between two distinct processes (LAN: RTT 0.1ms).
  Time net_one_way = 50 * kMicrosecond;
  /// Mean of the exponential jitter added to every hop.
  Time net_jitter_mean = 15 * kMicrosecond;
  /// Serialization delay per byte (1 Gbps = 8 ns/byte).
  Time net_per_byte = 8 * kNanosecond;

  // --- replica CPU -------------------------------------------------------
  /// Verifying + admitting one client request (MAC check, digest, queueing).
  Time cpu_request_admission = 8 * kMicrosecond;
  /// Leader work per request included in a PROPOSE batch.
  Time cpu_propose_per_msg = 5 * kMicrosecond;
  /// Replica work to validate a PROPOSE (batch digest + MAC), fixed part.
  Time cpu_validate_fixed = 1400 * kMicrosecond;
  /// Replica work per request when validating a PROPOSE batch.
  Time cpu_validate_per_msg = 3 * kMicrosecond;
  /// Handling one WRITE or ACCEPT vote from a peer.
  Time cpu_vote = 40 * kMicrosecond;
  /// Executing one decided request in the application, plus building the
  /// reply.
  Time cpu_execute_per_msg = 24 * kMicrosecond;
  /// Handling a duplicate copy of an already-known multicast message
  /// (ByzCast f+1 counting path — a digest lookup, much cheaper than a full
  /// execution).
  Time cpu_duplicate_copy = 2 * kMicrosecond;
  /// Cost of pushing one outgoing message to the NIC.
  Time cpu_send = 8 * kMicrosecond;

  // --- verify-stage offload shares (stage pipeline, ROADMAP item 5) -------
  // The slice of each admission/validation cost that is pure MAC checking +
  // digest computation — the part the verify stage can run on a worker pool
  // off the order stage's critical path. Must not exceed the corresponding
  // serial constant; the order stage keeps the difference.
  /// Offloadable share of cpu_request_admission (HMAC over the request).
  Time cpu_verify_request = 6 * kMicrosecond;
  /// Offloadable share of cpu_validate_fixed (batch SHA-256 + PROPOSE MAC).
  Time cpu_verify_propose_fixed = 1300 * kMicrosecond;
  /// Offloadable share of cpu_validate_per_msg (per-request digest work).
  Time cpu_verify_per_msg = 2 * kMicrosecond;
  /// Offloadable share of cpu_vote (vote MAC check).
  Time cpu_verify_vote = 20 * kMicrosecond;

  // --- client CPU --------------------------------------------------------
  Time cpu_client_reply = 5 * kMicrosecond;

  // --- protocol knobs ----------------------------------------------------
  /// Maximum requests per consensus batch.
  std::uint32_t batch_max = 400;
  /// Lower bound for the adaptive batch-size target. The leader grows its
  /// target (x2, capped at batch_max) whenever the backlog fills a batch
  /// before the assembly window elapses, and shrinks it (/2, floored here)
  /// when a window expires underfull — BFT-SMaRt's maxBatchSize behaviour.
  /// batch_min == batch_max freezes the target: fixed batching.
  std::uint32_t batch_min = 1;
  /// Consensus pipelining: maximum in-flight (proposed, undecided) instances
  /// per group. 1 reproduces the sequential one-instance-at-a-time protocol;
  /// deeper windows overlap the leader's proposal assembly with the
  /// WRITE/ACCEPT rounds of earlier instances. Decisions always apply in
  /// instance order regardless of depth.
  std::uint32_t pipeline_depth = 4;
  /// The leader's batch assembly window (BFT-SMaRt's batchTimeoutMS): a
  /// real delay before each proposal goes out, so requests arriving
  /// meanwhile ride the same instance. A backlog that fills the adaptive
  /// batch target cuts the window early and charges its rest as leader CPU.
  /// 0 proposes as soon as a request is pending.
  Time batch_timeout = 1600 * kMicrosecond;
  /// Use the keyed fast MAC instead of HMAC-SHA256 for wire authentication.
  /// Does not change any *simulated* cost (crypto CPU is part of the
  /// constants above); cuts the host-side wall-clock of large benchmark
  /// sweeps. See common/auth.hpp.
  bool fast_macs = false;
  /// Leader-liveness timeout before a replica asks for a view change.
  Time leader_timeout = 2 * kSecond;
  /// Checkpoint period, in decided consensus instances.
  std::uint32_t checkpoint_period = 256;

  // --- stage pipeline (intra-group vertical scaling) ----------------------
  /// Verify-stage worker pool size per replica. 0 = stage pipeline off:
  /// every message is verified inline on the order stage, bit-identical to
  /// the pre-stage behaviour. On the runtime backend this is the number of
  /// real StagePool worker threads; on the simulator it is the width of the
  /// modeled W-server verify pool.
  std::uint32_t verify_workers = 0;
  /// Execute/reply-stage shard count. 0 = execution stays inline on the
  /// order stage. Sharding applies only to deferred per-request work
  /// (application execution of independent keys + reply encoding); ordering,
  /// relay forwarding and a-delivery bookkeeping always stay serial.
  std::uint32_t exec_shards = 0;

  /// LAN preset (defaults above).
  [[nodiscard]] static Profile lan() { return Profile{}; }

  /// WAN preset: the latency numbers come from the WAN model (region
  /// matrix); CPU costs are the same machine class. Timeouts are wider.
  [[nodiscard]] static Profile wan() {
    Profile p;
    p.net_one_way = 0;  // the region matrix supplies the hop latency
    p.net_jitter_mean = 200 * kMicrosecond;
    p.leader_timeout = 8 * kSecond;
    return p;
  }

  /// Wall-clock preset for the runtime backend: every cpu_* / net_* cost is
  /// zero because real threads spend real CPU and the ThreadNetwork adds any
  /// injected latency itself, and the assembly window is 0. Only the
  /// protocol knobs remain meaningful.
  /// Fast MACs make a 100-byte sign + verify about 3x cheaper than HMAC on
  /// the SHA-NI SHA-256 kernel and 20x on the portable one (bench_micro);
  /// the repository benchmark turns them off to pay the real HMAC cost.
  [[nodiscard]] static Profile wallclock() {
    Profile p;
    p.net_one_way = 0;
    p.net_jitter_mean = 0;
    p.net_per_byte = 0;
    p.cpu_request_admission = 0;
    p.cpu_propose_per_msg = 0;
    p.cpu_validate_fixed = 0;
    p.cpu_validate_per_msg = 0;
    p.cpu_vote = 0;
    p.cpu_execute_per_msg = 0;
    p.cpu_duplicate_copy = 0;
    p.cpu_send = 0;
    p.cpu_client_reply = 0;
    p.cpu_verify_request = 0;
    p.cpu_verify_propose_fixed = 0;
    p.cpu_verify_per_msg = 0;
    p.cpu_verify_vote = 0;
    p.batch_timeout = 0;
    p.fast_macs = true;
    p.leader_timeout = 2 * kSecond;
    return p;
  }
};

}  // namespace byzcast::sim
