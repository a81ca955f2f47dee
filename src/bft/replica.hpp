// One replica of a FIFO BFT atomic broadcast group (Mod-SMaRt style).
//
// Normal case: clients send authenticated Requests to all replicas; the
// leader of the current view runs consensus instances, each over a batch of
// pending requests, with the PBFT-like PROPOSE/WRITE/ACCEPT pattern and
// 2f+1 quorums. Up to Profile::pipeline_depth instances may be in flight at
// once (a window of open instances keyed by instance number); ACCEPT quorums
// that complete out of order are buffered and decisions are applied strictly
// in instance order. Decided batches are appended to the log; requests then
// pass a deterministic per-origin FIFO hold-back and execute in the
// application.
//
// Leader failure: replicas that see pending requests starve broadcast STOP;
// on 2f+1 STOPs the view advances, replicas send STOPDATA (every value they
// WROTE for the open instances of their window) to the new leader, which
// re-proposes the whole surviving window via SYNC. Replicas that fall behind
// catch up with state transfer (f+1 matching responses; snapshot + log
// tail).
#pragma once

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bft/application.hpp"
#include "bft/exec_barrier.hpp"
#include "bft/fault.hpp"
#include "bft/message.hpp"
#include "common/metrics.hpp"
#include "sim/actor.hpp"
#include "sim/env.hpp"
#include "sim/stages.hpp"

namespace byzcast::bft {

/// Static description of one group, shared with clients and peers.
/// Membership is mutated only through set_replicas()/add_replica(), which
/// keep the hash index in sync; is_member never has to infer whether a
/// cached index is fresh (copies carry a consistent index with them).
class GroupInfo {
 public:
  GroupId id;
  int f = 1;

  /// Size 3f+1, vector index = replica index.
  [[nodiscard]] const std::vector<ProcessId>& replicas() const {
    return replicas_;
  }
  /// Replaces the whole membership and reindexes.
  void set_replicas(std::vector<ProcessId> replicas) {
    replicas_ = std::move(replicas);
    members_.clear();
    members_.insert(replicas_.begin(), replicas_.end());
  }
  /// Appends one replica (group construction) and indexes it.
  void add_replica(ProcessId p) {
    replicas_.push_back(p);
    members_.insert(p);
  }

  [[nodiscard]] int n() const { return static_cast<int>(replicas_.size()); }
  [[nodiscard]] int quorum() const { return 2 * f + 1; }
  [[nodiscard]] bool is_member(ProcessId p) const {
    return members_.contains(p);
  }

 private:
  std::vector<ProcessId> replicas_;
  std::unordered_set<ProcessId> members_;  // hash index over replicas_
};

class Replica final : public sim::Actor, public ReplicaContext {
 public:
  Replica(sim::ExecutionEnv& env, GroupId group, int f, int index,
          std::unique_ptr<Application> app, FaultSpec faults);

  /// Wires the full membership once all replicas of the group exist, and
  /// starts timers. Must be called exactly once before the simulation runs.
  void start(const GroupInfo& info);

  /// Starts this replica as a STANDBY: it knows the group's current
  /// membership but is not part of it. It becomes active when an ordered
  /// reconfiguration (learned via state transfer or live proposals) adds it
  /// to the membership.
  void start_standby(const GroupInfo& info);

  /// Authorizes `admin` to submit reconfiguration requests. Reconfiguration
  /// is disabled (every reconfig request rejected) until this is set.
  void set_admin(ProcessId admin) { admin_ = admin; }

  /// Current membership as seen by this replica (changes at reconfig).
  [[nodiscard]] const GroupInfo& current_membership() const { return info_; }
  [[nodiscard]] bool removed() const { return removed_; }

  // --- ReplicaContext ----------------------------------------------------
  [[nodiscard]] ProcessId self() const override { return id(); }
  [[nodiscard]] GroupId group() const override { return group_; }
  [[nodiscard]] int f() const override { return f_; }
  [[nodiscard]] Time now() const override { return Actor::now(); }
  [[nodiscard]] Rng& app_rng() override { return rng(); }
  void send_reply(const Request& req, Bytes result) override;
  void send_request(ProcessId to, const Request& req) override;
  void send_request(const std::vector<ProcessId>& dsts,
                    const Request& req) override;
  void consume_app_cpu(Time cost) override { consume_cpu(cost); }
  [[nodiscard]] const ExecTiming* exec_timing() const override {
    return executing_timed_ ? &cur_exec_timing_ : nullptr;
  }

  // --- introspection (tests, benchmarks) ---------------------------------
  [[nodiscard]] std::uint64_t decided_instances() const {
    return next_instance_;
  }
  [[nodiscard]] std::uint64_t executed_requests() const { return executed_; }
  [[nodiscard]] std::uint64_t view() const { return view_; }
  [[nodiscard]] bool is_leader() const;
  [[nodiscard]] const FaultSpec& faults() const { return faults_; }
  [[nodiscard]] Application& application() { return *app_; }
  /// Digest over the executed-request history (all correct replicas of a
  /// group must agree on it at quiescence).
  [[nodiscard]] Digest history_digest() const { return history_digest_; }

  /// Protocol-event counters for tests and benchmark reports.
  struct Counters {
    std::uint64_t views_installed = 0;
    std::uint64_t state_transfers = 0;    // requests actually sent
    std::uint64_t proposals_made = 0;     // consensus instances led
    std::uint64_t checkpoints_taken = 0;
    std::uint64_t rejected_requests = 0;  // failed admission checks
    std::uint64_t early_batch_cuts = 0;   // backlog filled the target early
    std::uint64_t timer_batch_cuts = 0;   // assembly window elapsed
    std::uint64_t stale_window_drops = 0; // superseded/stale-view timer fires
    std::uint64_t buffered_decisions = 0; // ACCEPT quorums completed out of
                                          // order, applied later
    std::uint64_t staged_verifies = 0;    // messages pre-verified off-stage
    std::uint64_t deferred_execs = 0;     // requests sharded to exec stage
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

  /// Open (proposed, not yet applied) instances right now (tests).
  [[nodiscard]] std::size_t open_instances() const { return open_.size(); }
  /// High-water mark of concurrently open instances over the run.
  [[nodiscard]] std::size_t pipeline_high_water() const {
    return pipeline_high_water_;
  }
  /// Current adaptive batch-size target (0 until first arm).
  [[nodiscard]] std::uint32_t batch_target() const { return batch_target_; }
  /// Largest batch ever decided here (tests: both the do_propose and the
  /// view-change re-propose path must respect the cut_batch sizing rule).
  [[nodiscard]] std::size_t max_decided_batch() const {
    return max_decided_batch_;
  }

 protected:
  void on_message(const sim::WireMessage& msg) override;
  [[nodiscard]] Time service_cost(const sim::WireMessage& msg) const override;

  // --- stage-pipeline hooks (sim::Actor) -----------------------------------
  /// Protocol traffic whose MAC check + digest work is state-independent:
  /// REQUEST / PROPOSE / WRITE / ACCEPT. Control-plane messages (view
  /// change, state transfer) stay on the serial path — they are rare and
  /// their handling is entangled with view state.
  [[nodiscard]] bool stage_verifiable(
      const sim::WireMessage& msg) const override;
  /// The share of service_cost the verify stage absorbs for `msg` (clamped
  /// so the remaining serial cost never goes negative).
  [[nodiscard]] Time stage_verify_cost(
      const sim::WireMessage& msg) const override;
  /// Stamps the PROPOSE batch digest on the verify worker so handle_propose
  /// skips its SHA-256 over the batch slice.
  void stage_precompute(sim::WireMessage& msg) const override;

 private:
  struct OpenConsensus {
    std::uint64_t instance = 0;
    std::uint64_t view = 0;
    std::optional<Batch> proposal;
    Digest digest{};
    bool sent_write = false;
    bool sent_accept = false;
    /// ACCEPT quorum complete, waiting for earlier instances to apply
    /// (decisions are applied strictly in instance order).
    bool decided = false;
    Time proposed_at = -1;      // proposal accepted here (span tracing)
    Time write_quorum_at = -1;  // 2f+1 WRITEs seen
  };

  /// Per-pending-request bookkeeping. `admitted` starts the request's
  /// leader-suspicion clock (restarted by every decision, see
  /// `progress_at_`); it and the wire times are immutable admission facts,
  /// also kept for span tracing. `inflight` marks requests this replica cut
  /// into one of its own open proposals (they left pending_ and must be
  /// re-queued if the view changes before they decide).
  struct AdmitInfo {
    Time admitted = 0;
    Time wire_sent = -1;
    Time wire_enqueued = -1;
    Time wire_svc_start = -1;
    bool inflight = false;
  };

  // votes per (instance, view, phase, digest) -> distinct voters
  struct VoteKey {
    std::uint64_t instance;
    std::uint64_t view;
    bool accept_phase;
    Digest digest;
    friend bool operator<(const VoteKey& a, const VoteKey& b) {
      if (a.instance != b.instance) return a.instance < b.instance;
      if (a.view != b.view) return a.view < b.view;
      if (a.accept_phase != b.accept_phase)
        return a.accept_phase < b.accept_phase;
      return a.digest < b.digest;
    }
  };

  [[nodiscard]] ProcessId leader_of(std::uint64_t view) const;
  /// Fans `payload` to every peer: one materialized buffer, N-1 ref bumps.
  void broadcast(const Buffer& payload);

  void handle_request(const sim::WireMessage& msg, Reader& r);
  void handle_propose(const sim::WireMessage& msg, Reader& r);
  void handle_vote(MsgType type, const sim::WireMessage& msg, Reader& r);
  void handle_stop(const sim::WireMessage& msg, Reader& r);
  void handle_stopdata(const sim::WireMessage& msg, Reader& r);
  void handle_sync(const sim::WireMessage& msg, Reader& r);
  void handle_frontier(const sim::WireMessage& msg, Reader& r);
  void handle_state_request(const sim::WireMessage& msg, Reader& r);
  void handle_state_response(const sim::WireMessage& msg, Reader& r);

  void admit_request(Request req, const sim::WireMessage* wire = nullptr);
  void maybe_start_consensus();
  void do_propose();
  /// Moves up to batch_max front entries of pending_ into a batch, marking
  /// them inflight. The single batch-sizing rule for both the normal propose
  /// path and the view-change re-propose path.
  [[nodiscard]] Batch cut_batch();
  /// Effective pipeline window (>= 1).
  [[nodiscard]] std::uint64_t pipeline_depth() const;
  /// Assembly-window length: Profile::batch_timeout.
  [[nodiscard]] Time window_delay() const;
  /// `digest` is the precomputed digest of the batch's encoded form (from
  /// the wire slice or the leader's own encode); null means compute it here
  /// (cold paths: SYNC, view change).
  void accept_proposal(std::uint64_t view, std::uint64_t instance,
                       Batch batch, const Digest* digest = nullptr);
  void check_quorums();
  /// Applies buffered decisions in instance order from the window's front.
  void advance_decided();
  /// `proposed_at` / `write_quorum_at` carry the deciding instance's local
  /// consensus-phase times (-1 on the state-transfer path: no local run).
  void decide(Batch batch, Time proposed_at = -1, Time write_quorum_at = -1);
  void execute_batch(const Batch& batch);
  /// Sends buffered replies, one wire message per origin (a single reply
  /// stays a plain kReply; several coalesce into a kReplyBatch).
  void flush_replies();
  void deliver_fifo(const Request& req);
  void execute_one(const Request& req);
  /// The runtime exec-shard backend, or null (sim / no shards configured /
  /// ablated). Non-null means deferred work really runs on shard threads.
  [[nodiscard]] sim::StageBackend* exec_stage() const;
  /// True when the *simulated* exec-shard model is on: shards configured,
  /// not ablated, and no real backend (pure simulation).
  [[nodiscard]] bool sim_exec_model_on() const;
  void apply_reconfig(const Request& req);
  void maybe_checkpoint();
  [[nodiscard]] Bytes make_snapshot() const;
  void restore_snapshot(BytesView snapshot);

  void arm_liveness_timer();
  void on_liveness_check();
  void request_view_change(std::uint64_t next_view);
  void install_view(std::uint64_t next_view);
  void leader_try_sync();

  void request_state_transfer();
  void try_apply_state();

  // --- configuration ------------------------------------------------------
  GroupId group_;
  int f_;
  int index_;
  GroupInfo info_;  // valid after start()
  std::unique_ptr<Application> app_;
  FaultSpec faults_;
  bool started_ = false;
  bool standby_ = false;   // not (yet) part of the membership
  bool removed_ = false;   // reconfigured out of the group
  ProcessId admin_{};      // authorized reconfigurer (invalid = disabled)

  // --- ordering state ------------------------------------------------------
  std::uint64_t view_ = 0;
  bool view_active_ = true;
  std::uint64_t next_instance_ = 0;  // first unapplied instance
  /// Window of open instances (proposed and/or decided-but-buffered), keyed
  /// by instance number; all keys are >= next_instance_ and within
  /// pipeline_depth of it.
  std::map<std::uint64_t, OpenConsensus> open_;
  /// Leader assembly-window state. The armed timer is tagged with the view
  /// and an epoch; a firing whose epoch was bumped (early cut, view change)
  /// or whose view moved on is dropped instead of proposing under stale
  /// leadership assumptions.
  bool window_armed_ = false;
  std::uint64_t window_view_ = 0;
  std::uint64_t window_epoch_ = 0;
  Time window_armed_at_ = -1;
  std::uint32_t batch_target_ = 0;  // adaptive; 0 = set on first arm
  bool advancing_ = false;          // re-entrancy guard for advance_decided
  std::map<VoteKey, std::set<ProcessId>> votes_;
  /// Requests admitted but not yet cut into one of our own proposals (on
  /// followers: all admitted, undecided requests).
  std::deque<Request> pending_;
  std::unordered_map<MessageId, AdmitInfo> pending_since_;
  /// Time of the last decision. Progress restarts every pending request's
  /// suspicion clock (a busy-but-live leader is not suspected merely because
  /// the queue is longer than the timeout), so a request's clock reads
  /// max(its admission, progress_at_).
  Time progress_at_ = 0;
  std::unordered_set<MessageId> decided_requests_;
  std::size_t pipeline_high_water_ = 0;
  std::size_t max_decided_batch_ = 0;

  // --- decided log / checkpoints -------------------------------------------
  std::vector<Batch> log_;           // instances [log_base_, next_instance_)
  std::uint64_t log_base_ = 0;       // instance of log_[0]
  Bytes checkpoint_snapshot_;        // state as of instance log_base_
  std::uint64_t checkpoint_instance_ = 0;

  // --- FIFO delivery / execution -------------------------------------------
  std::unordered_map<ProcessId, std::uint64_t> fifo_next_;
  std::unordered_map<ProcessId, std::map<std::uint64_t, Request>> holdback_;
  std::uint64_t executed_ = 0;
  Digest history_digest_{};
  /// While a decided batch executes, replies are buffered per origin and
  /// flushed as one message each afterwards (return-path batching).
  bool buffer_replies_ = false;
  std::map<ProcessId, std::vector<Reply>> reply_buffer_;

  // --- execute/reply stage (stage pipeline) --------------------------------
  /// Simulated shard model: per-shard CPU buckets for the current batch. The
  /// batch's serial execute cost is refunded down to the bucket makespan
  /// (max over shards) — the modeled wall-clock of parallel shards.
  std::vector<Time> exec_bucket_;
  Time exec_deferred_total_ = 0;  // deferred cost accumulated this batch
  /// Runtime backend: per-origin FIFO barrier releasing shard-produced
  /// replies in delivery order (lazily created on first deferred request).
  std::unique_ptr<ExecBarrier> exec_barrier_;

  // --- view change ----------------------------------------------------------
  std::map<std::uint64_t, std::set<ProcessId>> stop_votes_;
  std::uint64_t stop_requested_for_ = 0;  // highest view we sent STOP for
  /// Highest view whose STOP we echoed back to each peer (handle_stop's
  /// help-the-laggard path). One echo per (peer, view) is enough for the
  /// laggard's f+1 evidence; unbounded echoes ping-pong forever once two
  /// current replicas both hold stop evidence for the view they occupy.
  std::unordered_map<ProcessId, std::uint64_t> stop_echoed_;
  std::map<std::uint64_t, std::map<ProcessId, StopData>> stopdata_;
  std::map<std::uint64_t, Sync> sync_sent_;  // leader: SYNC per view led
  Time view_change_started_ = 0;

  // --- state transfer --------------------------------------------------------
  std::map<ProcessId, StateResponse> state_responses_;
  Time last_state_request_ = -1;
  Counters counters_;
  /// Highest instance for which we saw credible evidence (a leader proposal
  /// or f+1 votes); if it stays ahead of next_instance_, the periodic
  /// liveness check keeps requesting state (anti-entropy).
  std::uint64_t max_seen_instance_ = 0;
  /// Highest view observed in authenticated peer traffic; if it exceeds
  /// ours the liveness check runs the view catch-up path.
  std::uint64_t max_seen_view_ = 0;

  // --- observability ---------------------------------------------------------
  /// Lazily resolved handle into the simulation's MetricsRegistry (shared
  /// by all replicas of the group); null when metrics are off.
  Histogram* batch_size_hist_ = nullptr;
  /// Span-tracing state (populated only while a SpanLog is attached):
  /// admission + consensus timing frozen at decide time per request, read
  /// back when the request executes (FIFO holdback may defer execution to a
  /// later decide; the timing of the *deciding* instance must stick).
  std::unordered_map<MessageId, ExecTiming> exec_info_;
  ExecTiming cur_exec_timing_;
  bool executing_timed_ = false;
};

}  // namespace byzcast::bft
