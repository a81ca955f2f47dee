#include "bft/replica.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/contracts.hpp"
#include "common/log.hpp"
#include "common/span.hpp"

namespace byzcast::bft {

namespace {
/// Reply sink installed while a deferred exec task runs on a shard thread:
/// send_reply appends here instead of touching the replica's (order-stage)
/// reply buffer, and the sends release through the ExecBarrier in delivery
/// order. Thread-local so shards never contend and the order stage (where
/// the pointer stays null) is unaffected.
thread_local std::vector<ExecBarrier::PendingSend>* t_stage_sends = nullptr;

/// The history digest after executing `req`: SHA-256 over the codec layout
/// [length-prefixed previous digest][message id][length-prefixed op],
/// streamed into one context rather than encoded into a buffer first.
Digest extend_history(const Digest& prev, const Request& req) {
  const auto digest_len = static_cast<std::uint32_t>(prev.size());
  const auto op_len = static_cast<std::uint32_t>(req.op.size());
  std::array<std::uint8_t, 4 + sizeof(Digest) + 4 + 8 + 4> head;
  std::uint8_t* at = head.data();
  const auto put = [&at](const void* p, std::size_t n) {
    std::memcpy(at, p, n);
    at += n;
  };
  put(&digest_len, 4);
  put(prev.data(), prev.size());
  put(&req.origin.value, 4);
  put(&req.seq, 8);
  put(&op_len, 4);
  Sha256 h;
  h.update(BytesView(head.data(), head.size()));
  h.update(req.op);
  return h.finish();
}
}  // namespace

Replica::Replica(sim::ExecutionEnv& env, GroupId group, int f, int index,
                 std::unique_ptr<Application> app, FaultSpec faults)
    : Actor(env, to_string(group) + "/r" + std::to_string(index)),
      group_(group),
      f_(f),
      index_(index),
      app_(std::move(app)),
      faults_(faults) {
  BZC_EXPECTS(f_ >= 1);
  BZC_EXPECTS(app_ != nullptr);
  app_->attach(*this);
}

/// Encodes the replica-local durable state carried by checkpoints and state
/// transfer: application snapshot + delivery bookkeeping + membership (so a
/// standby that restores a post-reconfiguration snapshot learns it joined).
Bytes Replica::make_snapshot() const {
  Writer w;
  w.bytes(app_->snapshot());
  w.u64(executed_);
  w.bytes(BytesView(history_digest_.data(), history_digest_.size()));
  std::vector<std::pair<ProcessId, std::uint64_t>> entries(fifo_next_.begin(),
                                                           fifo_next_.end());
  std::sort(entries.begin(), entries.end());
  w.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& [pid, seq] : entries) {
    w.process_id(pid);
    w.u64(seq);
  }
  w.vec(info_.replicas(), [](Writer& ww, ProcessId p) { ww.process_id(p); });
  return w.take();
}

void Replica::restore_snapshot(BytesView snapshot) {
  Reader sr(snapshot);
  const Bytes app_bytes = sr.bytes();
  app_->restore(app_bytes);
  executed_ = sr.u64();
  const Bytes hist = sr.bytes();
  BZC_ASSERT(hist.size() == history_digest_.size());
  std::copy(hist.begin(), hist.end(), history_digest_.begin());
  fifo_next_.clear();
  holdback_.clear();
  const auto n = sr.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const ProcessId pid = sr.process_id();
    fifo_next_[pid] = sr.u64();
  }
  info_.set_replicas(
      sr.vec<ProcessId>([](Reader& rr) { return rr.process_id(); }));
  if (info_.is_member(id())) {
    standby_ = false;
  } else if (!standby_) {
    removed_ = true;
    crash();
  }
}

void Replica::start(const GroupInfo& info) {
  BZC_EXPECTS(!started_);
  BZC_EXPECTS(info.id == group_ && info.f == f_);
  BZC_EXPECTS(static_cast<int>(info.replicas().size()) == 3 * f_ + 1);
  BZC_EXPECTS(info.replicas()[static_cast<std::size_t>(index_)] == id());
  info_ = info;
  started_ = true;
  if (faults_.silent) {
    crash();
    return;
  }
  if (faults_.silent_after >= 0) {
    schedule_in(faults_.silent_after, [this] { crash(); });
  }
  arm_liveness_timer();
}

void Replica::start_standby(const GroupInfo& info) {
  BZC_EXPECTS(!started_);
  BZC_EXPECTS(info.id == group_ && info.f == f_);
  BZC_EXPECTS(!info.is_member(id()));
  info_ = info;
  started_ = true;
  standby_ = true;
  arm_liveness_timer();  // drives anti-entropy once evidence arrives
}

ProcessId Replica::leader_of(std::uint64_t view) const {
  return info_.replicas()[view % info_.replicas().size()];
}

bool Replica::is_leader() const { return leader_of(view_) == id(); }

void Replica::broadcast(const Buffer& payload) {
  for (const ProcessId peer : info_.replicas()) {
    if (peer != id()) send(peer, payload);
  }
}

Time Replica::service_cost(const sim::WireMessage& msg) const {
  if (msg.payload.empty()) return 0;
  const auto& pr = env().profile();
  Time base;
  switch (peek_type(msg.payload)) {
    case MsgType::kRequest:
      base = pr.cpu_request_admission;
      break;
    case MsgType::kPropose:
      base = pr.cpu_validate_fixed +
             pr.cpu_validate_per_msg *
                 static_cast<Time>(peek_propose_count(msg.payload));
      break;
    case MsgType::kWrite:
    case MsgType::kAccept:
    default:
      base = pr.cpu_vote;
      break;
  }
  // A verify-stage verdict means the MAC check + digest work already ran on
  // a verify worker; the order stage only pays the remainder.
  if (msg.verify_verdict != 0) {
    base = std::max<Time>(0, base - stage_verify_cost(msg));
  }
  return base;
}

// --- stage-pipeline hooks ----------------------------------------------------

bool Replica::stage_verifiable(const sim::WireMessage& msg) const {
  if (!started_ || msg.payload.empty()) return false;
  switch (peek_type(msg.payload)) {
    case MsgType::kRequest:
    case MsgType::kPropose:
    case MsgType::kWrite:
    case MsgType::kAccept:
      return true;
    default:
      // Control plane (view change, state transfer) and replies stay on the
      // serial path: rare, and their handling is entangled with view state.
      return false;
  }
}

Time Replica::stage_verify_cost(const sim::WireMessage& msg) const {
  if (msg.payload.empty()) return 0;
  const auto& pr = env().profile();
  // Each share is clamped by its serial constant so the residual order-stage
  // cost in service_cost can never go negative, whatever the profile says.
  switch (peek_type(msg.payload)) {
    case MsgType::kRequest:
      return std::min(pr.cpu_verify_request, pr.cpu_request_admission);
    case MsgType::kPropose:
      return std::min(pr.cpu_verify_propose_fixed, pr.cpu_validate_fixed) +
             std::min(pr.cpu_verify_per_msg, pr.cpu_validate_per_msg) *
                 static_cast<Time>(peek_propose_count(msg.payload));
    case MsgType::kWrite:
    case MsgType::kAccept:
      return std::min(pr.cpu_verify_vote, pr.cpu_vote);
    default:
      return 0;
  }
}

void Replica::stage_precompute(sim::WireMessage& msg) const {
  // Stamp the PROPOSE batch digest: the wire bytes past the fixed header ARE
  // the canonical batch encoding (see handle_propose), so the digest is a
  // pure function of the message — safe on a verify worker.
  if (msg.payload.size() <= kProposeBatchOffset) return;
  if (peek_type(msg.payload) != MsgType::kPropose) return;
  msg.batch_digest =
      Sha256::hash(msg.payload.view().subspan(kProposeBatchOffset));
  msg.has_batch_digest = true;
}

sim::StageBackend* Replica::exec_stage() const {
  sim::StageBackend* stages = env().stages();
  return (stages != nullptr && stages->exec_shards() > 0) ? stages : nullptr;
}

bool Replica::sim_exec_model_on() const {
  const auto& pr = env().profile();
  // Pure simulation only: a real backend executes on real shard threads, and
  // under the wall-clock profile cpu_execute_per_msg is 0 so the model stays
  // inert even if shards are configured without a StagePool.
  return env().stages() == nullptr && pr.exec_shards > 0 &&
         pr.cpu_execute_per_msg > 0;
}

void Replica::on_message(const sim::WireMessage& msg) {
  if (!started_ || msg.payload.empty()) return;
  if (!verify(msg)) return;  // unauthenticated traffic is dropped
  if (msg.verify_verdict != 0) ++counters_.staged_verifies;
  Reader r(msg.payload);
  const auto type = static_cast<MsgType>(r.u8());
  switch (type) {
    case MsgType::kRequest:
      handle_request(msg, r);
      break;
    case MsgType::kPropose:
      handle_propose(msg, r);
      break;
    case MsgType::kWrite:
    case MsgType::kAccept:
      handle_vote(type, msg, r);
      break;
    case MsgType::kStop:
      handle_stop(msg, r);
      break;
    case MsgType::kStopData:
      handle_stopdata(msg, r);
      break;
    case MsgType::kSync:
      handle_sync(msg, r);
      break;
    case MsgType::kStateRequest:
      handle_state_request(msg, r);
      break;
    case MsgType::kStateResponse:
      handle_state_response(msg, r);
      break;
    case MsgType::kFrontier:
      handle_frontier(msg, r);
      break;
    case MsgType::kReply:
    case MsgType::kReplyBatch:
      break;  // replicas do not consume replies
  }
}

// --- request admission ------------------------------------------------------

void Replica::handle_request(const sim::WireMessage& msg, Reader& r) {
  Request req = decode_request(r);
  // A request is admitted only if its claimed origin is the authenticated
  // wire-level sender: a Byzantine process can inject content as itself but
  // cannot impersonate others.
  if (req.origin != msg.from || req.group != group_) {
    ++counters_.rejected_requests;
    return;
  }
  if (req.reconfig && (!admin_.valid() || req.origin != admin_)) {
    ++counters_.rejected_requests;  // unauthorized membership change
    return;
  }
  admit_request(std::move(req), &msg);
}

void Replica::admit_request(Request req, const sim::WireMessage* wire) {
  const MessageId rid = req.id();
  if (decided_requests_.contains(rid) || pending_since_.contains(rid)) return;
  AdmitInfo info;
  info.admitted = now();
  if (wire != nullptr) {
    info.wire_sent = wire->sent_at;
    info.wire_enqueued = wire->enqueued_at;
    info.wire_svc_start = wire->svc_start;
  }
  pending_since_.emplace(rid, info);
  pending_.push_back(std::move(req));
  maybe_start_consensus();
}

std::uint64_t Replica::pipeline_depth() const {
  return std::max<std::uint64_t>(1, env().profile().pipeline_depth);
}

Time Replica::window_delay() const { return env().profile().batch_timeout; }

void Replica::maybe_start_consensus() {
  if (!is_leader() || !view_active_ || pending_.empty()) return;
  // The next proposal slot is one past the highest open instance; bail when
  // the pipeline window is full (re-invoked from decide()).
  const std::uint64_t slot =
      open_.empty() ? next_instance_ : open_.rbegin()->first + 1;
  if (slot >= next_instance_ + pipeline_depth()) return;

  const auto& pr = env().profile();
  if (batch_target_ == 0) batch_target_ = std::max<std::uint32_t>(1, pr.batch_max);

  if (window_armed_) {
    // Early cut: the backlog already fills the adaptive target — no point
    // waiting out the rest of the window. The residual fixed assembly work
    // is still paid as busy CPU, and the target grows (the backlog arrives
    // faster than the window drains it).
    if (pending_.size() >= batch_target_) {
      ++window_epoch_;  // the armed timer is now stale; it must not re-cut
      window_armed_ = false;
      const Time residual =
          std::max<Time>(0, window_delay() - (now() - window_armed_at_));
      consume_cpu(residual);
      batch_target_ = std::min<std::uint32_t>(
          std::max<std::uint32_t>(1, pr.batch_max), batch_target_ * 2);
      ++counters_.early_batch_cuts;
      do_propose();
    }
    return;
  }
  // The fixed proposal cost is modeled as a real assembly delay: the batch
  // is cut when the delay elapses, so requests arriving meanwhile ride the
  // same consensus instance (BFT-SMaRt's batching behaviour), and a single
  // client's latency includes the leader's proposal work. The firing is
  // tagged with (view, epoch): a timer armed under leadership assumptions
  // that no longer hold is dropped.
  window_armed_ = true;
  window_view_ = view_;
  window_armed_at_ = now();
  const std::uint64_t armed_view = view_;
  const std::uint64_t armed_epoch = window_epoch_;
  schedule_in(window_delay(), [this, armed_view, armed_epoch] {
    if (crashed()) return;
    if (armed_epoch != window_epoch_ || !window_armed_) {
      ++counters_.stale_window_drops;  // superseded by an early cut or reset
      return;
    }
    window_armed_ = false;
    if (armed_view != view_ || !view_active_ || !is_leader()) {
      ++counters_.stale_window_drops;  // armed in a view we no longer lead
      return;
    }
    if (pending_.size() >= batch_target_) {
      // The window elapsed with a full backlog (the pipeline was saturated,
      // so no intermediate call got to cut early): classify as a full cut
      // and grow, exactly as the early-cut path would.
      batch_target_ = std::min<std::uint32_t>(
          std::max<std::uint32_t>(1, env().profile().batch_max),
          batch_target_ * 2);
      ++counters_.early_batch_cuts;
    } else {
      // Window expired underfull: shrink the target toward the observed
      // backlog so future bursts cut without waiting the full window. With
      // batch_min == batch_max the floor holds the target at batch_max, so
      // every cut waits out the full window (fixed batching).
      if (pending_.size() < batch_target_ / 2) {
        batch_target_ = std::max<std::uint32_t>(
            std::max<std::uint32_t>(1, env().profile().batch_min),
            batch_target_ / 2);
      }
      ++counters_.timer_batch_cuts;
    }
    do_propose();
  });
}

Batch Replica::cut_batch() {
  const auto& pr = env().profile();
  const std::size_t take = std::min<std::size_t>(
      pending_.size(), std::max<std::uint32_t>(1, pr.batch_max));
  Batch batch;
  batch.reserve(take);
  for (std::size_t i = 0; i < take; ++i) {
    Request& req = pending_.front();
    const auto it = pending_since_.find(req.id());
    if (it != pending_since_.end()) it->second.inflight = true;
    // Moving the Request shares the ref-counted payload; no byte copy.
    batch.push_back(std::move(req));
    pending_.pop_front();
  }
  return batch;
}

void Replica::do_propose() {
  if (!is_leader() || !view_active_ || pending_.empty()) return;
  const std::uint64_t slot =
      open_.empty() ? next_instance_ : open_.rbegin()->first + 1;
  if (slot >= next_instance_ + pipeline_depth()) return;  // window full
  const auto& pr = env().profile();
  Batch batch = cut_batch();
  if (batch.empty()) return;

  consume_cpu(pr.cpu_propose_per_msg * static_cast<Time>(batch.size()));
  ++counters_.proposals_made;

  if (faults_.equivocate_propose && batch.size() >= 1) {
    // Send batch A to the first half of the peers and a reordered batch B to
    // the rest. The WRITE quorum intersection ensures at most one decides.
    Batch alt(batch.rbegin(), batch.rend());
    if (alt.size() == 1) {
      // Single request: corrupt the copy instead (payloads are immutable
      // shared buffers, so rebuild the op with a trailing byte).
      Bytes corrupted(alt[0].op.data(), alt[0].op.data() + alt[0].op.size());
      corrupted.push_back(0xEE);
      alt[0].op = Buffer(std::move(corrupted));
    }
    const Propose pa{view_, slot, batch};
    const Propose pb{view_, slot, alt};
    const Buffer ea{pa.encode()};
    const Buffer eb{pb.encode()};
    std::size_t k = 0;
    for (const ProcessId peer : info_.replicas()) {
      if (peer == id()) continue;
      send(peer, (k++ % 2 == 0) ? ea : eb);
    }
    accept_proposal(view_, slot, std::move(batch));
    return;
  }
  // One serialization feeds both the consensus digest and the wire encoding,
  // and the encoded PROPOSE fans out as one shared buffer.
  const Bytes encoded_batch = encode_batch(batch);
  const Digest digest = Sha256::hash(encoded_batch);
  broadcast(Propose::encode_with(view_, slot, encoded_batch));
  accept_proposal(view_, slot, std::move(batch), &digest);
  // Remaining backlog may warrant arming the next window right away (the
  // pipeline permits further instances before this one decides).
  maybe_start_consensus();
}

// --- consensus ---------------------------------------------------------------

void Replica::handle_propose(const sim::WireMessage& msg, Reader& r) {
  Propose p = Propose::decode(r);
  // A Byzantine leader could append garbage past the encoded batch; the
  // slice hash below would then differ from batch_digest(p.batch) and split
  // honest replicas into distinct digest camps for one batch. With trailing
  // bytes rejected the fixed-width codec is bijective and the slice IS the
  // canonical encoding.
  if (!r.exhausted()) return;
  if (msg.from != leader_of(p.view)) return;  // only the view's leader
  if (p.view > view_) max_seen_view_ = std::max(max_seen_view_, p.view);
  // The wire bytes past the fixed header ARE the encoded batch; hashing the
  // slice gives batch_digest(p.batch) without a second serialization (the
  // codec is canonical: decode∘encode is the identity on encodings). The
  // verify stage precomputes this digest off the critical path when on.
  const Digest digest =
      msg.has_batch_digest
          ? msg.batch_digest
          : Sha256::hash(msg.payload.view().subspan(kProposeBatchOffset));
  accept_proposal(p.view, p.instance, std::move(p.batch), &digest);
}

void Replica::accept_proposal(std::uint64_t view, std::uint64_t instance,
                              Batch batch, const Digest* digest) {
  if (instance < next_instance_) return;  // already decided
  if (instance >= next_instance_ + pipeline_depth()) {
    // Beyond our window: we are behind regardless of views.
    max_seen_instance_ = std::max(max_seen_instance_, instance);
    request_state_transfer();
    return;
  }
  if (view != view_ || !view_active_) return;
  const auto [it, inserted] = open_.try_emplace(instance);
  OpenConsensus& oc = it->second;
  if (!inserted && oc.proposal) return;  // one proposal per (view, instance)

  oc.instance = instance;
  oc.view = view;
  oc.digest = digest != nullptr ? *digest : batch_digest(batch);
  oc.proposal = std::move(batch);
  oc.sent_write = true;
  oc.proposed_at = now();
  pipeline_high_water_ = std::max(pipeline_high_water_, open_.size());

  const Vote write{MsgType::kWrite, view, instance, oc.digest};
  votes_[VoteKey{instance, view, false, oc.digest}].insert(id());
  broadcast(write.encode());
  check_quorums();
}

void Replica::handle_vote(MsgType type, const sim::WireMessage& msg,
                          Reader& r) {
  const Vote v = Vote::decode(type, r);
  if (v.instance < next_instance_) return;  // stale
  if (!info_.is_member(msg.from)) return;
  auto& voters =
      votes_[VoteKey{v.instance, v.view, type == MsgType::kAccept, v.digest}];
  voters.insert(msg.from);
  if (v.view > view_) max_seen_view_ = std::max(max_seen_view_, v.view);
  if (voters.size() >= static_cast<std::size_t>(f_ + 1)) {
    if (v.phase == MsgType::kAccept) {
      // f+1 ACCEPTs mean this instance is about to decide at correct
      // replicas: remember it so anti-entropy fetches it even if we lost
      // the proposal (e.g. it raced with our own catch-up).
      max_seen_instance_ = std::max(max_seen_instance_, v.instance + 1);
    }
    if (v.instance >= next_instance_ + pipeline_depth()) {
      // Votes for instances in [next_instance_, next_instance_ + depth) are
      // normal under pipelining (their PROPOSE may simply trail the votes);
      // only evidence past the window means the group moved on without us
      // (partition, recovery). Catch up.
      max_seen_instance_ = std::max(max_seen_instance_, v.instance);
      request_state_transfer();
    }
  }
  check_quorums();
}

void Replica::check_quorums() {
  const auto quorum = static_cast<std::size_t>(info_.quorum());
  for (auto& [instance, oc] : open_) {
    if (!oc.proposal || oc.decided) continue;

    if (!oc.sent_accept) {
      const auto it = votes_.find(VoteKey{instance, oc.view, false, oc.digest});
      if (it == votes_.end() || it->second.size() < quorum) continue;
      oc.sent_accept = true;
      oc.write_quorum_at = now();
      const Vote accept{MsgType::kAccept, oc.view, instance, oc.digest};
      votes_[VoteKey{instance, oc.view, true, oc.digest}].insert(id());
      broadcast(accept.encode());
    }

    const auto it = votes_.find(VoteKey{instance, oc.view, true, oc.digest});
    if (it == votes_.end() || it->second.size() < quorum) continue;
    // ACCEPT quorum complete. Decisions apply strictly in instance order, so
    // an out-of-order completion is buffered until the window's front
    // catches up (advance_decided below).
    oc.decided = true;
    if (instance != next_instance_) ++counters_.buffered_decisions;
  }
  advance_decided();
}

void Replica::advance_decided() {
  if (advancing_) return;  // decide() can re-enter via its own handlers
  advancing_ = true;
  while (true) {
    const auto it = open_.find(next_instance_);
    if (it == open_.end() || !it->second.decided) break;
    OpenConsensus oc = std::move(it->second);
    open_.erase(it);
    decide(std::move(*oc.proposal), oc.proposed_at, oc.write_quorum_at);
  }
  advancing_ = false;
}

void Replica::decide(Batch batch, Time proposed_at, Time write_quorum_at) {
  BZC_ASSERT(log_base_ + log_.size() == next_instance_);
  log_.push_back(batch);
  ++next_instance_;
  max_decided_batch_ = std::max(max_decided_batch_, batch.size());

  if (MetricsRegistry* reg = env().metrics()) {
    if (batch_size_hist_ == nullptr) {
      batch_size_hist_ = &reg->histogram(
          "replica.batch_size." + to_string(group_),
          {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
    }
    batch_size_hist_->observe(static_cast<double>(batch.size()));
  }

  // Consensus instances we were still running below the new frontier (e.g.
  // adopted through state transfer after an equivocating leader split the
  // proposals) are obsolete; drop them so later proposals are accepted.
  while (!open_.empty() && open_.begin()->first < next_instance_) {
    open_.erase(open_.begin());
  }

  SpanLog* spans = env().spans();
  if (spans != nullptr && spans->actor_spans() && proposed_at >= 0) {
    spans->record(Span{MessageId{}, SpanKind::kConsensusInstance, group_, id(),
                       proposed_at, now(),
                       static_cast<std::int64_t>(next_instance_ - 1)});
  }

  std::unordered_set<MessageId> in_batch;
  in_batch.reserve(batch.size());
  for (const auto& req : batch) {
    const MessageId rid = req.id();
    in_batch.insert(rid);
    decided_requests_.insert(rid);
    if (spans != nullptr) {
      // Freeze this request's pipeline timing now: execution may be held
      // back by the per-origin FIFO until a later decide, but its stages
      // belong to this instance.
      ExecTiming t;
      const auto ait = pending_since_.find(rid);
      if (ait != pending_since_.end()) {
        t.wire_sent = ait->second.wire_sent;
        t.wire_enqueued = ait->second.wire_enqueued;
        t.wire_svc_start = ait->second.wire_svc_start;
        t.admitted = ait->second.admitted;
      }
      t.proposed = proposed_at;
      t.write_quorum = write_quorum_at;
      t.decided = now();
      exec_info_.insert_or_assign(rid, t);
    }
    pending_since_.erase(rid);
  }
  std::erase_if(pending_,
                [&in_batch](const Request& req) {
                  return in_batch.contains(req.id());
                });
  // Progress restarts the suspicion clock of every request still pending.
  progress_at_ = now();

  // Garbage-collect votes below the decided frontier.
  while (!votes_.empty() && votes_.begin()->first.instance < next_instance_) {
    votes_.erase(votes_.begin());
  }

  execute_batch(batch);
  maybe_checkpoint();
  maybe_start_consensus();
}

// --- execution (total order -> per-origin FIFO -> application) ---------------

void Replica::execute_batch(const Batch& batch) {
  // Return-path batching: every reply produced while this decided batch
  // executes (including held-back requests that unblock now) is buffered and
  // flushed as one wire message per origin.
  buffer_replies_ = true;
  if (sim_exec_model_on()) {
    exec_bucket_.assign(env().profile().exec_shards, 0);
    exec_deferred_total_ = 0;
  }
  for (const auto& req : batch) deliver_fifo(req);
  if (!exec_bucket_.empty()) {
    // Shard-makespan model: the deferred work of this batch ran spread over
    // S buckets (least-loaded-first), so the order stage only stalls for the
    // longest bucket. Refund the rest of the serially-charged cost.
    const Time makespan =
        *std::max_element(exec_bucket_.begin(), exec_bucket_.end());
    consume_cpu(-(exec_deferred_total_ - makespan));
    exec_bucket_.clear();
  }
  buffer_replies_ = false;
  flush_replies();
}

void Replica::flush_replies() {
  for (auto& [origin, replies] : reply_buffer_) {
    BZC_ASSERT(!replies.empty());
    if (replies.size() == 1) {
      send(origin, replies.front().encode());
    } else {
      send(origin, ReplyBatch{std::move(replies)}.encode());
    }
  }
  reply_buffer_.clear();
}

void Replica::deliver_fifo(const Request& req) {
  auto& next = fifo_next_[req.origin];
  if (req.seq < next) return;  // duplicate of an executed request
  if (req.seq > next) {
    holdback_[req.origin].emplace(req.seq, req);
    return;
  }
  execute_one(req);
  ++next;
  auto& hb = holdback_[req.origin];
  for (auto it = hb.find(next); it != hb.end(); it = hb.find(next)) {
    execute_one(it->second);
    hb.erase(it);
    ++next;
  }
}

void Replica::execute_one(const Request& req) {
  ++executed_;
  if (!exec_info_.empty()) {
    const auto it = exec_info_.find(req.id());
    if (it != exec_info_.end()) {
      cur_exec_timing_ = it->second;
      executing_timed_ = true;
      exec_info_.erase(it);
    }
  }
  // Fold the request into the rolling history digest (replicas of a group
  // must agree on it — checked by tests).
  history_digest_ = extend_history(history_digest_, req);

  consume_cpu(env().profile().cpu_execute_per_msg);
  if (req.reconfig) {
    // Reconfiguration mutates replica state; always serial.
    apply_reconfig(req);
  } else if (sim::StageBackend* shards = exec_stage()) {
    // Runtime exec sharding: the ordering-relevant part ran inside
    // execute_staged; the deferred remainder goes to a shard keyed by the
    // request's destination key, and its replies release through the
    // per-origin FIFO barrier in delivery order (§II-B).
    StagedExec staged = app_->execute_staged(req);
    if (staged.deferred) {
      ++counters_.deferred_execs;
      if (exec_barrier_ == nullptr) {
        exec_barrier_ = std::make_unique<ExecBarrier>(
            [this](ProcessId to, Buffer payload) {
              send_from_stage(to, std::move(payload));
            });
      }
      const ProcessId origin = req.origin;
      const std::uint64_t ticket = exec_barrier_->open(origin);
      shards->submit_exec(
          staged.key, [this, origin, ticket, work = std::move(staged.deferred)] {
            std::vector<ExecBarrier::PendingSend> sends;
            t_stage_sends = &sends;
            work();
            t_stage_sends = nullptr;
            exec_barrier_->complete(origin, ticket, std::move(sends));
          });
    }
  } else if (sim_exec_model_on()) {
    // Simulated exec sharding: run the deferred part inline (deterministic),
    // but price it onto the least-loaded shard bucket; execute_batch refunds
    // the serial sum down to the bucket makespan afterwards.
    const Time before = consumed_cpu();
    StagedExec staged = app_->execute_staged(req);
    if (staged.deferred) {
      ++counters_.deferred_execs;
      staged.deferred();
      // Deferrable cost = the per-request execute constant (charged above)
      // plus whatever app CPU the deferred part declared while running.
      const Time cost =
          consumed_cpu() - before + env().profile().cpu_execute_per_msg;
      if (!exec_bucket_.empty() && cost > 0) {
        auto it = std::min_element(exec_bucket_.begin(), exec_bucket_.end());
        *it += cost;
        exec_deferred_total_ += cost;
      }
    }
  } else {
    app_->execute(req);
  }
  executing_timed_ = false;
}

void Replica::apply_reconfig(const Request& req) {
  // Defense in depth: the admission filter already enforces this, but the
  // request may arrive through state transfer from before admin changes.
  if (!admin_.valid() || req.origin != admin_) return;
  std::vector<ProcessId> next = decode_membership(req.op);
  if (static_cast<int>(next.size()) != 3 * f_ + 1) return;
  for (const ProcessId p : next) {
    if (!p.valid()) return;
  }
  info_.set_replicas(std::move(next));
  if (!info_.is_member(id())) {
    // We were reconfigured out; retire (BFT-SMaRt shuts the replica down).
    removed_ = true;
    crash();
    return;
  }
  standby_ = false;
  // Leadership may have moved onto or off us; resume proposing if due.
  maybe_start_consensus();
}

void Replica::maybe_checkpoint() {
  if (log_.size() < env().profile().checkpoint_period) return;
  checkpoint_snapshot_ = make_snapshot();
  checkpoint_instance_ = next_instance_;
  log_base_ = next_instance_;
  log_.clear();
  ++counters_.checkpoints_taken;
}

void Replica::send_reply(const Request& req, Bytes result) {
  if (faults_.corrupt_replies) {
    // Replica-specific garbage (a faulty-but-not-colluding replica).
    // Colluding replicas that agree on identical wrong bytes can only fool
    // a client when more than f are faulty — outside the fault model.
    result.assign(result.size() + 1, 0xBD);
    result.push_back(static_cast<std::uint8_t>(id().value));
  }
  Reply rep{group_, req.seq, std::move(result)};
  if (t_stage_sends != nullptr) {
    // Shard thread: collect behind this request's barrier ticket; the
    // barrier releases the send once every earlier ticket of the same
    // origin completed.
    t_stage_sends->emplace_back(req.origin, Buffer(rep.encode()));
    return;
  }
  if (buffer_replies_) {
    reply_buffer_[req.origin].push_back(std::move(rep));
  } else {
    send(req.origin, rep.encode());
  }
}

void Replica::send_request(ProcessId to, const Request& req) {
  send(to, encode_request(req));
}

void Replica::send_request(const std::vector<ProcessId>& dsts,
                           const Request& req) {
  const Buffer encoded{encode_request(req)};
  for (const ProcessId to : dsts) send(to, encoded);
}

// --- view change --------------------------------------------------------------

void Replica::arm_liveness_timer() {
  const Time period = env().profile().leader_timeout / 2;
  schedule_in(period, [this] {
    if (crashed()) return;
    on_liveness_check();
    arm_liveness_timer();
  });
}

void Replica::on_liveness_check() {
  const Time timeout = env().profile().leader_timeout;
  // Anti-entropy: credible evidence says the group decided past us, and the
  // earlier (rate-limited) transfer did not close the gap — retry. Under
  // pipelining, evidence ahead of next_instance_ is normal while we hold an
  // open consensus at the frontier (its decision is simply in flight); only
  // a missing frontier instance means we lost a proposal and must fetch it.
  if (max_seen_instance_ > next_instance_ && !open_.contains(next_instance_)) {
    request_state_transfer();
  }
  // View catch-up: peers operate in a later view (we missed its STOP
  // quorum, e.g. while partitioned). Broadcasting a STOP for that view makes
  // every up-to-date peer echo theirs, giving us the 2f+1 evidence to
  // install it; the leader then re-sends its SYNC (handle_stopdata).
  if (max_seen_view_ > view_) {
    stop_votes_[max_seen_view_].insert(id());
    broadcast(Stop{max_seen_view_}.encode());
  }
  if (view_active_) {
    if (pending_since_.empty()) return;
    Time oldest = now();
    for (const auto& [rid, info] : pending_since_) {
      oldest = std::min(oldest, info.admitted);
    }
    if (now() - std::max(oldest, progress_at_) > timeout) {
      request_view_change(view_ + 1);
    }
  } else {
    // Stuck synchronization phase (e.g. the new leader is also faulty).
    if (now() - view_change_started_ > timeout) {
      request_view_change(view_ + 1);
    }
  }
}

void Replica::request_view_change(std::uint64_t next_view) {
  // Re-broadcasting the same STOP is allowed (and needed): the first
  // attempt may have been lost to a partition, and peers answer every STOP
  // with a Frontier, which is how a lagging replica discovers it fell
  // behind rather than the leader having failed.
  if (next_view <= view_ || next_view < stop_requested_for_) return;
  stop_requested_for_ = next_view;
  stop_votes_[next_view].insert(id());
  broadcast(Stop{next_view}.encode());
  if (stop_votes_[next_view].size() >=
      static_cast<std::size_t>(info_.quorum())) {
    install_view(next_view);
  }
}

void Replica::handle_stop(const sim::WireMessage& msg, Reader& r) {
  const Stop s = Stop::decode(r);
  if (!info_.is_member(msg.from)) return;
  // Whatever we do with the STOP, tell the sender how far we are: a replica
  // that suspects a live system is usually one that fell behind (this is
  // our stand-in for Mod-SMaRt's request forwarding on STOP).
  send(msg.from, Frontier{view_, next_instance_}.encode());
  if (s.next_view <= view_) {
    // The sender lags behind our view; echo our STOP so it can collect the
    // f+1 evidence it needs to join the present. At most once per (peer,
    // view): the laggard needs one STOP from each of f+1 peers, and an
    // unconditional echo answers an echo with an echo — two replicas in the
    // same view with stop evidence for it ping-pong STOPs at wire speed.
    auto& echoed = stop_echoed_[msg.from];
    if ((s.next_view < view_ || stop_requested_for_ >= view_) &&
        echoed < view_) {
      echoed = view_;
      send(msg.from, Stop{view_}.encode());
    }
    return;
  }
  auto& voters = stop_votes_[s.next_view];
  voters.insert(msg.from);
  // f+1 STOPs prove at least one correct replica suspects: join.
  if (voters.size() >= static_cast<std::size_t>(f_ + 1) &&
      stop_requested_for_ < s.next_view) {
    stop_requested_for_ = s.next_view;
    voters.insert(id());
    broadcast(Stop{s.next_view}.encode());
  }
  if (voters.size() >= static_cast<std::size_t>(info_.quorum())) {
    install_view(s.next_view);
  }
}

void Replica::install_view(std::uint64_t next_view) {
  if (next_view <= view_) return;
  ++counters_.views_installed;
  view_ = next_view;
  view_active_ = false;
  view_change_started_ = now();
  // Any armed assembly window belongs to the old view; its timer must not
  // cut a batch under the new one.
  ++window_epoch_;
  window_armed_ = false;

  StopData sd;
  sd.next_view = next_view;
  sd.next_instance = next_instance_;
  for (const auto& [instance, oc] : open_) {
    if (oc.proposal && oc.sent_write) {
      sd.values.push_back(OpenValue{instance, oc.view, *oc.proposal});
    }
  }
  // Requests this replica cut into its own (now abandoned) open proposals
  // are re-queued at the front of pending_, in instance order, so the new
  // view can re-propose them; requests the new leader recovers via STOPDATA
  // anyway are deduplicated at decide time.
  Batch requeue;
  for (auto& [instance, oc] : open_) {
    if (!oc.proposal) continue;
    for (auto& req : *oc.proposal) {
      const auto pit = pending_since_.find(req.id());
      if (pit != pending_since_.end() && pit->second.inflight) {
        pit->second.inflight = false;
        requeue.push_back(std::move(req));
      }
    }
  }
  pending_.insert(pending_.begin(), std::make_move_iterator(requeue.begin()),
                  std::make_move_iterator(requeue.end()));
  open_.clear();

  const ProcessId leader = leader_of(next_view);
  if (leader == id()) {
    stopdata_[next_view][id()] = std::move(sd);
    leader_try_sync();
  } else {
    send(leader, sd.encode());
  }
}

void Replica::handle_stopdata(const sim::WireMessage& msg, Reader& r) {
  StopData sd = StopData::decode(r);
  if (!info_.is_member(msg.from)) return;
  if (leader_of(sd.next_view) != id()) return;
  if (sd.next_view < view_) return;
  // Reported open values must lie within the reporter's window, in strictly
  // increasing instance order; a malformed report (Byzantine) is dropped.
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < sd.values.size(); ++i) {
    const std::uint64_t inst = sd.values[i].instance;
    if (inst < sd.next_instance ||
        inst >= sd.next_instance + pipeline_depth() ||
        (i > 0 && inst <= prev)) {
      return;
    }
    prev = inst;
  }
  if (sd.next_view == view_ && view_active_) {
    // A replica that installed our view late still needs the SYNC to become
    // active; re-send the one we activated the view with.
    const auto it = sync_sent_.find(view_);
    if (it != sync_sent_.end()) send(msg.from, it->second.encode());
    return;
  }
  stopdata_[sd.next_view][msg.from] = std::move(sd);
  leader_try_sync();
}

void Replica::leader_try_sync() {
  if (view_active_ || leader_of(view_) != id()) return;
  auto it = stopdata_.find(view_);
  if (it == stopdata_.end()) return;
  auto& collected = it->second;
  if (!collected.contains(id())) return;  // must have installed ourselves
  if (collected.size() < static_cast<std::size_t>(info_.quorum())) return;

  std::uint64_t h = next_instance_;
  for (const auto& [pid, sd] : collected) h = std::max(h, sd.next_instance);

  if (next_instance_ < h) {
    // We are behind the quorum's decided frontier; catch up first, then the
    // state-transfer completion path re-invokes this function.
    request_state_transfer();
    return;
  }

  // Re-propose the whole surviving window [h, end). For each instance, pick
  // the safe value: a value decided in an earlier view had 2f+1 WRITErs, so
  // any 2f+1 STOPDATA contain at least f+1 reports of it — and no two
  // values can both collect f+1 reports out of 2f+1. Therefore: re-propose
  // the value with >= f+1 matching reports at that instance if one exists;
  // otherwise nothing was decided there and a fresh batch is safe (possibly
  // empty, a no-op filler keeping the re-proposed instances consecutive).
  // (Byzantine STOPDATA could lie; production protocols carry signed WRITE
  // certificates. Our fault specs do not include lying in STOPDATA — see
  // DESIGN.md §3.) Reported instances are bounded by each reporter's window
  // (validated in handle_stopdata), so end - h <= pipeline_depth.
  std::uint64_t end = h + 1;  // always re-propose at least instance h
  for (const auto& [pid, sd] : collected) {
    for (const auto& v : sd.values) {
      if (v.instance >= h) end = std::max(end, v.instance + 1);
    }
  }

  // Quorum members behind our frontier cannot accept re-proposals for
  // instances they have not decided yet, and f+1-matching state transfer
  // cannot serve history that only this replica holds (e.g. an instance
  // whose ACCEPT quorum completed at the old leader's side of a partition
  // alone). Prepend the decided batches [lo, h) so the SYNC itself carries
  // the laggards to the frontier; anything below our log base must still go
  // through snapshot transfer.
  std::uint64_t lo = h;
  for (const auto& [pid, sd] : collected) lo = std::min(lo, sd.next_instance);
  lo = std::max(lo, log_base_);

  std::vector<Batch> batches;
  batches.reserve(static_cast<std::size_t>(end - lo));
  for (std::uint64_t instance = lo; instance < h; ++instance) {
    batches.push_back(log_[static_cast<std::size_t>(instance - log_base_)]);
  }
  for (std::uint64_t instance = h; instance < end; ++instance) {
    Batch chosen;
    bool has_chosen = false;
    std::map<Digest, std::pair<std::size_t, const Batch*>> reports;
    for (const auto& [pid, sd] : collected) {
      for (const auto& v : sd.values) {
        if (v.instance != instance) continue;
        auto& entry = reports[batch_digest(v.value)];
        ++entry.first;
        entry.second = &v.value;
      }
    }
    for (const auto& [digest, entry] : reports) {
      if (entry.first >= static_cast<std::size_t>(f_ + 1)) {
        has_chosen = true;
        chosen = *entry.second;
        break;
      }
    }
    if (!has_chosen) chosen = cut_batch();  // same sizing as do_propose
    batches.push_back(std::move(chosen));
  }

  const Sync sync{view_, lo, h, batches};
  sync_sent_[view_] = sync;
  broadcast(sync.encode());
  view_active_ = true;
  for (std::uint64_t instance = h; instance < end; ++instance) {
    accept_proposal(view_, instance,
                    batches[static_cast<std::size_t>(instance - lo)]);
  }
  maybe_start_consensus();
}

void Replica::handle_sync(const sim::WireMessage& msg, Reader& r) {
  Sync s = Sync::decode(r);
  if (msg.from != leader_of(s.next_view)) return;
  if (s.next_view > view_) {
    max_seen_view_ = std::max(max_seen_view_, s.next_view);
    return;
  }
  if (s.next_view != view_) return;
  if (view_active_) return;
  if (s.batches.empty()) return;
  // The decided prefix / open window split must be well-formed and the
  // re-proposed window bounded by the pipeline depth (a Byzantine leader
  // could otherwise stretch either part arbitrarily).
  const std::uint64_t end = s.instance + s.batches.size();
  if (s.open_from < s.instance || s.open_from > end) return;
  if (end - s.open_from > pipeline_depth()) return;
  if (s.instance > next_instance_) {
    // Even the prefix starts past us: our gap reaches below the leader's
    // log base, which only a checkpoint snapshot can close.
    request_state_transfer();
    return;
  }
  if (end <= next_instance_) {
    view_active_ = true;  // we already decided all of it; just resume
    maybe_start_consensus();
    return;
  }
  view_active_ = true;
  for (std::size_t i = 0; i < s.batches.size(); ++i) {
    const std::uint64_t instance = s.instance + i;
    if (instance < next_instance_) continue;  // already decided here
    if (instance < s.open_from) {
      // Decided-history catch-up: apply directly, like a state-transfer
      // tail. Trusting the new leader here matches the trust the safe-value
      // rule already places in SYNC contents (DESIGN.md §3: view-change
      // messages do not lie in our fault model).
      decide(std::move(s.batches[i]));
      continue;
    }
    accept_proposal(view_, instance, std::move(s.batches[i]));
  }
  maybe_start_consensus();
}

void Replica::handle_frontier(const sim::WireMessage& msg, Reader& r) {
  const Frontier f = Frontier::decode(r);
  if (!info_.is_member(msg.from)) return;
  // A single claim cannot be trusted, but acting on it is safe: state
  // transfer applies nothing without f+1 matching responses, and the view
  // catch-up path needs 2f+1 STOPs. Worst case a Byzantine frontier costs
  // one rate-limited request.
  if (f.next_instance > next_instance_) {
    max_seen_instance_ = std::max(max_seen_instance_, f.next_instance);
    request_state_transfer();
  }
  if (f.view > view_) max_seen_view_ = std::max(max_seen_view_, f.view);
}

// --- state transfer -------------------------------------------------------------

void Replica::request_state_transfer() {
  if (last_state_request_ >= 0 &&
      now() - last_state_request_ < 500 * kMillisecond) {
    return;
  }
  last_state_request_ = now();
  ++counters_.state_transfers;
  state_responses_.clear();
  broadcast(StateRequest{next_instance_}.encode());
}

void Replica::handle_state_request(const sim::WireMessage& msg, Reader& r) {
  const StateRequest req = StateRequest::decode(r);
  // Served to anyone: standby replicas must be able to bootstrap before
  // they appear in the membership. (Responses are cheap and rate-limiting
  // abusers is a transport concern outside this simulation's scope.)
  if (next_instance_ <= req.from_instance) return;  // nothing to offer

  StateResponse resp;
  std::uint64_t from = req.from_instance;
  if (from < log_base_) {
    resp.has_snapshot = true;
    resp.snapshot_instance = log_base_;
    resp.snapshot = checkpoint_snapshot_;
    from = log_base_;
  }
  resp.first_instance = from;
  for (std::uint64_t i = from; i < next_instance_; ++i) {
    resp.batches.push_back(log_[i - log_base_]);
  }
  send(msg.from, resp.encode());
}

void Replica::handle_state_response(const sim::WireMessage& msg, Reader& r) {
  if (!info_.is_member(msg.from)) return;
  state_responses_[msg.from] = StateResponse::decode(r);
  try_apply_state();
}

void Replica::try_apply_state() {
  const auto needed = static_cast<std::size_t>(f_ + 1);
  if (state_responses_.size() < needed) return;

  // Step 1: if we are below every offered log, adopt a snapshot vouched by
  // f+1 identical copies.
  std::map<std::pair<std::uint64_t, Digest>, std::size_t> snapshot_votes;
  for (const auto& [pid, resp] : state_responses_) {
    if (!resp.has_snapshot || resp.snapshot_instance <= next_instance_)
      continue;
    const auto key =
        std::make_pair(resp.snapshot_instance, Sha256::hash(resp.snapshot));
    if (++snapshot_votes[key] >= needed) {
      for (const auto& [pid2, resp2] : state_responses_) {
        if (resp2.has_snapshot && resp2.snapshot_instance == key.first &&
            Sha256::hash(resp2.snapshot) == key.second) {
          // Restore replica-local durable state.
          restore_snapshot(resp2.snapshot);
          next_instance_ = key.first;
          log_base_ = key.first;
          log_.clear();
          checkpoint_snapshot_ = resp2.snapshot;
          checkpoint_instance_ = key.first;
          // Consensus instances left open below the restored frontier are
          // obsolete and must not block proposals for the new frontier.
          while (!open_.empty() && open_.begin()->first < next_instance_) {
            open_.erase(open_.begin());
          }
          break;
        }
      }
      break;
    }
  }

  // Step 2: adopt decided batches instance by instance, each backed by f+1
  // matching copies.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    std::map<Digest, std::size_t> batch_votes;
    std::map<Digest, const Batch*> batch_by_digest;
    for (const auto& [pid, resp] : state_responses_) {
      const std::uint64_t idx_base = resp.first_instance;
      if (next_instance_ < idx_base) continue;
      const std::uint64_t offset = next_instance_ - idx_base;
      if (offset >= resp.batches.size()) continue;
      const Batch& candidate = resp.batches[offset];
      const Digest d = batch_digest(candidate);
      batch_by_digest[d] = &candidate;
      if (++batch_votes[d] >= needed) {
        decide(*batch_by_digest[d]);
        progressed = true;
        break;
      }
    }
  }

  // Catch-up may have landed us exactly below buffered out-of-order
  // decisions of our own window; apply them now.
  advance_decided();

  if (!view_active_ && leader_of(view_) == id()) leader_try_sync();
  maybe_start_consensus();
}

}  // namespace byzcast::bft
