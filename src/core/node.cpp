#include "core/node.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "common/log.hpp"
#include "common/monitor.hpp"
#include "common/span.hpp"

namespace byzcast::core {

namespace {

bool intersects(const std::set<GroupId>& reach,
                const std::vector<GroupId>& dst) {
  return std::any_of(dst.begin(), dst.end(),
                     [&reach](GroupId g) { return reach.contains(g); });
}

Bytes ack_bytes(BytesView raw_op) {
  // Digest of the encoded multicast message exactly as it was ordered; the
  // encoding is canonical, so hashing the delivered bytes equals hashing a
  // re-encode — minus one serialization per a-delivery.
  const Digest d = Sha256::hash(raw_op);
  return Bytes(d.begin(), d.begin() + 8);
}

}  // namespace

ByzCastNode::ByzCastNode(const OverlayTree& tree,
                         const GroupRegistry& registry, DeliveryLog& log,
                         bft::FaultSpec faults, Routing routing,
                         Observability obs)
    : tree_(tree),
      registry_(registry),
      log_(log),
      faults_(faults),
      routing_(routing),
      obs_(obs) {}

bool ByzCastNode::valid_destinations(const MulticastMessage& m) const {
  if (m.dst.empty()) return false;
  for (const GroupId g : m.dst) {
    if (!tree_.contains(g) || !tree_.is_target(g)) return false;
  }
  return std::is_sorted(m.dst.begin(), m.dst.end()) &&
         std::adjacent_find(m.dst.begin(), m.dst.end()) == m.dst.end();
}

GroupId ByzCastNode::entry_group(const MulticastMessage& m) const {
  return routing_ == Routing::kViaRoot ? tree_.root() : tree_.lca(m.dst);
}

void ByzCastNode::stamp_hop_spans(const MulticastMessage& m,
                                  Time first_seen) const {
  if (obs_.spans == nullptr || !m.traced()) return;
  const GroupId g = ctx_->group();
  const ProcessId self = ctx_->self();
  const Time now = ctx_->now();
  const auto hop = static_cast<std::int64_t>(m.hop);
  const auto put = [&](SpanKind kind, Time begin, Time end) {
    if (begin < 0 || end < 0) return;  // stage not observed locally
    obs_.spans->record(Span{m.id, kind, g, self, begin, end, hop});
  };
  // The triggering copy's pipeline through this replica, as captured by the
  // hosting bft::Replica. For a relayed message this is the (f+1)-th parent
  // copy — the one whose execution crossed the genuine-ordering threshold.
  if (const bft::ExecTiming* t = ctx_->exec_timing()) {
    put(SpanKind::kNetTransit, t->wire_sent, t->wire_enqueued);
    put(SpanKind::kMailboxWait, t->wire_enqueued, t->wire_svc_start);
    put(SpanKind::kCpuService, t->wire_svc_start, t->admitted);
    put(SpanKind::kConsensusQueue, t->admitted, t->proposed);
    put(SpanKind::kWriteQuorum, t->proposed, t->write_quorum);
    put(SpanKind::kAcceptQuorum, t->write_quorum, t->decided);
    put(SpanKind::kExecute, t->decided, now);
  }
  put(SpanKind::kOrderWait, first_seen, now);
}

void ByzCastNode::sweep_stale_copies() {
  const Time now = ctx_->now();
  if (now - last_sweep_ < pending_expiry_) return;
  last_sweep_ = now;
  // Entries below the f+1 threshold for a whole expiry period are almost
  // certainly fabricated (no correct parent replica ever relays them, so
  // they can never complete); reclaim them. A genuine message whose copies
  // straggle across the cutoff is re-counted from scratch if more copies
  // arrive — safe, merely slower.
  std::erase_if(copies_, [&](const auto& entry) {
    return now - entry.second.first_seen >= pending_expiry_;
  });
}

void ByzCastNode::execute(const bft::Request& req) {
  MulticastMessage m = MulticastMessage::decode(req.op);
  if (!valid_destinations(m)) return;

  sweep_stale_copies();

  const GroupId my_group = ctx_->group();
  const auto parent = tree_.parent(my_group);
  const bool from_parent =
      parent.has_value() && registry_.at(*parent).is_member(req.origin);

  if (from_parent) {
    if (handled_.contains(m.id)) {
      ctx_->consume_app_cpu(1);  // late duplicate: digest lookup only
      return;
    }
    auto& pending = copies_[m.id];
    if (pending.senders.empty()) pending.first_seen = ctx_->now();
    pending.senders.insert(req.origin);
    if (obs_.monitors != nullptr) {
      obs_.monitors->on_pending_copies(my_group, ctx_->self(), copies_.size(),
                                       ctx_->now());
    }
    if (static_cast<int>(pending.senders.size()) >= ctx_->f() + 1) {
      // (f+1)-th x_k-delivery of m: at least one correct parent replica
      // relayed it, so m was genuinely ordered above us (Algorithm 1 l.9).
      const Time first_seen = pending.first_seen;
      copies_.erase(m.id);
      handle(m, req.op, first_seen);
    }
    return;
  }

  // Direct send (k = 0 path): only the origin itself, only at the entry
  // group — lca(m.dst) for ByzCast, the root for the non-genuine Baseline.
  if (req.origin != m.id.origin) return;
  if (entry_group(m) != my_group) return;
  if (handled_.contains(m.id)) return;  // client retransmission
  handle(m, req.op);
}

bft::StagedExec ByzCastNode::execute_staged(const bft::Request& req) {
  staging_ = true;
  staged_out_ = {};
  execute(req);
  staging_ = false;
  return std::move(staged_out_);
}

void ByzCastNode::handle(const MulticastMessage& m, const Buffer& raw_op,
                         Time first_seen) {
  handled_.insert(m.id);
  // Any copies counted before the threshold (or before a direct-path
  // handle) are no longer needed: late duplicates take the handled_ fast
  // path and never re-open the entry.
  copies_.erase(m.id);

  stamp_hop_spans(m, first_seen);
  if (obs_.metrics != nullptr) {
    if (ordered_ctr_ == nullptr) {
      const std::string g = to_string(ctx_->group());
      ordered_ctr_ = &obs_.metrics->counter("node.ordered." + g);
      relayed_ctr_ = &obs_.metrics->counter("node.relayed." + g);
      adeliver_ctr_ = &obs_.metrics->counter("node.a_deliver." + g);
    }
    ordered_ctr_->inc();
  }

  if (!faults_.drop_relays) forward(m);

  if (faults_.fabricate_relay && ++fabricate_counter_ % 3 == 1) {
    // Inject a message no client ever multicast. Correct children only see
    // one copy of it (ours) and must never a-deliver it.
    MulticastMessage fake;
    fake.id = MessageId{
        ProcessId{kFabricatedOriginBase + ctx_->self().value},
        fabricate_counter_};
    fake.dst = m.dst;
    fake.payload = to_bytes("forged");
    fake.hop = m.hop;
    forward(fake);
  }

  const GroupId my_group = ctx_->group();
  const bool is_destination =
      std::find(m.dst.begin(), m.dst.end(), my_group) != m.dst.end();
  if (is_destination && !a_delivered_.contains(m.id)) {
    a_delivered_.insert(m.id);
    log_.record(my_group, ctx_->self(), m.id, ctx_->now());
    if (obs_.spans != nullptr && m.traced()) {
      obs_.spans->record(Span{m.id, SpanKind::kADeliver, my_group,
                              ctx_->self(), ctx_->now(), ctx_->now(),
                              static_cast<std::int64_t>(m.hop)});
    }
    if (obs_.monitors != nullptr) {
      obs_.monitors->on_a_deliver(my_group, ctx_->self(), m.id,
                                  entry_group(m), ctx_->now());
    }
    if (adeliver_ctr_ != nullptr) adeliver_ctr_->inc();
    // Reply to the multicast origin; clients gather f+1 matching replies
    // from every destination group.
    bft::Request synthetic;
    synthetic.group = my_group;
    synthetic.origin = m.id.origin;
    synthetic.seq = m.id.seq;
    if (staging_ && shard_app_ == nullptr) {
      // Defer the pure per-request tail — SHA-256 over the ordered bytes +
      // reply encode — to an exec shard. Captures only ref-counted bytes
      // and the thread-safe reply path (the StagedExec contract).
      staged_out_.key = bft::stage_key(raw_op.view());
      staged_out_.deferred = [ctx = ctx_, synthetic, op = raw_op] {
        ctx->send_reply(synthetic, ack_bytes(op.view()));
      };
    } else {
      Bytes reply = shard_app_ ? shard_app_->apply(my_group, m)
                               : ack_bytes(raw_op.view());
      ctx_->send_reply(synthetic, std::move(reply));
    }
  }
}

namespace {

/// Encodes `m` with its hop count bumped for the next tree level.
Bytes encode_bumped(const MulticastMessage& m) {
  MulticastMessage next_hop = m;
  ++next_hop.hop;
  return next_hop.encode();
}

}  // namespace

void ByzCastNode::forward(const MulticastMessage& m) {
  const GroupId my_group = ctx_->group();
  bool first_relevant_child = true;
  Bytes next_op;  // the bumped-hop encoding, shared by every child relay
  for (const GroupId child : tree_.children(my_group)) {
    if (!intersects(tree_.reach(child), m.dst)) continue;
    if (faults_.front_run && first_relevant_child) {
      first_relevant_child = false;
      // Adversarial reordering toward one child only: hold a message back
      // and emit it after its successor, inverting consecutive pairs there
      // while other children see the honest order (DESIGN.md §3).
      if (!front_run_buffer_) {
        front_run_buffer_ = m;
      } else {
        const MulticastMessage held = *front_run_buffer_;
        front_run_buffer_.reset();
        send_copy(child, m, encode_bumped(m));
        send_copy(child, held, encode_bumped(held));
      }
      continue;
    }
    first_relevant_child = false;
    if (next_op.empty()) next_op = encode_bumped(m);
    send_copy(child, m, next_op);
  }
}

void ByzCastNode::send_copy(GroupId child, const MulticastMessage& m,
                            const Bytes& encoded_op) {
  const auto it = registry_.find(child);
  BZC_ASSERT(it != registry_.end());
  if (obs_.spans != nullptr && m.traced()) {
    obs_.spans->record(Span{m.id, SpanKind::kRelay, ctx_->group(),
                            ctx_->self(), ctx_->now(), ctx_->now(),
                            std::int64_t{child.value}});
  }
  if (relayed_ctr_ != nullptr) relayed_ctr_->inc();
  bft::Request relay;
  relay.group = child;
  relay.origin = ctx_->self();
  relay.seq = relay_seq_[child]++;
  relay.op = encoded_op;
  // One encode of the relayed request, 3f+1 shared-buffer sends.
  ctx_->send_request(it->second.replicas(), relay);
}

}  // namespace byzcast::core
