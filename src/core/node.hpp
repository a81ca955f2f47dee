// ByzCastNode: the replicated application that runs inside every replica of
// every tree group and implements Algorithm 1 of the paper.
//
// On x_k-deliver (i.e. when the hosting bft::Replica executes a request):
//  * a copy relayed by the parent group counts toward the f+1 threshold and
//    is handled when f+1 distinct parent replicas delivered it;
//  * a direct send is handled immediately iff it comes authenticated from
//    the message origin and this group is lca(m.dst) (k = 0);
//  * handling forwards m into every child whose reach intersects m.dst (the
//    replica acts as a client of the child's broadcast, one FIFO stream per
//    child) and a-delivers + replies to the client when this group is a
//    destination.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <set>

#include "bft/application.hpp"
#include "bft/fault.hpp"
#include "bft/replica.hpp"
#include "common/metrics.hpp"
#include "common/span.hpp"
#include "core/delivery_log.hpp"
#include "core/multicast.hpp"
#include "core/tree.hpp"

namespace byzcast::core {

/// Public membership of every group in a system, keyed by group id.
using GroupRegistry = std::map<GroupId, bft::GroupInfo>;

/// Origin ids >= this value mark messages fabricated by the fault injector
/// (no real process has such an id); property checkers key on it.
constexpr std::int32_t kFabricatedOriginBase = 900'000;

/// How messages enter the tree. kGenuine is ByzCast (clients broadcast in
/// lca(m.dst)); kViaRoot is the paper's non-genuine Baseline (every message,
/// local or global, is first ordered by the root group).
enum class Routing { kGenuine, kViaRoot };

/// Application state machine hosted on a target-group replica: `apply` runs
/// once per a-delivered message, in a-delivery order, and its return value
/// is the reply sent to the client (clients collect f+1 matching replies per
/// destination group, so correct replicas must return identical bytes for
/// the same delivery sequence). This is the paper's sharded state machine
/// replication use case (§II-D).
class ShardApplication {
 public:
  virtual ~ShardApplication() = default;
  [[nodiscard]] virtual Bytes apply(GroupId shard,
                                    const MulticastMessage& m) = 0;
};

class ByzCastNode final : public bft::Application {
 public:
  /// `tree`, `registry` and `log` must outlive the node and are shared by
  /// the whole system. `registry` may still be filling while nodes are
  /// constructed; it is only read once messages flow. `obs` sinks (when
  /// non-null) also must outlive the node.
  ByzCastNode(const OverlayTree& tree, const GroupRegistry& registry,
              DeliveryLog& log, bft::FaultSpec faults,
              Routing routing = Routing::kGenuine, Observability obs = {});

  void execute(const bft::Request& req) override;

  /// Stage-pipeline entry: runs everything ordering-relevant (copy counting,
  /// relay forwarding, a-delivery bookkeeping) inline, and defers only the
  /// a-deliver ack reply (digest of the ordered bytes + reply encode) to the
  /// exec shards — and only when no ShardApplication is attached (a shard
  /// state machine mutates shared state, so it must stay serial).
  [[nodiscard]] bft::StagedExec execute_staged(const bft::Request& req) override;

  /// Attaches the replica-local application state machine (may be null: the
  /// reply is then a digest-based ack). Must be set before messages flow
  /// and must outlive the node.
  void set_shard_application(ShardApplication* app) { shard_app_ = app; }

  [[nodiscard]] std::uint64_t handled_count() const { return handled_.size(); }
  [[nodiscard]] std::uint64_t a_delivered_count() const {
    return a_delivered_.size();
  }
  /// Messages still accumulating parent copies (bounded: handled ids are
  /// dropped immediately and stale ids are swept after `pending_expiry`).
  [[nodiscard]] std::size_t pending_copy_count() const {
    return copies_.size();
  }

  /// How long an id may sit below the f+1 copy threshold before the sweep
  /// reclaims it. Entries that can still complete are recreated by later
  /// copies; entries for fabricated messages (never relayed by any correct
  /// parent replica) are what this bounds. Must be much larger than a
  /// quorum round-trip so genuine stragglers are not penalized.
  void set_pending_expiry(Time expiry) { pending_expiry_ = expiry; }

 private:
  /// `raw_op` is the encoded form of `m` as carried by the triggering
  /// request (ref-counted: the deferred ack closure shares it); the
  /// a-deliver ack hashes it instead of re-encoding `m`. `first_seen` is
  /// when the first parent copy arrived (-1: direct path, no f+1 wait) —
  /// the kOrderWait span.
  void handle(const MulticastMessage& m, const Buffer& raw_op,
              Time first_seen = -1);
  void forward(const MulticastMessage& m);
  void send_copy(GroupId child, const MulticastMessage& m,
                 const Bytes& encoded_op);
  [[nodiscard]] bool valid_destinations(const MulticastMessage& m) const;
  void sweep_stale_copies();
  /// Stamps the traced message's per-hop span chain (wire -> mailbox -> CPU
  /// -> consensus phases -> execute -> f+1 order wait) at the moment this
  /// replica genuinely orders it. No-op when spans are off or m is not
  /// sampled.
  void stamp_hop_spans(const MulticastMessage& m, Time first_seen) const;
  /// The group `m` entered the tree through (lca for genuine routing, the
  /// root for the Baseline).
  [[nodiscard]] GroupId entry_group(const MulticastMessage& m) const;

  const OverlayTree& tree_;
  const GroupRegistry& registry_;
  DeliveryLog& log_;
  bft::FaultSpec faults_;
  Routing routing_;
  Observability obs_;

  // f+1 copy counting (per multicast message, distinct parent replicas).
  struct PendingCopies {
    std::set<ProcessId> senders;
    Time first_seen = 0;
  };
  std::unordered_map<MessageId, PendingCopies> copies_;
  std::unordered_set<MessageId> handled_;
  std::unordered_set<MessageId> a_delivered_;
  Time pending_expiry_ = 60 * kSecond;
  Time last_sweep_ = 0;

  // One FIFO relay stream per child group.
  std::map<GroupId, std::uint64_t> relay_seq_;

  // Fault machinery.
  std::uint64_t fabricate_counter_ = 0;
  std::optional<MulticastMessage> front_run_buffer_;

  // Stage-pipeline state: true while execute_staged drives execute(); the
  // a-deliver reply path then fills staged_out_ instead of replying inline.
  bool staging_ = false;
  bft::StagedExec staged_out_;

  // Lazily resolved metric handles (need ctx_ for the group label); stable
  // pointers into obs_.metrics, null when metrics are off.
  mutable Counter* ordered_ctr_ = nullptr;
  mutable Counter* relayed_ctr_ = nullptr;
  mutable Counter* adeliver_ctr_ = nullptr;

  ShardApplication* shard_app_ = nullptr;  // non-owning
};

}  // namespace byzcast::core
