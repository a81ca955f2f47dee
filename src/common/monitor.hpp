// Streaming invariant monitors: online checkers of the atomic multicast
// guarantees (§II-B), attached as delivery observers so a fault-injection
// run reports *when* and *where* an invariant first broke, not just a
// post-hoc property verdict from core/properties.hpp.
//
// The MonitorHub fans each observation out to four monitors:
//
//  * fifo            — per (replica, origin, entry group): a-delivery seq
//                      numbers of one client's stream through one entry group
//                      must strictly increase (the client sends one FIFO
//                      stream per lca group; relays preserve it);
//  * group_agreement — per group: the k-th a-delivery of every replica of a
//                      group must be the same message (total order within a
//                      group ⇒ prefix order);
//  * acyclic_order   — across groups: the union of per-replica delivery
//                      orders must stay a DAG, maintained incrementally with
//                      the Pearce–Kelly online topological-order algorithm;
//  * bounded_pending — per replica: the set of messages waiting below the
//                      f+1 parent-copy threshold must stay under a bound
//                      (fabricated ids would otherwise grow it unboundedly).
//
// Violations bump a `monitor.violations.<name>` counter in the attached
// MetricsRegistry (when present) and an internal per-monitor counter; the
// first few carry full prose detail for reports. Observations are
// mutex-serialized — the runtime backend's workers observe concurrently —
// and the hub is deliberately *outside* the replicas under test: a monitor
// never feeds back into the protocol.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"

namespace byzcast {

class MetricsRegistry;

/// One detected invariant violation.
struct Violation {
  std::string monitor;  // "fifo", "group_agreement", "acyclic_order", ...
  GroupId group;
  ProcessId replica;
  MessageId msg;
  Time when = 0;
  std::string detail;
};

class MonitorHub {
 public:
  static constexpr std::size_t kMaxDetailedViolations = 16;

  MonitorHub() = default;

  /// Optional: mirror violation counts into `metrics` as
  /// `monitor.violations.<name>` counters. Call before observations flow;
  /// `metrics` must outlive the hub.
  void attach_metrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Pending-copy sets larger than this trip bounded_pending (0 disables).
  void set_pending_bound(std::size_t bound) { pending_bound_ = bound; }

  /// Observation points, called by core::ByzCastNode. `entry` is the group
  /// the message entered the tree through (lca for genuine routing, the
  /// root for baseline routing); the fifo monitor checks MessageId::seq,
  /// which the client assigns in send order. Thread-safe.
  void on_a_deliver(GroupId group, ProcessId replica, const MessageId& msg,
                    GroupId entry, Time when);
  void on_pending_copies(GroupId group, ProcessId replica, std::size_t pending,
                         Time when);

  // --- readers (thread-safe) ------------------------------------------------
  [[nodiscard]] std::uint64_t total_violations() const;
  [[nodiscard]] std::uint64_t violations(const std::string& monitor) const;
  [[nodiscard]] std::vector<Violation> detailed_violations() const;
  /// {"violations_total", then one count per monitor}: the monitor summary
  /// of the span sidecar and of /healthz.
  [[nodiscard]] Json summary() const;

 private:
  void report(Violation v);

  // fifo: last seq seen per (replica, origin, entry group).
  struct StreamKey {
    ProcessId replica;
    ProcessId origin;
    GroupId entry;
    friend bool operator==(const StreamKey&, const StreamKey&) = default;
  };
  struct StreamKeyHash {
    std::size_t operator()(const StreamKey& k) const noexcept {
      std::size_t h = std::hash<ProcessId>{}(k.replica);
      h = h * 0x9e3779b97f4a7c15ULL + std::hash<ProcessId>{}(k.origin);
      h = h * 0x9e3779b97f4a7c15ULL + std::hash<GroupId>{}(k.entry);
      return h;
    }
  };

  // acyclic_order: Pearce–Kelly incremental topological order over message
  // nodes; edges come from consecutive deliveries at each replica.
  struct DagNode {
    std::uint64_t ord = 0;               // current topological index
    std::vector<std::uint32_t> out;      // successors
    std::vector<std::uint32_t> in;       // predecessors
  };
  std::uint32_t dag_node(const MessageId& msg);
  /// Adds edge u->v, restoring topological order; returns false on a cycle.
  bool dag_add_edge(std::uint32_t u, std::uint32_t v);

  mutable std::mutex mu_;
  MetricsRegistry* metrics_ = nullptr;  // non-owning
  std::size_t pending_bound_ = 0;

  std::unordered_map<StreamKey, std::uint64_t, StreamKeyHash> fifo_last_;
  // group_agreement: the agreed delivery sequence per group, plus each
  // replica's own position in it.
  std::unordered_map<GroupId, std::vector<MessageId>> group_seq_;
  std::unordered_map<ProcessId, std::size_t> replica_pos_;
  std::unordered_map<ProcessId, MessageId> last_delivered_;
  std::unordered_map<MessageId, std::uint32_t> dag_index_;
  std::vector<DagNode> dag_;
  std::uint64_t next_ord_ = 0;

  std::unordered_map<std::string, std::uint64_t> counts_;
  std::deque<Violation> detailed_;
};

}  // namespace byzcast
