// CriticalPathAnalyzer: reconstructs each traced message's span tree from a
// quiesced SpanLog, follows the critical path (client submit -> entry group
// -> relays -> the destination group whose a-delivery completed the reply
// quorum last -> reply wait), and decomposes the measured end-to-end latency
// into four components per hop: queueing (mailbox + consensus batching),
// cpu (service, execution, relay processing), network (wire transit) and
// quorum_wait (WRITE/ACCEPT quorums and the client's f+1-reply wait).
//
// Exactness: the decomposition walks a monotone boundary chain clamped into
// [submit, completion] (each boundary c_j = clamp(b_j, c_{j-1}, end)), so
// the components are nonnegative and telescope — their sum equals the
// measured end-to-end latency exactly, even when Byzantine replicas stamp
// garbage times or a stage was not observed (the unobserved interval merges
// into the following component instead of being lost).
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "common/span.hpp"
#include "common/types.hpp"

namespace byzcast::core {

/// The four latency components (paper Figs. 5-10 vocabulary).
struct Components {
  Time queueing = 0;
  Time cpu = 0;
  Time network = 0;
  Time quorum_wait = 0;

  [[nodiscard]] Time total() const {
    return queueing + cpu + network + quorum_wait;
  }
  Components& operator+=(const Components& o) {
    queueing += o.queueing;
    cpu += o.cpu;
    network += o.network;
    quorum_wait += o.quorum_wait;
    return *this;
  }
};

/// One hop of a message's critical path: the share of the end-to-end
/// latency spent at (and getting to) this group.
struct HopBreakdown {
  GroupId group;
  ProcessId replica;  // the representative replica whose chain was used
  Components components;
};

struct MessageBreakdown {
  MessageId id;
  /// False when the trace is truncated (no end-to-end span or no a-deliver
  /// observed) — such messages carry no decomposition.
  bool complete = false;
  std::size_t dst_count = 0;
  bool is_global = false;
  Time submitted = 0;
  Time end_to_end = 0;  // measured at the client
  GroupId critical_dst;
  std::vector<HopBreakdown> hops;  // entry group first
  /// Totals over the whole path, including the client-side edges; complete
  /// breakdowns satisfy totals.total() == end_to_end exactly.
  Components totals;
};

/// p50/p99 of the end-to-end latency and each component over a set of
/// messages (one destination class, or one tree edge).
struct PercentileStats {
  std::size_t n = 0;
  Time p50 = 0;
  Time p99 = 0;
};

struct ClassAggregate {
  std::size_t n = 0;
  PercentileStats end_to_end;
  PercentileStats queueing, cpu, network, quorum_wait;
};

class CriticalPathAnalyzer {
 public:
  struct Options {
    /// The groups' fault bound: the representative replica per group is the
    /// one whose a-delivery (resp. execution) is (f+1)-th earliest — the
    /// copy that completes a client's reply quorum.
    int f = 1;
  };

  /// Analyzes every traced message in `log` (which must be quiesced; the
  /// analyzer keeps no reference to it afterwards).
  CriticalPathAnalyzer(const SpanLog& log, Options opts);
  explicit CriticalPathAnalyzer(const SpanLog& log)
      : CriticalPathAnalyzer(log, Options()) {}

  /// Per-message breakdowns, sorted by message id (deterministic).
  [[nodiscard]] const std::vector<MessageBreakdown>& messages() const {
    return messages_;
  }

  /// Aggregate over one destination class (complete breakdowns only).
  [[nodiscard]] ClassAggregate aggregate(bool global) const;

  /// Per tree edge (parent group -> child group): p50/p99 of the time from
  /// the parent's genuine ordering to the child's, over messages whose
  /// critical path crossed that edge.
  [[nodiscard]] std::map<std::pair<GroupId, GroupId>, PercentileStats>
  edge_latency() const;

 private:
  void analyze(const MessageId& id, const std::vector<Span>& spans,
               Options opts);

  std::vector<MessageBreakdown> messages_;
  /// Ordering-to-ordering latency samples per (parent, child) path edge.
  std::map<std::pair<GroupId, GroupId>, std::vector<Time>> edge_samples_;
};

/// The "byzcast-spans-v1" sidecar: `analyzer`'s per-message breakdowns (by
/// message id), local/global aggregates and per-tree-edge percentiles, plus
/// `monitor` (a MonitorHub::summary(), or null when monitors were off). All
/// times are integer nanoseconds, so same-seed simulator runs produce
/// identical documents.
[[nodiscard]] Json spans_sidecar_json(const CriticalPathAnalyzer& analyzer,
                                      int f, std::uint64_t spans_recorded,
                                      std::uint64_t spans_dropped,
                                      Json monitor);

}  // namespace byzcast::core
