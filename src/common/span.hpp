// Causal span tracing: timed intervals stamped at every stage a multicast
// message passes through (Algorithm 1 hops, consensus phases, mailbox /
// CPU / network segments), keyed by the message's globally unique MessageId
// so a delivered message's full latency can be decomposed hop by hop after
// the run (core::CriticalPathAnalyzer) or inspected visually (the Chrome
// trace exporter in common/span_export.hpp).
//
// Two families of spans share the log:
//  * per-message spans (msg valid): the causal chain of one traced multicast
//    message — recorded only for messages whose on-wire `traced` flag is set
//    (the sampling decision is made once, at the client, so every replica of
//    every group agrees on it);
//  * infrastructure spans (msg invalid): per-actor mailbox-wait / CPU-service
//    intervals and per-group consensus instances, for the per-replica tracks
//    of the Chrome trace. Off by default (set_actor_spans) because they cost
//    one record per wire message.
//
// The log is a run's one per-message trace. It is append-only and
// capacity-bounded: when full, recording stops (keeping early traces
// complete) and drops are counted so exports report truncation instead of
// silently presenting partial data. record() is thread-safe (runtime
// workers stamp concurrently); the readers must only run after recording
// has quiesced.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace byzcast {

/// What interval of a message's (or an actor's) life a span covers.
enum class SpanKind : std::uint8_t {
  // -- per-message causal chain (msg valid) ----------------------------------
  kEndToEnd,        // client: a-multicast submit -> f+1 replies from all dst
  kNetTransit,      // wire send at the source -> arrival in the dest inbox
  kMailboxWait,     // inbox arrival -> service start
  kCpuService,      // service start -> request admission done
  kConsensusQueue,  // admitted -> proposal for its instance accepted here
  kWriteQuorum,     // proposal accepted -> 2f+1 WRITEs seen
  kAcceptQuorum,    // WRITE quorum -> 2f+1 ACCEPTs seen (decide)
  kExecute,         // decide -> the copy executes in the application
  kOrderWait,       // first parent copy executed -> f+1th handled (l.9)
  kRelay,           // point event: relayed into child `detail` (l.12)
  kADeliver,        // point event: a-delivered at this group (l.14)
  // -- infrastructure (msg invalid) ------------------------------------------
  kActorMailbox,    // one wire message: inbox arrival -> service start
  kActorService,    // one wire message: service start -> handler done
  kConsensusInstance,  // one consensus instance: proposed -> decided
};

[[nodiscard]] const char* to_string(SpanKind k);

/// One timed interval. `where` is the stamping process; `group` is the group
/// it acts for (invalid for client / infra spans outside any group).
/// `detail` is kind-specific: the child GroupId for kRelay, the destination
/// count for kEndToEnd, the message's tree depth (MulticastMessage::hop) for
/// the other per-message kinds, the consensus instance for
/// kConsensusInstance, the wire-message type tag for actor spans.
struct Span {
  MessageId msg;  // invalid origin => infrastructure span
  SpanKind kind = SpanKind::kEndToEnd;
  GroupId group;
  ProcessId where;
  Time begin = 0;
  Time end = 0;
  std::int64_t detail = 0;

  friend bool operator==(const Span&, const Span&) = default;
};

class SpanLog {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 18;

  explicit SpanLog(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Appends one span (thread-safe, capacity-bounded). Spans whose end
  /// precedes their begin are clock anomalies; they are recorded as
  /// zero-width at `begin` so downstream math never sees a negative width.
  void record(Span s);

  /// Infra spans (per-actor mailbox/service) are recorded only when this is
  /// on — they cost one record per wire message. Cheap to query on the hot
  /// path (relaxed atomic).
  void set_actor_spans(bool on) {
    actor_spans_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool actor_spans() const {
    return actor_spans_.load(std::memory_order_relaxed);
  }

  // --- readers: only after recording has quiesced ---------------------------
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// All spans of one message, in recording order (per-message index: O(k),
  /// not O(total)).
  [[nodiscard]] std::vector<Span> of(const MessageId& msg) const;
  /// Ids of every message with at least one per-message span, unordered.
  [[nodiscard]] std::vector<MessageId> traced_messages() const;

 private:
  std::mutex mu_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::unordered_map<MessageId, std::vector<std::uint32_t>> by_msg_;
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<bool> actor_spans_{false};
};

class MetricsRegistry;
class MonitorHub;

/// Bundle of non-owning observability sinks threaded through composition
/// roots (ByzCastSystem, Simulation). Null members disable that sink; the
/// default-constructed bundle makes every stamp a no-op.
struct Observability {
  MetricsRegistry* metrics = nullptr;
  SpanLog* spans = nullptr;
  MonitorHub* monitors = nullptr;
};

}  // namespace byzcast
