// The one message type that crosses the process boundary, shared by every
// execution backend (deterministic simulator and wall-clock runtime). Lives
// in its own header so backends can exchange messages without pulling in the
// simulator's scheduler or latency machinery.
#pragma once

#include "common/buffer.hpp"
#include "common/bytes.hpp"
#include "common/sha256.hpp"
#include "common/types.hpp"

namespace byzcast::sim {

/// One message on the wire. `payload` is codec-encoded protocol content;
/// `mac` authenticates (from -> to, payload). The payload is a ref-counted
/// immutable Buffer: fan-out sends of the same logical message share one
/// backing allocation across every recipient (and across threads on the
/// runtime backend).
///
/// The trailing timestamps are in-memory timing metadata for span tracing —
/// stamped by Actor::send / Actor::enqueue / the drain loop, never encoded
/// or MAC'd (each recipient's copy carries its own receive-side values).
/// -1 means "not stamped" (e.g. a message built by a test double).
struct WireMessage {
  ProcessId from;
  ProcessId to;
  Buffer payload;
  Digest mac{};
  Time sent_at = -1;        // Actor::send at the source
  Time enqueued_at = -1;    // arrival in the destination actor's inbox
  Time svc_start = -1;      // popped from the inbox: service begins

  // --- verify-stage stamps (receive-side only, never encoded or MAC'd) ----
  /// Result of an off-thread (or modeled) MAC verification performed by the
  /// verify stage before the message re-enters the serial order stage:
  /// 0 = not pre-verified, 1 = MAC ok, -1 = MAC bad. The order stage trusts
  /// a nonzero verdict and skips the inline verification.
  std::int8_t verify_verdict = 0;
  /// The receiving actor's submission order into the verify stage; results
  /// are released to the order stage in ticket order (Actor).
  std::uint64_t verify_ticket = 0;
  /// When true, `batch_digest` carries the SHA-256 of the PROPOSE batch
  /// slice, precomputed by the verify stage so the order stage does not
  /// rehash the batch on its critical path.
  bool has_batch_digest = false;
  Digest batch_digest{};
};

}  // namespace byzcast::sim
