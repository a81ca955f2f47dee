// The atomically multicast message. Travels as the `op` payload of bft
// Requests: first from the client into lca(m.dst)'s broadcast, then inside
// relay requests down the tree. `id` is the client-chosen unique identifier;
// the bft-level (origin, seq) of the carrying request belongs to whoever
// broadcast this particular copy.
#pragma once

#include <algorithm>
#include <vector>

#include "common/bytes.hpp"
#include "common/serde.hpp"
#include "common/types.hpp"

namespace byzcast::core {

struct MulticastMessage {
  MessageId id;                // origin client + client-unique sequence
  std::vector<GroupId> dst;    // sorted, unique, non-empty
  Bytes payload;
  /// Carried trace record: tree depth below the entry group, incremented by
  /// each relay hop. Deterministic across the replicas of a group (all
  /// parent copies agree on it), so reply digests stay quorum-compatible.
  std::uint32_t hop = 0;
  /// Carried trace context. Bit 0: span tracing requested for this message
  /// (the client's sampling decision, made once at a-multicast so every
  /// replica of every group agrees). Like `hop`, constant across all copies
  /// of one message — reply digests stay quorum-compatible.
  std::uint8_t trace_flags = 0;

  static constexpr std::uint8_t kTraced = 0x01;

  [[nodiscard]] bool is_local() const { return dst.size() == 1; }
  [[nodiscard]] bool is_global() const { return dst.size() > 1; }
  [[nodiscard]] bool traced() const { return (trace_flags & kTraced) != 0; }

  /// Sorts and dedups the destination list (canonical form: encoding and
  /// digests must not depend on the caller's ordering).
  void canonicalize() {
    std::sort(dst.begin(), dst.end());
    dst.erase(std::unique(dst.begin(), dst.end()), dst.end());
  }

  [[nodiscard]] Bytes encode() const {
    Writer w;
    // id, the counted destination list, the length-prefixed payload, hop
    // and trace flags: reserved exactly, so encoding allocates once.
    w.reserve(12 + 4 + 4 * dst.size() + 4 + payload.size() + 4 + 1);
    w.message_id(id);
    w.vec(dst, [](Writer& ww, GroupId g) { ww.group_id(g); });
    w.bytes(payload);
    w.u32(hop);
    w.u8(trace_flags);
    return w.take();
  }

  [[nodiscard]] static MulticastMessage decode(BytesView raw) {
    Reader r(raw);
    MulticastMessage m;
    m.id = r.message_id();
    m.dst = r.vec<GroupId>([](Reader& rr) { return rr.group_id(); });
    m.payload = r.bytes();
    m.hop = r.u32();
    m.trace_flags = r.u8();
    return m;
  }

  friend bool operator==(const MulticastMessage&, const MulticastMessage&) =
      default;
};

}  // namespace byzcast::core
