// HMAC-SHA256 (RFC 2104) on top of our SHA-256. Used for pairwise message
// authentication between simulated processes.
#pragma once

#include "common/bytes.hpp"
#include "common/sha256.hpp"

namespace byzcast {

/// An HMAC-SHA256 key schedule: the inner and outer SHA-256 contexts after
/// they absorbed the key's ipad and opad blocks. Building one costs two
/// compressions (three for a key longer than a block); each MAC over it then
/// hashes only the data and the inner digest. Authenticator keeps one per
/// channel so a MAC no longer re-derives what depends only on the key.
class HmacKey {
 public:
  explicit HmacKey(BytesView key);

  /// HMAC-SHA256(key, data). Copies the two contexts; the schedule stays
  /// reusable.
  [[nodiscard]] Digest mac(BytesView data) const&;
  /// One-shot form: finishes the contexts in place, without copying them.
  [[nodiscard]] Digest mac(BytesView data) &&;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// Computes HMAC-SHA256(key, data).
[[nodiscard]] Digest hmac_sha256(BytesView key, BytesView data);

}  // namespace byzcast
