#include "common/auth.hpp"

#include <algorithm>

#include "common/hmac.hpp"
#include "common/serde.hpp"

namespace byzcast {

namespace {

std::uint64_t fnv1a(std::uint64_t hash, BytesView data) {
  for (const auto byte : data) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Digest fast_mac(std::uint64_t key64, BytesView data) {
  std::uint64_t h = fnv1a(key64 ^ 0xcbf29ce484222325ULL, data);
  // Final avalanche (splitmix64 finalizer).
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  h ^= h >> 31;
  Digest d{};
  for (int i = 0; i < 8; ++i) {
    d[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(h >> (8 * i));
  }
  return d;
}

}  // namespace

KeyStore::KeyStore(std::uint64_t master_seed, MacMode mode)
    : master_seed_(master_seed), mode_(mode) {}

std::uint64_t KeyStore::pair_key64(ProcessId a, ProcessId b) const {
  const std::int32_t lo = std::min(a.value, b.value);
  const std::int32_t hi = std::max(a.value, b.value);
  std::uint64_t h = master_seed_ ^ 0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo));
  h *= 0x100000001b3ULL;
  h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32;
  h *= 0x100000001b3ULL;
  return h;
}

Bytes KeyStore::pair_key(ProcessId a, ProcessId b) const {
  Writer w;
  w.u64(master_seed_);
  w.i32(std::min(a.value, b.value));
  w.i32(std::max(a.value, b.value));
  const Digest d = Sha256::hash(w.data());
  return Bytes(d.begin(), d.end());
}

Digest Authenticator::sign(ProcessId to, BytesView data) const {
  if (keys_->mode() == MacMode::kFast) {
    return fast_mac(keys_->pair_key64(self_, to), data);
  }
  const Bytes key = keys_->pair_key(self_, to);
  return hmac_sha256(key, data);
}

bool Authenticator::verify(ProcessId from, BytesView data,
                           const Digest& mac) const {
  if (keys_->mode() == MacMode::kFast) {
    return fast_mac(keys_->pair_key64(from, self_), data) == mac;
  }
  // Memo lookup: one SHA-256 pass over the payload instead of the full HMAC
  // when this exact (sender, payload, mac) triple was already verified. The
  // slot is matched on the payload's full digest — second-preimage
  // resistance rules out a different payload hitting a stored entry, so the
  // memo never accepts anything HMAC itself would not. Concurrent verifiers
  // (the verify-stage worker pool) coordinate through the per-slot try-lock;
  // losing the lock race degrades to a full HMAC, never to a wrong answer.
  const Digest ph = Sha256::hash(data);
  std::uint64_t fp = 0;
  for (int i = 0; i < 8; ++i) {
    fp |= static_cast<std::uint64_t>(ph[static_cast<std::size_t>(i)])
          << (8 * i);
  }
  std::call_once(cache_init_, [this] {
    cache_ = std::make_unique<CacheSlot[]>(cache_slots_);
  });
  CacheSlot& slot =
      cache_[(fp ^ static_cast<std::uint64_t>(
                       static_cast<std::uint32_t>(from.value) * 0x9e3779b9U)) %
             cache_slots_];
  std::uint32_t free_lock = 0;
  if (slot.busy.compare_exchange_strong(free_lock, 1,
                                        std::memory_order_acquire)) {
    const bool hit =
        slot.from == from.value && slot.payload_hash == ph && slot.mac == mac;
    slot.busy.store(0, std::memory_order_release);
    if (hit) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  const Bytes key = keys_->pair_key(from, self_);
  const bool ok = hmac_sha256(key, data) == mac;
  if (ok) {
    free_lock = 0;
    if (slot.busy.compare_exchange_strong(free_lock, 1,
                                          std::memory_order_acquire)) {
      slot.from = from.value;
      slot.payload_hash = ph;
      slot.mac = mac;
      slot.busy.store(0, std::memory_order_release);
    }
  }
  return ok;
}

}  // namespace byzcast
