#include "common/auth.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <optional>

#include "common/hmac.hpp"

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

/// One channel's entry in the per-thread key-schedule memo.
struct ChannelSchedule {
  std::uint64_t seed = 0;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
  std::optional<HmacKey> key;  // empty: slot never filled

  [[nodiscard]] bool holds(std::uint64_t s, std::int32_t l,
                           std::int32_t h) const {
    return key.has_value() && seed == s && lo == l && hi == h;
  }
};

/// Direct-mapped: 512 slots of 264 B in 16 pages of 32 slots. A page
/// (8.4 KiB) is allocated when one of the thread's channels first maps into
/// it, so a thread holds only the pages its channels use, and its first MAC
/// allocates one page, not the whole table. Process ids are dense from 0,
/// so the triangular index is collision-free for every channel among the
/// first 31 pids of one seed; beyond that, colliding channels evict each
/// other, and a miss re-derives the schedule (the pair-key hash and the two
/// pad compressions). Sized by measurement: on perfbench's 24-pid cluster,
/// 256 slots missed on 4% of `local`'s MACs and 512 on 0.1%, each thread's
/// first use of a channel.
constexpr std::size_t kSlotsPerPage = 32;
constexpr std::size_t kSchedulePages = 16;

using SchedulePage = std::array<ChannelSchedule, kSlotsPerPage>;

ChannelSchedule& schedule_slot(std::uint64_t seed, std::int32_t lo,
                               std::int32_t hi) {
  thread_local std::array<std::unique_ptr<SchedulePage>, kSchedulePages> pages;
  const auto l = static_cast<std::uint64_t>(static_cast<std::uint32_t>(lo));
  const auto h = static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi));
  const std::uint64_t index =
      (h * (h + 1) / 2 + l + (seed * 0x9e3779b97f4a7c15ULL >> 56)) %
      (kSlotsPerPage * kSchedulePages);
  std::unique_ptr<SchedulePage>& page = pages[index / kSlotsPerPage];
  if (page == nullptr) page = std::make_unique<SchedulePage>();
  return (*page)[index % kSlotsPerPage];
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

Digest KeyStore::pair_digest(std::int32_t lo, std::int32_t hi) const {
  // SHA-256 of [seed u64][lo i32][hi i32], the codec's layout.
  std::array<std::uint8_t, 16> in;
  std::memcpy(in.data(), &master_seed_, 8);
  std::memcpy(in.data() + 8, &lo, 4);
  std::memcpy(in.data() + 12, &hi, 4);
  return Sha256::hash(BytesView(in.data(), in.size()));
}

Bytes KeyStore::pair_key(ProcessId a, ProcessId b) const {
  const Digest d = pair_digest(std::min(a.value, b.value),
                               std::max(a.value, b.value));
  return Bytes(d.begin(), d.end());
}

Digest KeyStore::mac(ProcessId a, ProcessId b, BytesView data) const {
  if (mode_ == MacMode::kFast) return fast_mac(pair_key64(a, b), data);
  const std::int32_t lo = std::min(a.value, b.value);
  const std::int32_t hi = std::max(a.value, b.value);
  ChannelSchedule& slot = schedule_slot(master_seed_, lo, hi);
  if (!slot.holds(master_seed_, lo, hi)) {
    const Digest key = pair_digest(lo, hi);
    slot.key.emplace(BytesView(key.data(), key.size()));
    slot.seed = master_seed_;
    slot.lo = lo;
    slot.hi = hi;
  }
  return slot.key->mac(data);
}

Digest Authenticator::sign(ProcessId to, BytesView data) const {
  return keys_->mac(self_, to, data);
}

bool Authenticator::verify(ProcessId from, BytesView data,
                           const Digest& mac) const {
  if (keys_->mode() == MacMode::kFast) {
    return keys_->mac(from, self_, data) == mac;
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
  const bool ok = keys_->mac(from, self_, data) == mac;
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
