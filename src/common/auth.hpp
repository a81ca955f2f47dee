// Message authentication for the simulation. A KeyStore derives pairwise
// symmetric keys from a master seed; each process gets an Authenticator bound
// to its own identity, so a Byzantine process can authenticate *as itself*
// but cannot forge MACs of other processes (the object capability is the
// enforcement mechanism — a faulty actor simply never holds another
// process's Authenticator).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "common/bytes.hpp"
#include "common/sha256.hpp"
#include "common/types.hpp"

namespace byzcast {

/// MAC construction used by a simulation. kHmac is real HMAC-SHA256 (the
/// default; tests rely on it). kFast is a keyed 64-bit FNV-1a mix whose
/// finalizer is invertible, so one observed message/MAC pair gives away the
/// pair key. It is unforgeable only within one process, where adversary
/// actors never hold other processes' Authenticators and keys never leave
/// the KeyStore. On byzcastd every process derives every pair key from the
/// config's `seed`, so there neither mode stops a Byzantine daemon from
/// forging another process's MACs. bench_micro measures a 100-byte
/// sign + verify as about 3x cheaper with kFast than with kHmac on the
/// SHA-NI SHA-256 kernel, and 20x on the portable one. The *simulated* CPU
/// cost of authentication is part of the Profile constants either way.
enum class MacMode { kHmac, kFast };

/// Derives pairwise keys from the master seed. Shared by all processes of
/// one system via shared_ptr. Immutable after construction, so runtime
/// workers and verify-stage threads call it concurrently without a lock.
///
/// `mac` is the per-message entry point. In kHmac mode it looks the
/// channel's HMAC key schedule (HmacKey) up in a small per-thread memo keyed
/// by (master seed, lower pid, higher pid) and derives it only on a miss:
/// a miss costs the pair-key hash plus the ipad and opad compressions, a
/// hit none of them, and neither allocates. The memo is a pure cache of a
/// pure function, private to its thread, so it needs no synchronization and
/// two KeyStores with different seeds never share an entry.
class KeyStore {
 public:
  explicit KeyStore(std::uint64_t master_seed, MacMode mode = MacMode::kHmac);

  /// Symmetric key shared by the (unordered) pair {a, b}.
  [[nodiscard]] Bytes pair_key(ProcessId a, ProcessId b) const;

  /// MAC over `data` on the channel {a, b} (kHmac: HMAC-SHA256 under
  /// pair_key(a, b); kFast: the keyed 64-bit mix under pair_key64(a, b)).
  /// Thread-safe.
  [[nodiscard]] Digest mac(ProcessId a, ProcessId b, BytesView data) const;

  [[nodiscard]] MacMode mode() const { return mode_; }
  /// 64-bit key for the fast mode.
  [[nodiscard]] std::uint64_t pair_key64(ProcessId a, ProcessId b) const;

 private:
  [[nodiscard]] Digest pair_digest(std::int32_t lo, std::int32_t hi) const;

  std::uint64_t master_seed_;
  MacMode mode_;
};

/// A per-process capability for creating and checking MACs.
///
/// Successful kHmac verifications are memoized, so an exact repeat of an
/// authenticated (sender, payload, MAC) triple, such as a retransmit, skips
/// the HMAC. The f+1 parent copies of a relayed request never hit: each
/// parent replica signs on its own pairwise channel, so sender and MAC
/// differ, and the repository benchmark counts zero hits per multicast on
/// every workload. The memo is keyed on the full SHA-256 of the payload: a
/// hit requires the stored payload digest AND the stored 32-byte MAC to
/// equal the presented ones, so by second-preimage resistance the presented
/// bytes are the very bytes that were verified — accepting from the cache is
/// exactly as strong as accepting a replay of an already-verified message,
/// which the channel model permits anyway (replay protection lives in the
/// protocol layer: request dedup, FIFO sequence numbers). A hit costs one
/// SHA-256 pass over the payload instead of the full keyed HMAC (inner pass
/// over key block + payload, plus the outer hash); a miss pays that pass on
/// top of the HMAC (the channel's key schedule comes from KeyStore's memo,
/// so the HMAC itself is the data pass plus one outer compression). kFast
/// mode is not cached: its MAC is itself one cheap hash pass, cheaper than
/// the digest lookup.
///
/// The cache is safe for concurrent verifiers: the verify stage fans MAC
/// checks for one replica out to a worker pool, so several threads may probe
/// the memo at once. Each direct-mapped slot carries a one-word try-lock —
/// a thread that cannot take a slot's lock immediately treats the probe as a
/// miss (reader: pays the full HMAC; writer: skips the store). Verification
/// therefore never blocks and never observes a torn slot; contention only
/// costs the optimization, not correctness. `sign` touches no shared state.
class Authenticator {
 public:
  static constexpr std::size_t kDefaultCacheSlots = 1024;  // direct-mapped

  /// `cache_slots` sizes the verify memo (must be > 0; tests shrink it to 1
  /// to force every verification onto the same slot).
  Authenticator(std::shared_ptr<const KeyStore> keys, ProcessId self,
                std::size_t cache_slots = kDefaultCacheSlots)
      : keys_(std::move(keys)), self_(self), cache_slots_(cache_slots) {}

  [[nodiscard]] ProcessId self() const { return self_; }

  /// MAC over `data` for the channel self -> `to`. Thread-safe.
  [[nodiscard]] Digest sign(ProcessId to, BytesView data) const;

  /// Checks a MAC allegedly produced by `from` for the channel from -> self.
  /// Thread-safe: callable concurrently from verify-stage workers.
  [[nodiscard]] bool verify(ProcessId from, BytesView data,
                            const Digest& mac) const;

  /// Verifications answered from the memo (observability / tests).
  [[nodiscard]] std::uint64_t verify_cache_hits() const {
    return hits_.load(std::memory_order_relaxed);
  }

 private:
  /// One memo entry. `busy` is the per-slot try-lock: 0 free, 1 held.
  struct CacheSlot {
    std::atomic<std::uint32_t> busy{0};
    std::int32_t from = -1;
    Digest payload_hash{};
    Digest mac{};
  };

  std::shared_ptr<const KeyStore> keys_;
  ProcessId self_;
  std::size_t cache_slots_;
  /// Lazily allocated on the first memoizable verification (client actors
  /// by the thousand never verify with real HMACs; don't pay 74 KiB each).
  mutable std::once_flag cache_init_;
  mutable std::unique_ptr<CacheSlot[]> cache_;
  mutable std::atomic<std::uint64_t> hits_{0};
};

}  // namespace byzcast
