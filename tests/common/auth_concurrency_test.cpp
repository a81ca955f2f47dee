// Thread-safety of the Authenticator's memoized verification (stage
// pipeline: verify-stage workers probe one replica's memo concurrently) and
// of the per-thread channel key schedules behind sign and verify. Run under
// TSan in CI: the per-slot try-lock must keep racing verifiers from ever
// observing a torn slot, on the same slot and across slots.
#include "common/auth.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "common/hmac.hpp"

namespace byzcast {
namespace {

class AuthConcurrencyTest : public ::testing::Test {
 protected:
  std::shared_ptr<KeyStore> keys = std::make_shared<KeyStore>(20260807);
  ProcessId alice{1};
  ProcessId bob{2};
};

TEST_F(AuthConcurrencyTest, RacingVerifiersSameSlot) {
  // One slot: every verification contends for the same try-lock. Correctness
  // must hold whether a prober wins the lock (memo answer) or loses it
  // (full HMAC); hits are opportunistic, answers are not.
  Authenticator a(keys, alice);
  Authenticator b(keys, bob, /*cache_slots=*/1);
  const Bytes good = to_bytes("payment: 100 to bob");
  const Digest mac = a.sign(bob, good);
  Bytes forged = good;
  forged[0] ^= 0x01;

  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        if ((i + t) % 3 == 0) {
          if (b.verify(alice, forged, mac)) wrong.fetch_add(1);
        } else {
          if (!b.verify(alice, good, mac)) wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(AuthConcurrencyTest, RacingVerifiersAcrossSlots) {
  // Distinct payloads spread over the default slot table: threads verify a
  // shared working set while the memo warms up underneath them.
  Authenticator a(keys, alice);
  Authenticator b(keys, bob);
  struct Item {
    Bytes payload;
    Digest mac;
  };
  std::vector<Item> items;
  for (int i = 0; i < 64; ++i) {
    Item it;
    it.payload = to_bytes("req-" + std::to_string(i));
    it.mac = a.sign(bob, it.payload);
    items.push_back(std::move(it));
  }

  constexpr int kThreads = 8;
  constexpr int kIters = 4000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const Item& it = items[static_cast<std::size_t>(i * 7 + t) %
                               items.size()];
        if (!b.verify(alice, it.payload, it.mac)) wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
  // The working set is tiny relative to the table; once warm, most probes
  // hit. Exact counts depend on the race, but a healthy cache serves many.
  EXPECT_GT(b.verify_cache_hits(), 0u);
}

TEST_F(AuthConcurrencyTest, ConcurrentSignersShareNoState) {
  // sign() is advertised thread-safe (exec shards sign replies while the
  // order stage signs protocol traffic); racing signers must produce the
  // same MACs a serial signer would.
  Authenticator a(keys, alice);
  const Bytes msg = to_bytes("stable bytes");
  const Digest expected = a.sign(bob, msg);
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        if (a.sign(bob, msg) != expected) wrong.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(AuthConcurrencyTest, CachedSchedulesRaceAcrossThreadsAndSeeds) {
  // Each thread derives and caches its own channel schedules. Four threads
  // sign and verify over two seeds and 24 pids at once; every MAC must be
  // the one-shot HMAC under the pair key, every verification on the right
  // seed must pass, and none on the other seed.
  constexpr int kPids = 24;
  const std::shared_ptr<KeyStore> stores[] = {
      keys, std::make_shared<KeyStore>(20260808)};
  const Bytes data = to_bytes("relay copy 7");
  std::vector<Digest> expected;
  std::deque<Authenticator> auths;  // [seed * kPids + pid]
  for (const auto& ks : stores) {
    for (int a = 0; a < kPids; ++a) {
      auths.emplace_back(ks, ProcessId{a});
      for (int b = 0; b < kPids; ++b) {
        expected.push_back(
            hmac_sha256(ks->pair_key(ProcessId{a}, ProcessId{b}), data));
      }
    }
  }
  const auto at = [](int s, int a, int b) {
    return static_cast<std::size_t>((s * kPids + a) * kPids + b);
  };
  const auto auth = [&auths](int s, int p) -> const Authenticator& {
    return auths[static_cast<std::size_t>(s * kPids + p)];
  };

  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 3000; ++i) {
        const int s = (i + t) % 2;
        const int a = (i * 7 + t) % kPids;
        const int b = (i * 13 + 3 * t) % kPids;
        const Digest mac = auth(s, a).sign(ProcessId{b}, data);
        if (mac != expected[at(s, a, b)]) wrong.fetch_add(1);
        if (!auth(s, b).verify(ProcessId{a}, data, mac)) wrong.fetch_add(1);
        if (auth(1 - s, b).verify(ProcessId{a}, data, mac)) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace byzcast
