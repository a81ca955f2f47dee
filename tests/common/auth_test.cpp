#include "common/auth.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"
#include "common/hmac.hpp"

namespace byzcast {
namespace {

class AuthTest : public ::testing::Test {
 protected:
  std::shared_ptr<KeyStore> keys = std::make_shared<KeyStore>(777);
  ProcessId alice{1};
  ProcessId bob{2};
  ProcessId mallory{3};
};

TEST_F(AuthTest, SignVerifyRoundTrip) {
  Authenticator a(keys, alice);
  Authenticator b(keys, bob);
  const Bytes msg = to_bytes("transfer 100");
  const Digest mac = a.sign(bob, msg);
  EXPECT_TRUE(b.verify(alice, msg, mac));
}

TEST_F(AuthTest, TamperedPayloadRejected) {
  Authenticator a(keys, alice);
  Authenticator b(keys, bob);
  const Digest mac = a.sign(bob, to_bytes("transfer 100"));
  EXPECT_FALSE(b.verify(alice, to_bytes("transfer 900"), mac));
}

TEST_F(AuthTest, ImpersonationRejected) {
  // Mallory signs with her own keys but claims to be Alice.
  Authenticator m(keys, mallory);
  Authenticator b(keys, bob);
  const Bytes msg = to_bytes("i am alice, honest");
  const Digest mac = m.sign(bob, msg);
  EXPECT_FALSE(b.verify(alice, msg, mac));
}

TEST_F(AuthTest, MacIsChannelBound) {
  // A MAC for channel alice->bob must not verify on alice->mallory.
  Authenticator a(keys, alice);
  Authenticator m(keys, mallory);
  const Bytes msg = to_bytes("hello");
  const Digest mac = a.sign(bob, msg);
  EXPECT_FALSE(m.verify(alice, msg, mac));
}

TEST_F(AuthTest, PairKeySymmetric) {
  EXPECT_EQ(keys->pair_key(alice, bob), keys->pair_key(bob, alice));
  EXPECT_NE(keys->pair_key(alice, bob), keys->pair_key(alice, mallory));
}

TEST_F(AuthTest, DifferentMasterSeedsDifferentKeys) {
  KeyStore other(778);
  EXPECT_NE(keys->pair_key(alice, bob), other.pair_key(alice, bob));
}

TEST_F(AuthTest, MemoServesOnlyExactPayload) {
  Authenticator a(keys, alice);
  Authenticator b(keys, bob);
  const Bytes msg = to_bytes("transfer 100");
  const Digest mac = a.sign(bob, msg);
  ASSERT_TRUE(b.verify(alice, msg, mac));  // warms the memo slot
  ASSERT_TRUE(b.verify(alice, msg, mac));  // answered from the memo
  EXPECT_EQ(b.verify_cache_hits(), 1u);
  // Same sender, same length, same MAC, different bytes: the memo matches
  // on the payload's full SHA-256, so this must fall through to the real
  // HMAC and be rejected — a warm slot is never a forgery oracle.
  Bytes forged = msg;
  forged[0] ^= 0x01;
  EXPECT_FALSE(b.verify(alice, forged, mac));
  EXPECT_EQ(b.verify_cache_hits(), 1u);
  // The failed attempt must not evict or poison the honest entry.
  EXPECT_TRUE(b.verify(alice, msg, mac));
  EXPECT_EQ(b.verify_cache_hits(), 2u);
}

// The cached channel schedules are a pure memo of the plain HMAC: for two
// seeds and every pair among 40 pids (more channels than one thread's memo
// has slots, so schedules are evicted and derived again), sign equals
// hmac_sha256 under pair_key, cold and warm, and verify accepts it.
TEST(AuthSchedules, SignIsHmacUnderThePairKey) {
  const Bytes data = to_bytes("request bytes");
  for (const std::uint64_t seed : {777ULL, 778ULL}) {
    const auto ks = std::make_shared<KeyStore>(seed);
    for (int pass = 0; pass < 2; ++pass) {
      for (int a = 0; a < 40; ++a) {
        const Authenticator signer(ks, ProcessId{a});
        for (int b = 0; b < 40; ++b) {
          const Digest mac = signer.sign(ProcessId{b}, data);
          ASSERT_EQ(mac, hmac_sha256(ks->pair_key(ProcessId{a}, ProcessId{b}),
                                     data))
              << "seed " << seed << " channel " << a << "->" << b;
          ASSERT_TRUE(Authenticator(ks, ProcessId{b})
                          .verify(ProcessId{a}, data, mac));
        }
      }
    }
  }
}

// Key stores with different seeds used from one thread never answer from
// each other's cached schedules, even for the same channel. Hundreds of
// seeds interleaved on one channel make some of them share a memo slot.
TEST(AuthSchedules, SeedsNeverShareACachedSchedule) {
  const Bytes data = to_bytes("relay copy");
  const ProcessId a{3};
  const ProcessId b{17};
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t seed = 1; seed <= 600; ++seed) {
      const KeyStore ks(seed);
      const KeyStore next(seed + 1);
      const Digest mac = ks.mac(a, b, data);
      ASSERT_EQ(mac, hmac_sha256(ks.pair_key(a, b), data)) << seed;
      ASSERT_EQ(next.mac(b, a, data), hmac_sha256(next.pair_key(a, b), data))
          << seed;
      ASSERT_NE(mac, next.mac(a, b, data)) << seed;
    }
  }
  // The fast mode's MAC is not an HMAC and never comes from the memo.
  const KeyStore hmac(777);
  const KeyStore fast(777, MacMode::kFast);
  EXPECT_NE(fast.mac(a, b, data), hmac.mac(a, b, data));
}

}  // namespace
}  // namespace byzcast
