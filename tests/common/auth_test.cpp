#include "common/auth.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"

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

}  // namespace
}  // namespace byzcast
