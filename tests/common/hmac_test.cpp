#include "common/hmac.hpp"

#include <gtest/gtest.h>

#include "common/bytes.hpp"

namespace byzcast {
namespace {

// RFC 4231 test vectors for HMAC-SHA-256.
TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  const Bytes data = to_bytes("Hi There");
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  const Bytes key = to_bytes("Jefe");
  const Bytes data = to_bytes("what do ya want for nothing?");
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  const Bytes key(131, 0xaa);
  const Bytes data = to_bytes("Test Using Larger Than Block-Size Key - Hash Key First");
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// The key schedule is the one HMAC implementation: the RFC 4231 vectors come
// out of it on its reusable and its one-shot form, and reusing a schedule
// over data of other lengths gives what a fresh one-shot MAC gives.
TEST(Hmac, KeyScheduleMatchesRfc4231AndStaysReusable) {
  struct Case {
    Bytes key;
    Bytes data;
    const char* mac;
  };
  const Case cases[] = {
      {Bytes(20, 0x0b), to_bytes("Hi There"),
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {to_bytes("Jefe"), to_bytes("what do ya want for nothing?"),
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Bytes(20, 0xaa), Bytes(50, 0xdd),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {Bytes(131, 0xaa),
       to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"),
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const Case& c : cases) {
    const HmacKey schedule(c.key);
    EXPECT_EQ(to_hex(schedule.mac(c.data)), c.mac);
    EXPECT_EQ(to_hex(HmacKey(c.key).mac(c.data)), c.mac);
    for (const std::size_t n : {0, 1, 55, 56, 64, 65, 4096}) {
      const Bytes other(n, 0x3c);
      EXPECT_EQ(schedule.mac(other), hmac_sha256(c.key, other)) << n;
    }
    EXPECT_EQ(to_hex(schedule.mac(c.data)), c.mac);
  }
}

TEST(Hmac, DifferentKeysDifferentMacs) {
  const Bytes data = to_bytes("payload");
  EXPECT_NE(hmac_sha256(to_bytes("k1"), data),
            hmac_sha256(to_bytes("k2"), data));
}

TEST(Hmac, DifferentDataDifferentMacs) {
  const Bytes key = to_bytes("key");
  EXPECT_NE(hmac_sha256(key, to_bytes("m1")),
            hmac_sha256(key, to_bytes("m2")));
}

}  // namespace
}  // namespace byzcast
