#include "core/multicast.hpp"

#include <gtest/gtest.h>

namespace byzcast::core {
namespace {

TEST(MulticastMessage, EncodeDecodeRoundTrip) {
  MulticastMessage m;
  m.id = MessageId{ProcessId{42}, 7};
  m.dst = {GroupId{1}, GroupId{3}};
  m.payload = to_bytes("hello shards");
  const Bytes encoded = m.encode();
  EXPECT_EQ(MulticastMessage::decode(encoded), m);
}

TEST(MulticastMessage, EncodeReservesExactSize) {
  MulticastMessage m;
  m.id = MessageId{ProcessId{42}, 7};
  m.dst = {GroupId{1}, GroupId{2}, GroupId{3}};
  m.payload = Bytes(4096, 0x6b);
  m.hop = 2;
  m.trace_flags = MulticastMessage::kTraced;
  const Bytes encoded = m.encode();
  EXPECT_EQ(encoded.capacity(), encoded.size());
  EXPECT_EQ(MulticastMessage::decode(encoded), m);
}

TEST(MulticastMessage, CanonicalizeSortsAndDedups) {
  MulticastMessage m;
  m.dst = {GroupId{3}, GroupId{1}, GroupId{3}, GroupId{2}};
  m.canonicalize();
  EXPECT_EQ(m.dst, (std::vector<GroupId>{GroupId{1}, GroupId{2}, GroupId{3}}));
}

TEST(MulticastMessage, LocalVsGlobal) {
  MulticastMessage local;
  local.dst = {GroupId{1}};
  EXPECT_TRUE(local.is_local());
  EXPECT_FALSE(local.is_global());

  MulticastMessage global;
  global.dst = {GroupId{1}, GroupId{2}};
  EXPECT_FALSE(global.is_local());
  EXPECT_TRUE(global.is_global());
}

TEST(MulticastMessage, EncodingIsCanonicalAfterCanonicalize) {
  MulticastMessage a;
  a.id = MessageId{ProcessId{1}, 0};
  a.dst = {GroupId{2}, GroupId{1}};
  a.canonicalize();
  MulticastMessage b;
  b.id = MessageId{ProcessId{1}, 0};
  b.dst = {GroupId{1}, GroupId{2}};
  b.canonicalize();
  EXPECT_EQ(a.encode(), b.encode());
}

TEST(MulticastMessage, EmptyPayloadAllowed) {
  MulticastMessage m;
  m.id = MessageId{ProcessId{9}, 1};
  m.dst = {GroupId{0}};
  EXPECT_EQ(MulticastMessage::decode(m.encode()), m);
}

}  // namespace
}  // namespace byzcast::core
