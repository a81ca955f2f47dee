#include "bft/message.hpp"

#include <gtest/gtest.h>

namespace byzcast::bft {
namespace {

Request make_request(int origin, std::uint64_t seq, const char* op) {
  Request r;
  r.group = GroupId{1};
  r.origin = ProcessId{origin};
  r.seq = seq;
  r.op = to_bytes(op);
  return r;
}

TEST(BftMessage, RequestRoundTrip) {
  const Request req = make_request(5, 42, "op-payload");
  const Bytes encoded = encode_request(req);
  EXPECT_EQ(peek_type(encoded), MsgType::kRequest);
  Reader r(encoded);
  (void)r.u8();
  EXPECT_EQ(decode_request(r), req);
}

TEST(BftMessage, RequestId) {
  const Request req = make_request(5, 42, "x");
  EXPECT_EQ(req.id(), (MessageId{ProcessId{5}, 42}));
}

TEST(BftMessage, ProposeRoundTrip) {
  Propose p;
  p.view = 3;
  p.instance = 17;
  p.batch = {make_request(1, 0, "a"), make_request(2, 9, "b")};
  const Bytes encoded = p.encode();
  EXPECT_EQ(peek_type(encoded), MsgType::kPropose);
  EXPECT_EQ(peek_propose_count(encoded), 2u);
  Reader r(encoded);
  (void)r.u8();
  const Propose q = Propose::decode(r);
  EXPECT_EQ(q.view, 3u);
  EXPECT_EQ(q.instance, 17u);
  EXPECT_EQ(q.batch, p.batch);
}

TEST(BftMessage, EmptyProposeCount) {
  Propose p;
  EXPECT_EQ(peek_propose_count(p.encode()), 0u);
}

TEST(BftMessage, BatchDigestSensitivity) {
  const Batch a = {make_request(1, 0, "a"), make_request(2, 0, "b")};
  Batch reordered = {a[1], a[0]};
  Batch tampered = a;
  Bytes raw(tampered[0].op.data(),
            tampered[0].op.data() + tampered[0].op.size());
  raw.push_back(0xFF);
  tampered[0].op = Buffer(std::move(raw));
  EXPECT_NE(batch_digest(a), batch_digest(reordered));
  EXPECT_NE(batch_digest(a), batch_digest(tampered));
  EXPECT_EQ(batch_digest(a), batch_digest(Batch{a}));
}

TEST(BftMessage, VoteRoundTrip) {
  for (const MsgType phase : {MsgType::kWrite, MsgType::kAccept}) {
    Vote v;
    v.phase = phase;
    v.view = 7;
    v.instance = 123;
    v.digest = Sha256::hash(to_bytes("batch"));
    const Bytes encoded = v.encode();
    EXPECT_EQ(peek_type(encoded), phase);
    Reader r(encoded);
    const auto type = static_cast<MsgType>(r.u8());
    const Vote w = Vote::decode(type, r);
    EXPECT_EQ(w.phase, phase);
    EXPECT_EQ(w.view, 7u);
    EXPECT_EQ(w.instance, 123u);
    EXPECT_EQ(w.digest, v.digest);
  }
}

TEST(BftMessage, ReplyRoundTrip) {
  Reply rep;
  rep.group = GroupId{4};
  rep.seq = 77;
  rep.result = to_bytes("ack");
  const Bytes encoded = rep.encode();
  Reader r(encoded);
  (void)r.u8();
  const Reply out = Reply::decode(r);
  EXPECT_EQ(out.group, GroupId{4});
  EXPECT_EQ(out.seq, 77u);
  EXPECT_EQ(out.result, to_bytes("ack"));
}

// Every hot-path encoder reserves its message's exact size, so encoding
// costs one allocation and never grows the buffer; each still round-trips.
TEST(BftMessage, HotPathEncodersReserveExactSize) {
  Request big = make_request(5, 42, "");
  big.op = Buffer(Bytes(4096, 0x5a));
  for (const Request& req : {make_request(5, 42, "op-payload"), big}) {
    const Bytes encoded = encode_request(req);
    EXPECT_EQ(encoded.capacity(), encoded.size());
    Reader r(encoded);
    (void)r.u8();
    EXPECT_EQ(decode_request(r), req);
    EXPECT_TRUE(r.exhausted());
  }

  const Vote vote{MsgType::kAccept, 7, 123, Sha256::hash(to_bytes("batch"))};
  const Bytes vote_bytes = vote.encode();
  EXPECT_EQ(vote_bytes.capacity(), vote_bytes.size());
  Reader vr(vote_bytes);
  (void)vr.u8();
  EXPECT_EQ(Vote::decode(MsgType::kAccept, vr).digest, vote.digest);
  EXPECT_TRUE(vr.exhausted());

  const Reply one{GroupId{4}, 77, Bytes(4096, 0x11)};
  const Bytes reply_bytes = one.encode();
  EXPECT_EQ(reply_bytes.capacity(), reply_bytes.size());
  Reader rr(reply_bytes);
  (void)rr.u8();
  EXPECT_EQ(Reply::decode(rr).result, one.result);
  EXPECT_TRUE(rr.exhausted());

  const ReplyBatch batch{{one, Reply{GroupId{5}, 78, to_bytes("ok")}}};
  const Bytes batch_bytes = batch.encode();
  EXPECT_EQ(batch_bytes.capacity(), batch_bytes.size());
  Reader br(batch_bytes);
  (void)br.u8();
  const ReplyBatch out = ReplyBatch::decode(br);
  ASSERT_EQ(out.replies.size(), 2u);
  EXPECT_EQ(out.replies[1].result, to_bytes("ok"));
  EXPECT_TRUE(br.exhausted());
}

// A Reader over the wire Buffer hands each op out as a slice of it: decoding
// a PROPOSE copies no op and materializes nothing, and the ops outlive the
// wire buffer. A Reader over plain bytes copies instead.
TEST(BftMessage, OpsDecodeAsSlicesOfTheWireBuffer) {
  Propose p;
  p.view = 1;
  p.instance = 2;
  p.batch = {make_request(1, 0, "alpha"), make_request(2, 5, "beta")};
  Buffer wire(p.encode());
  const std::uint8_t* const begin = wire.data();
  const std::uint8_t* const end = wire.data() + wire.size();

  const std::uint64_t before = Buffer::materializations();
  Reader r(wire);
  (void)r.u8();
  Propose q = Propose::decode(r);
  EXPECT_EQ(Buffer::materializations(), before);
  ASSERT_EQ(q.batch, p.batch);
  for (const Request& req : q.batch) {
    EXPECT_GE(req.op.data(), begin);
    EXPECT_LE(req.op.data() + req.op.size(), end);
  }

  wire = Buffer();  // the slices keep the wire bytes alive
  EXPECT_EQ(to_text(q.batch[0].op), "alpha");
  EXPECT_EQ(to_text(q.batch[1].op), "beta");

  const Bytes plain = encode_request(make_request(3, 1, "gamma"));
  const std::uint64_t before_copy = Buffer::materializations();
  Reader pr(plain);
  (void)pr.u8();
  const Request copied = decode_request(pr);
  EXPECT_EQ(Buffer::materializations(), before_copy + 1);
  EXPECT_EQ(to_text(copied.op), "gamma");
  EXPECT_FALSE(copied.op.data() >= plain.data() &&
               copied.op.data() < plain.data() + plain.size());
}

TEST(BftMessage, StopAndStopDataRoundTrip) {
  const Bytes stop_encoded = Stop{9}.encode();
  Reader sr(stop_encoded);
  (void)sr.u8();
  EXPECT_EQ(Stop::decode(sr).next_view, 9u);

  StopData sd;
  sd.next_view = 9;
  sd.next_instance = 100;
  sd.values = {OpenValue{100, 8, {make_request(1, 2, "v")}},
               OpenValue{102, 9, {make_request(1, 3, "w")}}};
  const Bytes sd_encoded = sd.encode();
  Reader r(sd_encoded);
  (void)r.u8();
  const StopData out = StopData::decode(r);
  EXPECT_EQ(out.next_view, 9u);
  EXPECT_EQ(out.next_instance, 100u);
  ASSERT_EQ(out.values.size(), 2u);
  EXPECT_EQ(out.values[0].instance, 100u);
  EXPECT_EQ(out.values[0].value_view, 8u);
  EXPECT_EQ(out.values[0].value, sd.values[0].value);
  EXPECT_EQ(out.values[1].instance, 102u);
  EXPECT_EQ(out.values[1].value, sd.values[1].value);
}

TEST(BftMessage, SyncRoundTrip) {
  Sync s;
  s.next_view = 2;
  s.instance = 55;
  s.open_from = 56;  // batches[0] is decided history, the rest re-propose
  s.batches = {{make_request(3, 4, "w")}, {}, {make_request(3, 5, "x")}};
  const Bytes s_encoded = s.encode();
  Reader r(s_encoded);
  (void)r.u8();
  const Sync out = Sync::decode(r);
  EXPECT_EQ(out.next_view, 2u);
  EXPECT_EQ(out.instance, 55u);
  EXPECT_EQ(out.open_from, 56u);
  ASSERT_EQ(out.batches.size(), 3u);
  EXPECT_EQ(out.batches[0], s.batches[0]);
  EXPECT_TRUE(out.batches[1].empty());
  EXPECT_EQ(out.batches[2], s.batches[2]);
}

TEST(BftMessage, ReplyBatchRoundTrip) {
  ReplyBatch b;
  b.replies = {Reply{GroupId{4}, 77, to_bytes("ack")},
               Reply{GroupId{4}, 78, to_bytes("ack2")}};
  const Bytes encoded = b.encode();
  EXPECT_EQ(peek_type(encoded), MsgType::kReplyBatch);
  Reader r(encoded);
  (void)r.u8();
  const ReplyBatch out = ReplyBatch::decode(r);
  ASSERT_EQ(out.replies.size(), 2u);
  EXPECT_EQ(out.replies[0].group, GroupId{4});
  EXPECT_EQ(out.replies[0].seq, 77u);
  EXPECT_EQ(out.replies[0].result, to_bytes("ack"));
  EXPECT_EQ(out.replies[1].seq, 78u);
  EXPECT_EQ(out.replies[1].result, to_bytes("ack2"));
}

TEST(BftMessage, StateTransferRoundTrip) {
  const Bytes sr_encoded = StateRequest{31}.encode();
  Reader rr(sr_encoded);
  (void)rr.u8();
  EXPECT_EQ(StateRequest::decode(rr).from_instance, 31u);

  StateResponse resp;
  resp.first_instance = 31;
  resp.batches = {{make_request(1, 1, "a")}, {}, {make_request(2, 2, "b")}};
  resp.has_snapshot = true;
  resp.snapshot_instance = 31;
  resp.snapshot = to_bytes("snapshot-bytes");
  const Bytes resp_encoded = resp.encode();
  Reader r(resp_encoded);
  (void)r.u8();
  const StateResponse out = StateResponse::decode(r);
  EXPECT_EQ(out.first_instance, 31u);
  ASSERT_EQ(out.batches.size(), 3u);
  EXPECT_EQ(out.batches[0], resp.batches[0]);
  EXPECT_TRUE(out.batches[1].empty());
  EXPECT_TRUE(out.has_snapshot);
  EXPECT_EQ(out.snapshot, to_bytes("snapshot-bytes"));
}

}  // namespace
}  // namespace byzcast::bft
