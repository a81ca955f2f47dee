#include "bft/message.hpp"

#include "common/contracts.hpp"

namespace byzcast::bft {

namespace {

void put_digest(Writer& w, const Digest& d) {
  w.bytes(BytesView(d.data(), d.size()));
}

Digest get_digest(Reader& r) {
  const BytesView raw = r.bytes_view();
  BZC_EXPECTS(raw.size() == 32);
  Digest d;
  std::copy(raw.begin(), raw.end(), d.begin());
  return d;
}

// Exact encoded sizes of the hot-path messages (the codec is fixed-width),
// so each encoder reserves once and never grows its buffer.
constexpr std::size_t kTagSize = 1;
/// group, origin, seq, reconfig flag and the op's length prefix.
constexpr std::size_t kRequestHeaderSize = 4 + 4 + 8 + 1 + 4;
/// phase tag, view, instance and the length-prefixed digest.
constexpr std::size_t kVoteSize = kTagSize + 8 + 8 + 4 + sizeof(Digest);

std::size_t encoded_size(const Request& req) {
  return kRequestHeaderSize + req.op.size();
}

/// Count prefix plus each request.
std::size_t encoded_batch_size(const Batch& batch) {
  std::size_t size = 4;
  for (const auto& req : batch) size += encoded_size(req);
  return size;
}

/// group, seq and the length-prefixed result.
std::size_t encoded_body_size(const Reply& rep) {
  return 4 + 8 + 4 + rep.result.size();
}

}  // namespace

MsgType peek_type(BytesView payload) {
  BZC_EXPECTS(!payload.empty());
  return static_cast<MsgType>(payload[0]);
}

void Request::encode(Writer& w) const {
  w.group_id(group);
  w.process_id(origin);
  w.u64(seq);
  w.u8(reconfig ? 1 : 0);
  w.bytes(op);
}

Request Request::decode(Reader& r) {
  Request req;
  req.group = r.group_id();
  req.origin = r.process_id();
  req.seq = r.u64();
  req.reconfig = r.u8() != 0;
  req.op = r.buffer();
  return req;
}

Bytes encode_batch(const Batch& batch) {
  Writer w;
  w.reserve(encoded_batch_size(batch));
  w.vec(batch, [](Writer& ww, const Request& req) { req.encode(ww); });
  return w.take();
}

Batch decode_batch(Reader& r) {
  return r.vec<Request>([](Reader& rr) { return Request::decode(rr); });
}

Digest batch_digest(const Batch& batch) {
  // Cold-path convenience (state transfer, view change). The propose path
  // encodes the batch once and hashes those bytes directly; receivers hash
  // the wire slice at kProposeBatchOffset — same value, no re-encode.
  const Bytes encoded = encode_batch(batch);
  return Sha256::hash(encoded);
}

Bytes Propose::encode() const {
  return encode_with(view, instance, encode_batch(batch));
}

Bytes Propose::encode_with(std::uint64_t view, std::uint64_t instance,
                           BytesView encoded_batch) {
  Writer w;
  w.reserve(kProposeBatchOffset + encoded_batch.size());
  w.u8(static_cast<std::uint8_t>(MsgType::kPropose));
  w.u64(view);
  w.u64(instance);
  w.raw(encoded_batch);
  return w.take();
}

Propose Propose::decode(Reader& r) {
  Propose p;
  p.view = r.u64();
  p.instance = r.u64();
  p.batch = decode_batch(r);
  return p;
}

std::uint32_t peek_propose_count(BytesView payload) {
  BZC_EXPECTS(peek_type(payload) == MsgType::kPropose);
  // Layout: [tag u8][view u64][instance u64][count u32]...
  Reader r(payload);
  (void)r.u8();
  (void)r.u64();
  (void)r.u64();
  return r.u32();
}

Bytes Vote::encode() const {
  BZC_EXPECTS(phase == MsgType::kWrite || phase == MsgType::kAccept);
  Writer w;
  w.reserve(kVoteSize);
  w.u8(static_cast<std::uint8_t>(phase));
  w.u64(view);
  w.u64(instance);
  put_digest(w, digest);
  return w.take();
}

Vote Vote::decode(MsgType type, Reader& r) {
  BZC_EXPECTS(type == MsgType::kWrite || type == MsgType::kAccept);
  Vote v;
  v.phase = type;
  v.view = r.u64();
  v.instance = r.u64();
  v.digest = get_digest(r);
  return v;
}

Bytes Reply::encode() const {
  Writer w;
  w.reserve(kTagSize + encoded_body_size(*this));
  w.u8(static_cast<std::uint8_t>(MsgType::kReply));
  encode_body(w);
  return w.take();
}

Reply Reply::decode(Reader& r) { return decode_body(r); }

void Reply::encode_body(Writer& w) const {
  w.group_id(group);
  w.u64(seq);
  w.bytes(result);
}

Reply Reply::decode_body(Reader& r) {
  Reply rep;
  rep.group = r.group_id();
  rep.seq = r.u64();
  rep.result = r.bytes();
  return rep;
}

Bytes ReplyBatch::encode() const {
  std::size_t size = kTagSize + 4;
  for (const auto& rep : replies) size += encoded_body_size(rep);
  Writer w;
  w.reserve(size);
  w.u8(static_cast<std::uint8_t>(MsgType::kReplyBatch));
  w.vec(replies, [](Writer& ww, const Reply& rep) { rep.encode_body(ww); });
  return w.take();
}

ReplyBatch ReplyBatch::decode(Reader& r) {
  ReplyBatch b;
  b.replies = r.vec<Reply>([](Reader& rr) { return Reply::decode_body(rr); });
  return b;
}

Bytes Stop::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kStop));
  w.u64(next_view);
  return w.take();
}

Stop Stop::decode(Reader& r) {
  Stop s;
  s.next_view = r.u64();
  return s;
}

Bytes StopData::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kStopData));
  w.u64(next_view);
  w.u64(next_instance);
  w.vec(values, [](Writer& ww, const OpenValue& v) {
    ww.u64(v.instance);
    ww.u64(v.value_view);
    ww.vec(v.value, [](Writer& www, const Request& req) { req.encode(www); });
  });
  return w.take();
}

StopData StopData::decode(Reader& r) {
  StopData s;
  s.next_view = r.u64();
  s.next_instance = r.u64();
  s.values = r.vec<OpenValue>([](Reader& rr) {
    OpenValue v;
    v.instance = rr.u64();
    v.value_view = rr.u64();
    v.value = decode_batch(rr);
    return v;
  });
  return s;
}

Bytes Sync::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kSync));
  w.u64(next_view);
  w.u64(instance);
  w.u64(open_from);
  w.vec(batches, [](Writer& ww, const Batch& batch) {
    ww.vec(batch, [](Writer& www, const Request& req) { req.encode(www); });
  });
  return w.take();
}

Sync Sync::decode(Reader& r) {
  Sync s;
  s.next_view = r.u64();
  s.instance = r.u64();
  s.open_from = r.u64();
  const auto n = r.u32();
  s.batches.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) s.batches.push_back(decode_batch(r));
  return s;
}

Bytes StateRequest::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kStateRequest));
  w.u64(from_instance);
  return w.take();
}

StateRequest StateRequest::decode(Reader& r) {
  StateRequest s;
  s.from_instance = r.u64();
  return s;
}

Bytes StateResponse::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kStateResponse));
  w.u64(first_instance);
  w.u32(static_cast<std::uint32_t>(batches.size()));
  for (const auto& batch : batches) {
    w.vec(batch, [](Writer& ww, const Request& req) { req.encode(ww); });
  }
  w.u8(has_snapshot ? 1 : 0);
  w.u64(snapshot_instance);
  w.bytes(snapshot);
  return w.take();
}

StateResponse StateResponse::decode(Reader& r) {
  StateResponse s;
  s.first_instance = r.u64();
  const auto n = r.u32();
  s.batches.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) s.batches.push_back(decode_batch(r));
  s.has_snapshot = r.u8() != 0;
  s.snapshot_instance = r.u64();
  s.snapshot = r.bytes();
  return s;
}

Bytes Frontier::encode() const {
  Writer w;
  w.u8(static_cast<std::uint8_t>(MsgType::kFrontier));
  w.u64(view);
  w.u64(next_instance);
  return w.take();
}

Frontier Frontier::decode(Reader& r) {
  Frontier f;
  f.view = r.u64();
  f.next_instance = r.u64();
  return f;
}

Bytes encode_request(const Request& req) {
  Writer w;
  w.reserve(kTagSize + encoded_size(req));
  w.u8(static_cast<std::uint8_t>(MsgType::kRequest));
  req.encode(w);
  return w.take();
}

Request decode_request(Reader& r) { return Request::decode(r); }

Bytes encode_membership(const std::vector<ProcessId>& replicas) {
  Writer w;
  w.vec(replicas, [](Writer& ww, ProcessId p) { ww.process_id(p); });
  return w.take();
}

std::vector<ProcessId> decode_membership(BytesView raw) {
  Reader r(raw);
  return r.vec<ProcessId>([](Reader& rr) { return rr.process_id(); });
}

}  // namespace byzcast::bft
