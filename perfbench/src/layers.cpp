// Layer call timings: the per-message work of common/ (SHA-256, HMAC, MAC
// verification cold and memoized, request codec), bft/ (batch + PROPOSE
// encode) and net/ (frame encode + decode), timed at the sizes the run
// actually used: its multicast payload and its mean decided batch.
#include <algorithm>
#include <cmath>
#include <functional>

#include "bench.hpp"
#include "bft/message.hpp"
#include "common/auth.hpp"
#include "common/hmac.hpp"
#include "common/rng.hpp"
#include "core/multicast.hpp"
#include "net/frame.hpp"

namespace perfbench {

namespace bft = byzcast::bft;
using byzcast::Buffer;
using byzcast::Bytes;
using byzcast::Digest;
using byzcast::ProcessId;

namespace {

constexpr int kReps = 11;

/// Keeps results observable so the timed calls are not optimized away.
volatile std::uint64_t g_sink = 0;

void consume(std::size_t v) { g_sink = g_sink + v; }
void consume(const Digest& d) { g_sink = g_sink + d[0]; }

/// Median over kReps repetitions of the mean time of `call(i)`, in µs. The
/// iteration count is calibrated so the repetitions fill `budget_s`.
double time_call(const std::function<void(std::size_t)>& call,
                 double budget_s) {
  std::size_t iters = 1;
  for (;;) {
    const Time t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) call(i);
    const Time dt = now_ns() - t0;
    if (dt > 2 * byzcast::kMillisecond || iters >= (1u << 24)) {
      const double per_call =
          static_cast<double>(dt) / static_cast<double>(iters);
      iters = std::max<std::size_t>(
          1, static_cast<std::size_t>(budget_s * 1e9 / kReps / per_call));
      break;
    }
    iters *= 2;
  }
  std::vector<double> us;
  std::size_t offset = 0;
  for (int r = 0; r < kReps; ++r) {
    const Time t0 = now_ns();
    for (std::size_t i = 0; i < iters; ++i) call(offset + i);
    const Time dt = now_ns() - t0;
    offset += iters;
    us.push_back(static_cast<double>(dt) / 1e3 / static_cast<double>(iters));
  }
  return median(us);
}

}  // namespace

std::map<std::string, double> time_layers(const LayerSizes& s,
                                          std::uint64_t seed,
                                          double budget_s) {
  byzcast::Rng rng(seed);
  Bytes payload(s.payload);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_below(256));

  const ProcessId client{900};
  const ProcessId replica{1};
  const auto request = [&](std::uint64_t seq) {
    byzcast::core::MulticastMessage m;
    m.id = byzcast::MessageId{client, seq};
    m.dst = {GroupId{0}};
    m.payload = payload;
    bft::Request r;
    r.group = GroupId{0};
    r.origin = client;
    r.seq = seq;
    r.op = Buffer(m.encode());
    return r;
  };
  const bft::Request req = request(0);
  const Bytes req_bytes = bft::encode_request(req);

  bft::Batch batch;
  const auto batch_len = static_cast<std::size_t>(
      std::max(1.0, std::round(s.mean_batch)));
  for (std::size_t k = 0; k < batch_len; ++k) batch.push_back(request(k));
  const Bytes encoded_batch = bft::encode_batch(batch);

  auto keys = std::make_shared<byzcast::KeyStore>(seed);
  const Bytes key = keys->pair_key(client, replica);
  const byzcast::Authenticator signer(keys, client);

  // Distinct authenticated requests cycled through a one-slot memo, so every
  // cold verification misses it.
  constexpr std::size_t kDistinct = 64;
  std::vector<Bytes> cold_msgs;
  std::vector<Digest> cold_macs;
  for (std::size_t k = 0; k < kDistinct; ++k) {
    cold_msgs.push_back(bft::encode_request(request(k + 1)));
    cold_macs.push_back(signer.sign(replica, cold_msgs.back()));
  }
  const Digest req_mac = signer.sign(replica, req_bytes);
  const byzcast::Authenticator cold(keys, replica, /*cache_slots=*/1);
  const byzcast::Authenticator verifier(keys, replica);

  byzcast::sim::WireMessage wire;
  wire.from = client;
  wire.to = replica;
  wire.payload = Buffer(req_bytes);
  wire.mac = req_mac;
  wire.sent_at = 1;

  const double each = budget_s / 7.0;
  std::map<std::string, double> out;
  out["common.sha256_batch_us"] = time_call(
      [&](std::size_t) { consume(byzcast::Sha256::hash(encoded_batch)); },
      each);
  out["common.hmac_us"] = time_call(
      [&](std::size_t) { consume(byzcast::hmac_sha256(key, req_bytes)); },
      each);
  out["common.mac_verify_cold_us"] = time_call(
      [&](std::size_t i) {
        const std::size_t k = i % kDistinct;
        consume(static_cast<std::size_t>(
            cold.verify(client, cold_msgs[k], cold_macs[k])));
      },
      each);
  out["common.mac_verify_memo_us"] = time_call(
      [&](std::size_t) {
        consume(static_cast<std::size_t>(
            verifier.verify(client, req_bytes, req_mac)));
      },
      each);
  out["common.codec_request_us"] = time_call(
      [&](std::size_t) {
        const Bytes b = bft::encode_request(req);
        byzcast::Reader r(b);
        (void)r.u8();
        consume(bft::decode_request(r).op.size());
      },
      each);
  out["common.codec_propose_us"] = time_call(
      [&](std::size_t i) {
        const Bytes enc = bft::encode_batch(batch);
        consume(bft::Propose::encode_with(0, i, enc).size());
      },
      each);
  out["net.frame_codec_us"] = time_call(
      [&](std::size_t) {
        byzcast::net::FrameDecoder dec;
        for (const Buffer& chunk : byzcast::net::encode_wire_frame(wire)) {
          dec.feed(chunk.data(), chunk.size());
        }
        const auto frame = dec.next();
        const auto msg =
            byzcast::net::decode_wire_body(frame->body, frame->flags);
        consume(msg->payload.size());
      },
      each);
  out["layers.request_bytes"] = static_cast<double>(req_bytes.size());
  out["layers.batch_len"] = static_cast<double>(batch_len);
  return out;
}

}  // namespace perfbench
