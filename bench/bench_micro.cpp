// Microbenchmarks (google-benchmark) of the building blocks: crypto, codec,
// scheduler, tree operations, the optimizer search, and the zero-copy wire
// fabric (shared-Buffer fan-out, encode-once batch digests, memoized MAC
// verification). These quantify the per-message costs underlying the
// simulation's calibrated constants.
//
// Before any benchmark runs, main() asserts the encode-once invariant on a
// live protocol instance: a leader's broadcast to its 3f+1-replica group
// performs exactly ONE payload serialization — every wire copy of a PROPOSE
// shares one backing allocation (checked via the network tap and the
// Buffer materialization counter). The process aborts if the invariant is
// broken, so a fan-out regression cannot produce numbers silently.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "bft/client_proxy.hpp"
#include "bft/group.hpp"
#include "bft/message.hpp"
#include "common/auth.hpp"
#include "common/buffer.hpp"
#include "common/hmac.hpp"
#include "common/serde.hpp"
#include "common/sha256.hpp"
#include "common/sha256_kernels.hpp"
#include "core/tree.hpp"
#include "optimizer/search.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulation.hpp"

namespace {

using namespace byzcast;

// ---------------------------------------------------------------------------
// Encode-once fan-out assertion (runs before the benchmarks).

void check(bool ok, const char* what) {
  if (ok) return;
  std::fprintf(stderr, "bench_micro: encode-once invariant violated: %s\n",
               what);
  std::abort();
}

/// Drives one real broadcast group (f=1, 3f+1 = 4 replicas) and checks that
/// every logical PROPOSE fan-out serialized its payload exactly once.
void assert_encode_once_fanout() {
  sim::Simulation sim(/*seed=*/1, sim::Profile::lan());
  bft::Group group(sim, GroupId{0}, /*f=*/1, [](int) {
    return std::make_unique<bft::EchoApplication>();
  });

  // Tap: group PROPOSE wire messages by (sender, content); each group is one
  // logical broadcast and must carry one distinct backing pointer.
  std::map<std::pair<std::int32_t, Bytes>, std::set<const std::uint8_t*>>
      pointers;
  std::map<std::pair<std::int32_t, Bytes>, std::set<std::int32_t>> recipients;
  sim.network().set_tap([&](const sim::WireMessage& msg) {
    if (msg.payload.empty() ||
        bft::peek_type(msg.payload) != bft::MsgType::kPropose) {
      return;
    }
    const auto key = std::make_pair(
        msg.from.value, Bytes(msg.payload.data(),
                              msg.payload.data() + msg.payload.size()));
    pointers[key].insert(msg.payload.data());
    recipients[key].insert(msg.to.value);
  });

  bft::ClientProxy client(sim, group.info(), "bench-client");
  constexpr int kOps = 8;
  int completions = 0;
  std::function<void()> issue = [&] {
    if (completions == kOps) return;
    client.invoke(Bytes(64, static_cast<std::uint8_t>(completions)),
                  [&](const Bytes&, Time) {
                    ++completions;
                    issue();
                  });
  };
  issue();
  sim.run_until(30 * kSecond);

  check(completions == kOps, "benchmark group did not complete its ops");
  check(!pointers.empty(), "no PROPOSE traffic observed");
  const std::size_t peers = group.info().replicas().size() - 1;  // 3f+1 - self
  for (const auto& [key, ptrs] : pointers) {
    check(ptrs.size() == 1,
          "a PROPOSE fan-out serialized its payload more than once");
    check(recipients[key].size() == peers,
          "a PROPOSE fan-out did not reach all 3f+1-1 peer replicas");
  }

  // Fabric-level counter check: fanning one payload to 3f+1 recipients
  // materializes exactly one buffer (the N sends are ref bumps).
  const std::uint64_t before = Buffer::materializations();
  const Buffer payload{Bytes(1024, 0xEE)};
  std::vector<sim::WireMessage> out(4);
  for (auto& m : out) m.payload = payload;
  check(Buffer::materializations() == before + 1,
        "fan-out of one payload to 3f+1 recipients materialized more than "
        "one buffer");
  for (const auto& m : out) {
    check(m.payload.data() == payload.data(),
          "a wire copy does not alias the broadcast payload");
  }
  std::fprintf(stderr,
               "bench_micro: encode-once fan-out verified (%zu logical "
               "broadcasts, 1 serialization each, %zu recipients)\n",
               pointers.size(), peers);
}

// ---------------------------------------------------------------------------
// Crypto / codec / infrastructure micro-costs.

// The dispatched kernel (the context line "sha256_kernel" names it) next to
// the portable fallback, so every run shows what the CPU's kernel buys.
void BM_Sha256_64B(benchmark::State& state) {
  const Bytes data(64, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_4KiB(benchmark::State& state) {
  const Bytes data(4096, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
}
BENCHMARK(BM_Sha256_4KiB);

void sha256_portable(benchmark::State& state, std::size_t size) {
  const Bytes data(size, 0xAB);
  for (auto _ : state) {
    Sha256 ctx = sha256_kernels::Access::context(sha256_kernels::portable);
    ctx.update(data);
    benchmark::DoNotOptimize(ctx.finish());
  }
}

void BM_Sha256_64B_Portable(benchmark::State& state) {
  sha256_portable(state, 64);
}
BENCHMARK(BM_Sha256_64B_Portable);

void BM_Sha256_4KiB_Portable(benchmark::State& state) {
  sha256_portable(state, 4096);
}
BENCHMARK(BM_Sha256_4KiB_Portable);

void BM_HmacSha256_64B(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data(64, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hmac_sha256(key, data));
  }
}
BENCHMARK(BM_HmacSha256_64B);

void authenticator_sign_verify(benchmark::State& state, MacMode mode) {
  const auto keys = std::make_shared<KeyStore>(1, mode);
  const Authenticator alice(keys, ProcessId{1});
  const Authenticator bob(keys, ProcessId{2});
  const Bytes data(100, 0x42);
  for (auto _ : state) {
    const Digest mac = alice.sign(ProcessId{2}, data);
    benchmark::DoNotOptimize(bob.verify(ProcessId{1}, data, mac));
  }
}

void BM_AuthenticatorSignVerify(benchmark::State& state) {
  authenticator_sign_verify(state, MacMode::kHmac);
}
BENCHMARK(BM_AuthenticatorSignVerify);

// The ratio to BM_AuthenticatorSignVerify is what MacMode's comment quotes.
void BM_AuthenticatorSignVerifyFastMac(benchmark::State& state) {
  authenticator_sign_verify(state, MacMode::kFast);
}
BENCHMARK(BM_AuthenticatorSignVerifyFastMac);

// Repeated verification of the same (sender, payload, mac): after the first
// full HMAC pass every check is answered by the payload-digest memo (one
// unkeyed SHA-256 pass instead of the keyed HMAC). Only an exact repeat from
// the same sender hits, such as a retransmit. The f+1 parent copies of a
// relayed request do not: each parent replica signs on its own pairwise
// channel, so sender and MAC differ, and the repository benchmark counts
// zero memo hits per multicast on every workload.
void BM_MacVerifyMemoized(benchmark::State& state) {
  const auto keys = std::make_shared<KeyStore>(1, MacMode::kHmac);
  const Authenticator alice(keys, ProcessId{1});
  const Authenticator bob(keys, ProcessId{2});
  const Bytes data(256, 0x42);
  const Digest mac = alice.sign(ProcessId{2}, data);
  (void)bob.verify(ProcessId{1}, data, mac);  // warm the slot
  for (auto _ : state) {
    benchmark::DoNotOptimize(bob.verify(ProcessId{1}, data, mac));
  }
  state.counters["cache_hits"] =
      static_cast<double>(bob.verify_cache_hits());
}
BENCHMARK(BM_MacVerifyMemoized);

// Verification of always-fresh payloads: every check runs the full HMAC
// (the memo cannot help). The gap to BM_MacVerifyMemoized is the per-message
// saving on the relay path.
void BM_MacVerifyCold(benchmark::State& state) {
  const auto keys = std::make_shared<KeyStore>(1, MacMode::kHmac);
  const Authenticator alice(keys, ProcessId{1});
  const Authenticator bob(keys, ProcessId{2});
  constexpr std::size_t kPool = 4096;  // > cache slots: mostly evictions
  std::vector<Bytes> payloads;
  std::vector<Digest> macs;
  payloads.reserve(kPool);
  macs.reserve(kPool);
  for (std::size_t i = 0; i < kPool; ++i) {
    Bytes d(256, 0x42);
    d[0] = static_cast<std::uint8_t>(i);
    d[1] = static_cast<std::uint8_t>(i >> 8);
    macs.push_back(alice.sign(ProcessId{2}, d));
    payloads.push_back(std::move(d));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bob.verify(ProcessId{1}, payloads[i], macs[i]));
    i = (i + 1) % kPool;
  }
}
BENCHMARK(BM_MacVerifyCold);

void BM_CodecRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    Writer w;
    w.message_id(MessageId{ProcessId{7}, 42});
    w.u64(123456789);
    w.bytes(Bytes(64, 0xCD));
    const Bytes encoded = w.take();
    Reader r(encoded);
    benchmark::DoNotOptimize(r.message_id());
    benchmark::DoNotOptimize(r.u64());
    benchmark::DoNotOptimize(r.bytes());
  }
}
BENCHMARK(BM_CodecRoundTrip);

// ---------------------------------------------------------------------------
// Wire fabric: deep-copy fan-out vs shared-Buffer fan-out.

/// The pre-zero-copy fabric: every recipient gets its own heap copy of the
/// payload bytes.
void BM_FanoutDeepCopy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Bytes payload(1024, 0x5A);
  for (auto _ : state) {
    std::vector<Bytes> wires;
    wires.reserve(n);
    for (std::size_t i = 0; i < n; ++i) wires.push_back(payload);  // copy
    benchmark::DoNotOptimize(wires.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * payload.size()));
}
BENCHMARK(BM_FanoutDeepCopy)->Arg(4)->Arg(16);

/// The zero-copy fabric: one materialization, N ref bumps.
void BM_FanoutSharedBuffer(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Bytes payload(1024, 0x5A);
  for (auto _ : state) {
    const Buffer shared{Bytes(payload)};  // the one materialization
    std::vector<Buffer> wires;
    wires.reserve(n);
    for (std::size_t i = 0; i < n; ++i) wires.push_back(shared);  // ref bump
    benchmark::DoNotOptimize(wires.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * payload.size()));
}
BENCHMARK(BM_FanoutSharedBuffer)->Arg(4)->Arg(16);

// ---------------------------------------------------------------------------
// Leader PROPOSE path: batch encoded twice (old) vs once (shared).

bft::Batch make_batch(std::size_t requests, std::size_t op_size) {
  bft::Batch batch;
  for (std::size_t i = 0; i < requests; ++i) {
    bft::Request req;
    req.group = GroupId{0};
    req.origin = ProcessId{static_cast<std::int32_t>(1000 + i)};
    req.seq = i;
    req.op = Bytes(op_size, static_cast<std::uint8_t>(i));
    batch.push_back(std::move(req));
  }
  return batch;
}

/// What do_propose used to cost: encode the batch for the digest, then
/// encode it again inside Propose::encode().
void BM_ProposeEncodeTwice(benchmark::State& state) {
  bft::Propose p;
  p.view = 3;
  p.instance = 17;
  p.batch = make_batch(8, 64);
  for (auto _ : state) {
    const Digest d = bft::batch_digest(p.batch);  // encode #1 + hash
    benchmark::DoNotOptimize(d);
    benchmark::DoNotOptimize(p.encode());         // encode #2
  }
}
BENCHMARK(BM_ProposeEncodeTwice);

/// The current path: one batch encode shared between the digest and the
/// wire message.
void BM_ProposeEncodeShared(benchmark::State& state) {
  const bft::Batch batch = make_batch(8, 64);
  for (auto _ : state) {
    const Bytes encoded = bft::encode_batch(batch);
    const Digest d = Sha256::hash(encoded);
    benchmark::DoNotOptimize(d);
    benchmark::DoNotOptimize(bft::Propose::encode_with(3, 17, encoded));
  }
}
BENCHMARK(BM_ProposeEncodeShared);

// ---------------------------------------------------------------------------
// Existing infrastructure benchmarks.

void BM_SchedulerThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Scheduler scheduler;
    for (int i = 0; i < 1000; ++i) {
      scheduler.schedule_at(i, [] {});
    }
    scheduler.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SchedulerThroughput);

void BM_TreeLca(benchmark::State& state) {
  std::vector<GroupId> targets;
  for (int i = 0; i < 8; ++i) targets.push_back(GroupId{i});
  const core::OverlayTree tree = core::OverlayTree::three_level(
      targets, GroupId{100}, GroupId{101}, GroupId{102});
  const std::vector<GroupId> dst = {GroupId{0}, GroupId{7}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.lca(dst));
  }
}
BENCHMARK(BM_TreeLca);

void BM_OptimizerSearch4Targets(benchmark::State& state) {
  std::vector<GroupId> targets = {GroupId{1}, GroupId{2}, GroupId{3},
                                  GroupId{4}};
  std::vector<GroupId> aux = {GroupId{11}, GroupId{12}, GroupId{13}};
  optimizer::WorkloadSpec spec =
      optimizer::uniform_pairs_workload(targets, 1200.0);
  for (const GroupId h : aux) spec.capacity[h] = 9500.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer::optimize_tree(targets, aux, spec));
  }
}
BENCHMARK(BM_OptimizerSearch4Targets);

}  // namespace

int main(int argc, char** argv) {
  assert_encode_once_fanout();
  benchmark::Initialize(&argc, argv);
  benchmark::AddCustomContext("sha256_kernel", Sha256::kernel_name());
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
