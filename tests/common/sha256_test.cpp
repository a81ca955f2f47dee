#include "common/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "common/sha256_kernels.hpp"

namespace byzcast {
namespace {

struct Kernel {
  const char* name;
  sha256_kernels::Compress compress;
};

/// Every kernel this host can run. Each test below takes them as one more
/// input: the portable kernel always, SHA-NI when CPUID reports it
/// (Sha256.DispatchPicksShaNiWhenCpuHasIt says when it does not).
std::vector<Kernel> kernels() {
  std::vector<Kernel> out{{"portable", sha256_kernels::portable}};
  if (const auto sha_ni = sha256_kernels::sha_ni()) {
    out.push_back({"sha-ni", sha_ni});
  }
  return out;
}

Sha256 context(const Kernel& k) {
  return sha256_kernels::Access::context(k.compress);
}

Digest hash(const Kernel& k, BytesView data) {
  Sha256 ctx = context(k);
  ctx.update(data);
  return ctx.finish();
}

std::string hash_hex(const Kernel& k, std::string_view s) {
  return to_hex(hash(k, to_bytes(s)));
}

// FIPS 180-4 / NIST test vectors.
TEST(Sha256, EmptyString) {
  for (const Kernel& k : kernels()) {
    EXPECT_EQ(
        hash_hex(k, ""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
        << k.name;
  }
}

TEST(Sha256, Abc) {
  for (const Kernel& k : kernels()) {
    EXPECT_EQ(
        hash_hex(k, "abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
        << k.name;
  }
}

TEST(Sha256, TwoBlockMessage) {
  for (const Kernel& k : kernels()) {
    EXPECT_EQ(
        hash_hex(k, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1")
        << k.name;
  }
}

TEST(Sha256, MillionAs) {
  const Bytes chunk(1000, 'a');
  for (const Kernel& k : kernels()) {
    Sha256 ctx = context(k);
    for (int i = 0; i < 1000; ++i) ctx.update(chunk);
    EXPECT_EQ(
        to_hex(ctx.finish()),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
        << k.name;
  }
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = to_bytes("the quick brown fox jumps over the lazy dog");
  for (const Kernel& k : kernels()) {
    Sha256 ctx = context(k);
    for (std::size_t i = 0; i < data.size(); ++i) {
      ctx.update(BytesView(&data[i], 1));
    }
    EXPECT_EQ(ctx.finish(), hash(k, data)) << k.name;
  }
}

TEST(Sha256, BoundaryLengths) {
  // Exercise padding at block boundaries: 55, 56, 63, 64, 65 bytes.
  for (const Kernel& k : kernels()) {
    for (const std::size_t n : {55u, 56u, 63u, 64u, 65u, 119u, 120u}) {
      const Bytes data(n, 'x');
      Sha256 incremental = context(k);
      incremental.update(BytesView(data.data(), n / 2));
      incremental.update(BytesView(data.data() + n / 2, n - n / 2));
      EXPECT_EQ(incremental.finish(), hash(k, data))
          << k.name << " n=" << n;
    }
  }
}

TEST(Sha256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Sha256::hash(to_bytes("a")), Sha256::hash(to_bytes("b")));
}

TEST(Sha256, DispatchPicksShaNiWhenCpuHasIt) {
  if (sha256_kernels::sha_ni() == nullptr) {
    GTEST_SKIP() << "CPUID reports no SHA, SSSE3 and SSE4.1 (or the build is "
                    "not x86-64): only the portable kernel is tested here";
  }
  EXPECT_EQ(sha256_kernels::active(), sha256_kernels::sha_ni());
  EXPECT_STREQ(Sha256::kernel_name(), "sha-ni");
}

// Every length up to 1 KiB, plus 4096 and 4196 bytes around the 4 KiB
// payloads of the benchmark's local_4k workload, fed to the dispatched
// kernel in random pieces and compared with one portable pass.
TEST(Sha256, DispatchedMatchesPortableAtRandomSplits) {
  const Kernel portable{"portable", sha256_kernels::portable};
  Rng rng(42);
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 1024; ++n) lengths.push_back(n);
  lengths.push_back(4096);
  lengths.push_back(4196);
  for (const std::size_t n : lengths) {
    Bytes data(n);
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_below(256));
    Sha256 dispatched;
    std::size_t at = 0;
    while (at < n) {
      const std::size_t piece =
          rng.next_below(std::min<std::size_t>(n - at, 200) + 1);
      dispatched.update(BytesView(data.data() + at, piece));
      at += piece;
    }
    ASSERT_EQ(dispatched.finish(), hash(portable, data)) << "n=" << n;
  }
}

}  // namespace
}  // namespace byzcast
