#include "common/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "common/sha256_kernels.hpp"

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace byzcast {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

#if defined(__x86_64__)

bool cpu_has_sha_ni() {
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3_sse41 = (ecx & bit_SSSE3) != 0 && (ecx & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return ssse3_sse41 && (ebx & bit_SHA) != 0;
}

// Only this function is compiled for the SHA extensions; the rest of the
// build keeps the baseline ISA, and sha_ni() hands it out only after CPUID
// confirms the instructions exist.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
  const auto load = [](const void* p) {
    return _mm_loadu_si128(static_cast<const __m128i*>(p));
  };
  // Big-endian message words into little-endian lanes.
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  // The round instructions keep the state as two halves, (A,B,E,F) and
  // (C,D,G,H), each with its first word in the top lane.
  __m128i tmp = _mm_shuffle_epi32(load(state), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(load(state + 4), 0x1B);
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[j % 4] holds message words 4j .. 4j+3 of the current group.
    __m128i w[4];
    for (int i = 0; i < 4; ++i) {
      w[i] = _mm_shuffle_epi8(load(blocks + 16 * i), byte_swap);
    }
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      if (j >= 4) {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at once.
        const __m128i w_minus_7 = _mm_alignr_epi8(w[(j + 3) % 4],
                                                  w[(j + 2) % 4], 4);
        w[j % 4] = _mm_sha256msg2_epu32(
            _mm_add_epi32(_mm_sha256msg1_epu32(w[j % 4], w[(j + 1) % 4]),
                          w_minus_7),
            w[(j + 3) % 4]);
      }
      const __m128i wk =
          _mm_add_epi32(w[j % 4], load(&kRoundConstants[4 * j]));
      // Two rounds per instruction; each call returns the new (A,B,E,F), and
      // the old one becomes (C,D,G,H).
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));
}

#endif  // __x86_64__

}  // namespace

namespace sha256_kernels {

void portable(std::uint32_t* state, const std::uint8_t* blocks,
              std::size_t count) {
  for (; count > 0; --count, blocks += 64) {
    std::array<std::uint32_t, 64> w;
    for (std::size_t i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (std::size_t i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (std::size_t i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

Compress sha_ni() {
#if defined(__x86_64__)
  if (cpu_has_sha_ni()) return compress_sha_ni;
#endif
  return nullptr;
}

Compress active() {
  // A function-local static is initialised on first use and thread-safely,
  // so hashing from another file's static initialiser still sees a kernel.
  static const Compress fast = sha_ni();
  return fast != nullptr ? fast : portable;
}

}  // namespace sha256_kernels

Sha256::Sha256() : Sha256(sha256_kernels::active()) {}

Sha256::Sha256(sha256_kernels::Compress compress)
    : compress_(compress),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19},
      buffer_{} {}

void Sha256::update(BytesView data) {
  total_bytes_ += data.size();
  const std::uint8_t* in = data.data();
  std::size_t left = data.size();
  if (left == 0) return;
  if (buffered_ > 0) {
    const std::size_t take = std::min(left, 64 - buffered_);
    std::memcpy(buffer_.data() + buffered_, in, take);
    buffered_ += take;
    in += take;
    left -= take;
    if (buffered_ < 64) return;
    compress_(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  const std::size_t blocks = left / 64;
  if (blocks > 0) {
    compress_(state_.data(), in, blocks);
    in += 64 * blocks;
    left -= 64 * blocks;
  }
  if (left > 0) std::memcpy(buffer_.data(), in, left);
  buffered_ = left;
}

Digest Sha256::finish() {
  // The buffered tail, the 0x80 terminator, zeros, and the message length in
  // bits as a big-endian u64 fill one block, or two when the tail leaves
  // fewer than 9 bytes free.
  std::array<std::uint8_t, 128> tail{};
  std::memcpy(tail.data(), buffer_.data(), buffered_);
  tail[buffered_] = 0x80;
  const std::size_t blocks = buffered_ < 56 ? 1 : 2;
  const std::uint64_t bit_length = total_bytes_ * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    tail[64 * blocks - 1 - i] =
        static_cast<std::uint8_t>(bit_length >> (8 * i));
  }
  compress_(state_.data(), tail.data(), blocks);

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

Digest Sha256::hash(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

const char* Sha256::kernel_name() {
  return sha256_kernels::active() == sha256_kernels::portable ? "portable"
                                                              : "sha-ni";
}

std::string to_hex(const Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

}  // namespace byzcast
