// SHA-256 (FIPS 180-4). The simulation uses real digests so that message ids
// are collision-resistant and Byzantine fabrication tests are meaningful; we
// implement it here because the environment provides no crypto library.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace byzcast {

using Digest = std::array<std::uint8_t, 32>;

namespace sha256_kernels {
/// Compresses `count` consecutive 64-byte blocks into the eight-word state.
/// The kernels themselves live in common/sha256_kernels.hpp.
using Compress = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                          std::size_t count);
struct Access;
}  // namespace sha256_kernels

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  void update(BytesView data);
  /// Finalizes and returns the digest; the context must not be reused.
  [[nodiscard]] Digest finish();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(BytesView data);

  /// The compression kernel this process hashes with: "sha-ni" on x86-64
  /// CPUs whose CPUID reports SHA, SSSE3 and SSE4.1, else "portable". Both
  /// give identical digests; only the speed differs.
  [[nodiscard]] static const char* kernel_name();

 private:
  friend struct sha256_kernels::Access;

  explicit Sha256(sha256_kernels::Compress compress);

  sha256_kernels::Compress compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

[[nodiscard]] std::string to_hex(const Digest& d);

}  // namespace byzcast
