// SHA-256 compression kernels behind Sha256. Private to common/ and to the
// tests that compare kernels; callers hash through the Sha256 API, which runs
// the kernel active() picks once per process.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/sha256.hpp"

namespace byzcast::sha256_kernels {

/// Plain C++ FIPS 180-4 compression. Runs on every host, and is the
/// reference the other kernel is tested against.
void portable(std::uint32_t* state, const std::uint8_t* blocks,
              std::size_t count);

/// The SHA-NI kernel when the build targets x86-64 and CPUID reports SHA,
/// SSSE3 and SSE4.1; nullptr otherwise.
[[nodiscard]] Compress sha_ni();

/// The kernel every default-constructed Sha256 uses: sha_ni() when it is
/// usable, else portable. Resolved on first use, once per process.
[[nodiscard]] Compress active();

/// Builds contexts on a chosen kernel, so tests can run one input through
/// each.
struct Access {
  [[nodiscard]] static Sha256 context(Compress compress) {
    return Sha256(compress);
  }
};

}  // namespace byzcast::sha256_kernels
