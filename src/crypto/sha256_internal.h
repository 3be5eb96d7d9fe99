// The SHA-256 compression functions behind Sha256, private to src/crypto
// and its tests. Sha256 picks one of them once per process from CPUID;
// the tests run every one this CPU supports against the portable
// reference. All compute the same function, so digests never depend on
// the CPU.

#ifndef BFTLAB_CRYPTO_SHA256_INTERNAL_H_
#define BFTLAB_CRYPTO_SHA256_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace bftlab {
namespace sha256_internal {

/// Compresses `num_blocks` consecutive 64-byte blocks into `state`.
using CompressFn = void (*)(uint32_t state[8], const uint8_t* blocks,
                            size_t num_blocks);

/// FIPS 180-4 in portable C++: the fallback on every CPU without the SHA
/// extensions, and the reference the tests compare against.
void CompressPortable(uint32_t state[8], const uint8_t* blocks,
                      size_t num_blocks);

/// The x86-64 SHA extensions (SHA-NI) compressor, or nullptr when this
/// build is not x86-64 or CPUID lacks SHA (leaf 7 EBX), SSSE3 or SSE4.1
/// (leaf 1 ECX).
CompressFn ShaNiCompressor();

/// The compressor every Sha256 uses: ShaNiCompressor() when there is one,
/// CompressPortable otherwise. Chosen on first use and fixed after.
CompressFn ActiveCompressor();

}  // namespace sha256_internal
}  // namespace bftlab

#endif  // BFTLAB_CRYPTO_SHA256_INTERNAL_H_
