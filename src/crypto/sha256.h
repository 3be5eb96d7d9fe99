// SHA-256 (FIPS 180-4), implemented from scratch. Used for request/block
// digests and as the PRF underlying the simulated authentication schemes.
// Blocks go through the x86-64 SHA extensions when CPUID reports them and
// through a portable compressor otherwise (sha256_internal.h); the digest
// is the same either way.

#ifndef BFTLAB_CRYPTO_SHA256_H_
#define BFTLAB_CRYPTO_SHA256_H_

#include <cstdint>

#include "common/buffer.h"
#include "crypto/digest.h"

namespace bftlab {

/// Incremental SHA-256 hasher.
///
///   Sha256 h;
///   h.Update(part1);
///   h.Update(part2);
///   Digest d = h.Finalize();
class Sha256 {
 public:
  Sha256();

  /// Absorbs more input bytes.
  void Update(Slice data);

  /// Produces the digest. The hasher must not be reused afterwards.
  Digest Finalize();

  /// One-shot convenience.
  static Digest Hash(Slice data);

  /// Hash of the concatenation of two byte ranges.
  static Digest Hash2(Slice a, Slice b);

  /// The compressor this process uses: "sha-ni" or "portable". Chosen
  /// from CPUID on first use, never by configuration.
  static const char* CompressorName();

 private:
  uint32_t state_[8];
  uint64_t bit_count_ = 0;
  uint8_t pending_[64];
  size_t pending_len_ = 0;
};

}  // namespace bftlab

#endif  // BFTLAB_CRYPTO_SHA256_H_
