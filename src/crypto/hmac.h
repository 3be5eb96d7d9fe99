// HMAC-SHA256 (RFC 2104), the PRF underlying MAC authenticators and the
// simulated signature schemes.

#ifndef BFTLAB_CRYPTO_HMAC_H_
#define BFTLAB_CRYPTO_HMAC_H_

#include "common/buffer.h"
#include "crypto/digest.h"
#include "crypto/sha256.h"

namespace bftlab {

/// An HMAC-SHA256 key with its schedule computed once: the SHA-256 states
/// after the padded key block has been absorbed as key ^ ipad and as
/// key ^ opad. Each Mac() then compresses only the padded message and one
/// outer block. Immutable after construction.
class HmacKey {
 public:
  explicit HmacKey(Slice key);

  /// HMAC-SHA256(key, message).
  Digest Mac(Slice message) const;

 private:
  Sha256 inner_;
  Sha256 outer_;
};

/// Computes HMAC-SHA256(key, message); HmacKey(key).Mac(message).
Digest HmacSha256(Slice key, Slice message);

}  // namespace bftlab

#endif  // BFTLAB_CRYPTO_HMAC_H_
