#include "crypto/hmac.h"

#include <cstring>

namespace bftlab {

HmacKey::HmacKey(Slice key) {
  constexpr size_t kBlock = 64;
  uint8_t key_block[kBlock];
  std::memset(key_block, 0, kBlock);

  if (key.size() > kBlock) {
    Digest kd = Sha256::Hash(key);
    std::memcpy(key_block, kd.data(), Digest::kSize);
  } else {
    std::memcpy(key_block, key.data(), key.size());
  }

  uint8_t ipad[kBlock], opad[kBlock];
  for (size_t i = 0; i < kBlock; ++i) {
    ipad[i] = key_block[i] ^ 0x36;
    opad[i] = key_block[i] ^ 0x5c;
  }
  inner_.Update(Slice(ipad, kBlock));
  outer_.Update(Slice(opad, kBlock));
}

Digest HmacKey::Mac(Slice message) const {
  Sha256 inner = inner_;
  inner.Update(message);
  const Digest inner_digest = inner.Finalize();
  Sha256 outer = outer_;
  outer.Update(inner_digest.AsSlice());
  return outer.Finalize();
}

Digest HmacSha256(Slice key, Slice message) {
  return HmacKey(key).Mac(message);
}

}  // namespace bftlab
