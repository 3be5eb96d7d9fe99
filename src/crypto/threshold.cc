#include "crypto/threshold.h"

#include <algorithm>

#include "common/codec.h"
#include "crypto/hmac.h"

namespace bftlab {

Digest ThresholdScheme::ShareTag(NodeId signer, Slice message) const {
  return keystore_->ShareKey(signer).Mac(message);
}

Digest ThresholdScheme::CombineTags(const std::vector<NodeId>& signers,
                                    Slice message) const {
  static const HmacKey kCombineKey(Slice("bftlab-threshold-combine"));
  Encoder enc;
  for (NodeId s : signers) {
    enc.PutRaw(ShareTag(s, message).AsSlice());
  }
  return kCombineKey.Mac(enc.buffer());
}

SignatureShare ThresholdScheme::SignShare(CryptoContext* ctx,
                                          Slice message) const {
  ctx->Charge(ctx->cost_model().threshold_share_sign_us);
  ctx->ChargeHash(message.size());
  SignatureShare share;
  share.signer = ctx->self();
  share.tag = ShareTag(ctx->self(), message);
  return share;
}

bool ThresholdScheme::VerifyShare(CryptoContext* ctx,
                                  const SignatureShare& share,
                                  Slice message) const {
  ctx->Charge(ctx->cost_model().verify_sig_us);
  return ShareTag(share.signer, message) == share.tag;
}

Result<ThresholdSignature> ThresholdScheme::Combine(
    CryptoContext* ctx, const std::vector<SignatureShare>& shares, uint32_t k,
    Slice message) const {
  std::vector<NodeId> signers;
  signers.reserve(shares.size());
  for (const auto& share : shares) {
    if (ShareTag(share.signer, message) != share.tag) {
      return Status::AuthFailed("invalid share in Combine");
    }
    signers.push_back(share.signer);
  }
  std::sort(signers.begin(), signers.end());
  signers.erase(std::unique(signers.begin(), signers.end()), signers.end());
  if (signers.size() < k) {
    return Status::FailedPrecondition("not enough distinct shares");
  }
  signers.resize(k);

  ctx->Charge(ctx->cost_model().threshold_combine_per_share_us *
              static_cast<double>(k));

  ThresholdSignature sig;
  sig.threshold = k;
  sig.signers = signers;
  sig.tag = CombineTags(signers, message);
  return sig;
}

bool ThresholdScheme::Verify(CryptoContext* ctx, const ThresholdSignature& sig,
                             Slice message) const {
  ctx->Charge(ctx->cost_model().threshold_verify_us);
  if (sig.signers.size() != sig.threshold || sig.threshold == 0) return false;
  for (size_t i = 1; i < sig.signers.size(); ++i) {
    if (sig.signers[i - 1] >= sig.signers[i]) return false;  // Not distinct.
  }
  return CombineTags(sig.signers, message) == sig.tag;
}

}  // namespace bftlab
