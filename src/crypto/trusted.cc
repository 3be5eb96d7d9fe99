#include "crypto/trusted.h"

#include <cstdio>

#include "common/codec.h"

namespace bftlab {

namespace {

Digest UiTag(const KeyStore& keystore, NodeId signer, uint64_t epoch,
             uint64_t counter, const Digest& digest) {
  Encoder enc;
  enc.PutString("bftlab-usig-ui");
  enc.PutU32(signer);
  enc.PutU64(epoch);
  enc.PutU64(counter);
  enc.PutBytes(digest.AsSlice());
  return keystore.UsigKey(signer).Mac(enc.buffer());
}

}  // namespace

std::string UniqueIdentifier::DebugString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "UI{signer=%u epoch=%llu counter=%llu}",
                signer, static_cast<unsigned long long>(epoch),
                static_cast<unsigned long long>(counter));
  return buf;
}

UniqueIdentifier TrustedCounter::Certify(CryptoContext* ctx,
                                         const Digest& digest) {
  ++counter_;
  UniqueIdentifier ui;
  ui.signer = owner_;
  ui.epoch = epoch_;
  ui.counter = counter_;
  ui.tag = UiTag(*keystore_, owner_, epoch_, counter_, digest);
  ctx->Charge(ctx->cost_model().usig_create_us);
  return ui;
}

bool TrustedCounter::Verify(CryptoContext* ctx, const UniqueIdentifier& ui,
                            const Digest& digest) {
  ctx->Charge(ctx->cost_model().usig_verify_us);
  return UiTag(ctx->keystore(), ui.signer, ui.epoch, ui.counter, digest) ==
         ui.tag;
}

void TrustedCounter::Reboot() {
  ++epoch_;
  counter_ = 0;
}

void TrustedCounter::ForceRollback(uint64_t distance) {
  counter_ -= distance < counter_ ? distance : counter_;
}

}  // namespace bftlab
