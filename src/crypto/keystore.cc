#include "crypto/keystore.h"

#include <algorithm>

#include "common/codec.h"
#include "crypto/sha256.h"

namespace bftlab {

namespace {

// Domain tags of the keys derived from the master secret.
constexpr uint8_t kSigningDomain = 0x01;
constexpr uint8_t kPairDomain = 0x02;
constexpr uint8_t kShareDomain = 0x03;
constexpr uint8_t kUsigDomain = 0x04;

Digest MasterSecret(uint64_t seed) {
  Encoder enc;
  enc.PutString("bftlab-keystore-master");
  enc.PutU64(seed);
  return Sha256::Hash(enc.buffer());
}

}  // namespace

KeyStore::KeyStore(uint64_t seed) : master_(MasterSecret(seed).AsSlice()) {}

const HmacKey& KeyStore::NodeKey(KeyCache* cache, uint8_t domain,
                                 NodeId node) const {
  auto it = cache->find(node);
  if (it != cache->end()) return it->second;
  Encoder enc;
  enc.PutU8(domain);
  enc.PutU32(node);
  return cache->emplace(node, HmacKey(master_.Mac(enc.buffer()).AsSlice()))
      .first->second;
}

const HmacKey& KeyStore::PairKey(NodeId a, NodeId b) const {
  if (a > b) std::swap(a, b);
  const uint64_t id = static_cast<uint64_t>(a) << 32 | b;
  auto it = pair_.find(id);
  if (it != pair_.end()) return it->second;
  Encoder enc;
  enc.PutU8(kPairDomain);
  enc.PutU32(a);
  enc.PutU32(b);
  return pair_.emplace(id, HmacKey(master_.Mac(enc.buffer()).AsSlice()))
      .first->second;
}

const HmacKey& KeyStore::ShareKey(NodeId node) const {
  return NodeKey(&share_, kShareDomain, node);
}

const HmacKey& KeyStore::UsigKey(NodeId node) const {
  return NodeKey(&usig_, kUsigDomain, node);
}

Signature KeyStore::Sign(NodeId signer, Slice message) const {
  Signature sig;
  sig.signer = signer;
  sig.tag = NodeKey(&signing_, kSigningDomain, signer).Mac(message);
  return sig;
}

bool KeyStore::VerifySignature(const Signature& sig, Slice message) const {
  return NodeKey(&signing_, kSigningDomain, sig.signer).Mac(message) ==
         sig.tag;
}

Mac KeyStore::ComputeMac(NodeId sender, NodeId receiver,
                         Slice message) const {
  Mac mac;
  mac.sender = sender;
  mac.receiver = receiver;
  mac.tag = PairKey(sender, receiver).Mac(message);
  return mac;
}

bool KeyStore::VerifyMac(const Mac& mac, Slice message) const {
  return PairKey(mac.sender, mac.receiver).Mac(message) == mac.tag;
}

Signature CryptoContext::Sign(Slice message) {
  Charge(cost_.sign_us);
  ChargeHash(message.size());
  return keystore_->Sign(self_, message);
}

bool CryptoContext::Verify(const Signature& sig, Slice message) {
  Charge(cost_.verify_sig_us);
  ChargeHash(message.size());
  return keystore_->VerifySignature(sig, message);
}

Mac CryptoContext::ComputeMac(NodeId receiver, Slice message) {
  Charge(cost_.mac_us);
  ChargeHash(message.size());
  return keystore_->ComputeMac(self_, receiver, message);
}

std::vector<Mac> CryptoContext::ComputeAuthenticator(
    const std::vector<NodeId>& receivers, Slice message) {
  std::vector<Mac> auths;
  auths.reserve(receivers.size());
  for (NodeId r : receivers) {
    auths.push_back(ComputeMac(r, message));
  }
  return auths;
}

bool CryptoContext::VerifyMac(const Mac& mac, Slice message) {
  Charge(cost_.verify_mac_us);
  ChargeHash(message.size());
  return keystore_->VerifyMac(mac, message);
}

void CryptoContext::ChargeHash(size_t bytes) {
  Charge(cost_.hash_us_per_kib * static_cast<double>(bytes) / 1024.0);
}

double CryptoContext::DrainConsumedUs() {
  double v = consumed_us_;
  total_us_ += v;
  consumed_us_ = 0;
  return v;
}

}  // namespace bftlab
