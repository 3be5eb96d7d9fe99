// Authentication substrate. The paper's protocols authenticate messages
// with digital signatures (RSA/Ed25519-style), MAC authenticators (PBFT's
// MAC vectors), or threshold signatures. This module provides all three
// with faithful semantics, message sizes, and a configurable CPU cost
// model, implemented over HMAC-SHA256 and a per-simulation KeyStore.
//
// Substitution note (see DESIGN.md §2): signatures are simulated as
// HMAC(signer_secret, message). Within a simulation, nodes can only sign
// through a CryptoContext bound to their own identity, so unforgeability
// and non-repudiation hold exactly as the protocols require; the adversary
// "cannot subvert cryptographic assumptions".

#ifndef BFTLAB_CRYPTO_KEYSTORE_H_
#define BFTLAB_CRYPTO_KEYSTORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/buffer.h"
#include "common/types.h"
#include "crypto/digest.h"
#include "crypto/hmac.h"

namespace bftlab {

/// Wire sizes (bytes) used for message-size accounting.
inline constexpr size_t kSignatureBytes = 64;   // Ed25519-like.
inline constexpr size_t kMacBytes = 16;         // Truncated HMAC.
inline constexpr size_t kThresholdSigBytes = 96;  // BLS-like, constant size.
inline constexpr size_t kUiCertBytes = 48;  // USIG UI: epoch + counter + tag.

/// CPU cost (simulated microseconds) of each cryptographic operation.
/// Defaults approximate Ed25519 + HMAC-SHA256 on a 2020-era server core.
struct CryptoCostModel {
  double sign_us = 55.0;
  double verify_sig_us = 130.0;
  double mac_us = 1.5;
  double verify_mac_us = 1.5;
  double threshold_share_sign_us = 120.0;
  double threshold_combine_per_share_us = 20.0;
  double threshold_verify_us = 250.0;
  double hash_us_per_kib = 3.0;
  // Trusted monotonic counter (USIG-style). Creating a UI crosses into the
  // TEE (enclave call + HMAC), so it is far costlier than a plain MAC but
  // much cheaper than an asymmetric signature; verification is a MAC check
  // against the attested device key plus certificate bookkeeping.
  double usig_create_us = 30.0;
  double usig_verify_us = 15.0;

  /// A cost model that charges nothing; useful in unit tests.
  static CryptoCostModel Free() {
    CryptoCostModel m;
    m.sign_us = m.verify_sig_us = m.mac_us = m.verify_mac_us = 0;
    m.threshold_share_sign_us = m.threshold_combine_per_share_us = 0;
    m.threshold_verify_us = m.hash_us_per_kib = 0;
    m.usig_create_us = m.usig_verify_us = 0;
    return m;
  }
};

/// A signature over a message, attributable to `signer`.
struct Signature {
  NodeId signer = 0;
  Digest tag;

  bool operator==(const Signature& o) const {
    return signer == o.signer && tag == o.tag;
  }
};

/// A MAC over a message for one (sender, receiver) pair.
struct Mac {
  NodeId sender = 0;
  NodeId receiver = 0;
  Digest tag;
};

/// Central key registry for one simulation. Deterministic from the seed.
/// Owns per-node signing secrets and pairwise MAC session keys.
///
/// Each derived key is HMAC(master, domain tag || ids). Its HmacKey is
/// built on first use and cached, so a tag costs only the compressions of
/// the padded message and one outer block. The caches make the const
/// methods write: a KeyStore belongs to one Cluster and is used from that
/// Cluster's thread only.
class KeyStore {
 public:
  explicit KeyStore(uint64_t seed);

  /// Signs `message` as `signer`. Protocol code must go through
  /// CryptoContext, which pins the signer to the calling node.
  Signature Sign(NodeId signer, Slice message) const;

  /// Verifies that `sig` is `signer`'s signature over `message`.
  bool VerifySignature(const Signature& sig, Slice message) const;

  /// Computes the pairwise MAC of `message` between sender and receiver.
  Mac ComputeMac(NodeId sender, NodeId receiver, Slice message) const;

  /// Verifies a pairwise MAC.
  bool VerifyMac(const Mac& mac, Slice message) const;

  /// Key of node's threshold-signature share (see threshold.h).
  const HmacKey& ShareKey(NodeId node) const;

  /// Device key of node's trusted counter (USIG); see trusted.h.
  const HmacKey& UsigKey(NodeId node) const;

 private:
  // Keyed by node id, or by (a << 32 | b) for a pair a < b. Entries are
  // never erased, so the references handed out stay valid.
  using KeyCache = std::unordered_map<uint64_t, HmacKey>;

  /// HMAC(master, domain || node) as a key, from `cache` or derived.
  const HmacKey& NodeKey(KeyCache* cache, uint8_t domain, NodeId node) const;
  const HmacKey& PairKey(NodeId a, NodeId b) const;

  HmacKey master_;
  mutable KeyCache signing_;
  mutable KeyCache pair_;
  mutable KeyCache share_;
  mutable KeyCache usig_;
};

/// Per-node view of the KeyStore: can sign/MAC only as `self`, verify any.
/// Accumulates simulated crypto CPU time so the simulator can charge it.
class CryptoContext {
 public:
  CryptoContext(NodeId self, const KeyStore* keystore,
                CryptoCostModel cost = CryptoCostModel())
      : self_(self), keystore_(keystore), cost_(cost) {}

  NodeId self() const { return self_; }
  const KeyStore& keystore() const { return *keystore_; }
  const CryptoCostModel& cost_model() const { return cost_; }

  /// Signs as this node and charges sign cost.
  Signature Sign(Slice message);

  /// Verifies any node's signature and charges verify cost.
  bool Verify(const Signature& sig, Slice message);

  /// MACs a message for one receiver.
  Mac ComputeMac(NodeId receiver, Slice message);

  /// MACs a message for each receiver (a PBFT-style authenticator).
  std::vector<Mac> ComputeAuthenticator(const std::vector<NodeId>& receivers,
                                        Slice message);

  /// Verifies a MAC addressed to this node.
  bool VerifyMac(const Mac& mac, Slice message);

  /// Charges hashing cost for digesting `bytes` bytes of payload.
  void ChargeHash(size_t bytes);

  /// Adds explicit cost (used by the threshold scheme).
  void Charge(double us) { consumed_us_ += us; }

  /// Returns and resets CPU microseconds consumed since the last drain.
  double DrainConsumedUs();

  /// Total CPU microseconds consumed over the node's lifetime.
  double total_consumed_us() const { return total_us_; }

 private:
  NodeId self_;
  const KeyStore* keystore_;
  CryptoCostModel cost_;
  double consumed_us_ = 0;
  double total_us_ = 0;
};

}  // namespace bftlab

#endif  // BFTLAB_CRYPTO_KEYSTORE_H_
