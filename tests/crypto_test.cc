// Unit tests for src/crypto: SHA-256 against FIPS 180-4 vectors, each
// SHA-256 compressor against the portable one, HMAC against RFC 4231
// vectors, the keystore signature/MAC schemes, and the threshold
// signature scheme.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"
#include "crypto/threshold.h"

namespace bftlab {
namespace {

using sha256_internal::CompressFn;
using sha256_internal::CompressPortable;

TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(Sha256::Hash(Slice("")).ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Hash(Slice("abc")).ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  // FIPS 180-4 example: 448-bit message crossing the padding boundary.
  EXPECT_EQ(
      Sha256::Hash(
          Slice("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
          .ToHex(),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string a(1000, 'a');
  Sha256 h;
  for (int i = 0; i < 1000; ++i) h.Update(Slice(a));
  EXPECT_EQ(h.Finalize().ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, PaddingBoundaries) {
  // Lengths around the 55/56-byte point where the padding spills into a
  // second block, and around whole blocks. Expected values: python3
  // hashlib.sha256(b"a" * n).hexdigest().
  const std::pair<size_t, const char*> kVectors[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
      {128, "6836cf13bac400e9105071cd6af47084dfacad4e5e302c94bfed24e013afb73e"},
  };
  for (const auto& [length, hex] : kVectors) {
    EXPECT_EQ(Sha256::Hash(Slice(std::string(length, 'a'))).ToHex(), hex)
        << "length=" << length;
  }
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  std::string msg = "the quick brown fox jumps over the lazy dog and more";
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.Update(Slice(reinterpret_cast<const uint8_t*>(msg.data()), split));
    h.Update(Slice(reinterpret_cast<const uint8_t*>(msg.data()) + split,
                   msg.size() - split));
    EXPECT_EQ(h.Finalize(), Sha256::Hash(Slice(msg))) << "split=" << split;
  }
}

TEST(Sha256Test, Hash2ConcatenatesInputs) {
  EXPECT_EQ(Sha256::Hash2(Slice("ab"), Slice("c")),
            Sha256::Hash(Slice("abc")));
}

/// SHA-256 of `msg` through `compress` alone: the padding is done here,
/// independently of Sha256, and every block goes in one call.
Digest HashWith(CompressFn compress, const std::string& msg) {
  std::vector<uint8_t> padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 0; i < 8; ++i) {
    padded.push_back(static_cast<uint8_t>(bits >> (56 - 8 * i)));
  }
  uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                       0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  compress(state, padded.data(), padded.size() / 64);
  Digest out;
  for (int i = 0; i < 32; ++i) {
    out.data()[i] = static_cast<uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

/// The differential inputs: every length around the padding boundaries,
/// then random contents at random lengths up to 4 KiB.
std::vector<std::string> DifferentialInputs() {
  std::vector<std::string> inputs;
  Rng rng(2024);
  for (size_t length : {0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 129}) {
    std::string msg(length, '\0');
    for (char& c : msg) c = static_cast<char>(rng.Next());
    inputs.push_back(msg);
  }
  for (int i = 0; i < 200; ++i) {
    std::string msg(rng.NextBelow(4097), '\0');
    for (char& c : msg) c = static_cast<char>(rng.Next());
    inputs.push_back(msg);
  }
  return inputs;
}

TEST(Sha256CompressorTest, PortableMatchesKnownAnswers) {
  // Sha256 itself may run on another compressor; pin the portable one.
  EXPECT_EQ(HashWith(CompressPortable, "").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(HashWith(CompressPortable, "abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(HashWith(CompressPortable, std::string(120, 'a')).ToHex(),
            "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c");
}

TEST(Sha256CompressorTest, ShaNiMatchesPortable) {
  const CompressFn sha_ni = sha256_internal::ShaNiCompressor();
  if (sha_ni == nullptr) {
    GTEST_SKIP() << "no SHA-NI compressor: not an x86-64 build, or CPUID "
                    "lacks SHA, SSSE3 or SSE4.1";
  }
  for (const std::string& msg : DifferentialInputs()) {
    EXPECT_EQ(HashWith(sha_ni, msg), HashWith(CompressPortable, msg))
        << "length=" << msg.size();
  }
  // Runs of blocks from arbitrary chaining values, not just the IV.
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    uint32_t portable[8], hardware[8];
    for (uint32_t& w : portable) w = static_cast<uint32_t>(rng.Next());
    std::memcpy(hardware, portable, sizeof(portable));
    std::vector<uint8_t> blocks(64 * rng.NextInRange(1, 8));
    for (uint8_t& b : blocks) b = static_cast<uint8_t>(rng.Next());
    CompressPortable(portable, blocks.data(), blocks.size() / 64);
    sha_ni(hardware, blocks.data(), blocks.size() / 64);
    EXPECT_EQ(std::memcmp(portable, hardware, sizeof(portable)), 0)
        << "trial=" << trial;
  }
}

TEST(Sha256CompressorTest, ActiveCompressorFollowsCpuid) {
  const CompressFn sha_ni = sha256_internal::ShaNiCompressor();
  EXPECT_EQ(sha256_internal::ActiveCompressor(),
            sha_ni != nullptr ? sha_ni : CompressPortable);
  EXPECT_STREQ(Sha256::CompressorName(),
               sha_ni != nullptr ? "sha-ni" : "portable");
}

TEST(Sha256CompressorTest, RandomUpdateSplitsMatchPortable) {
  Rng rng(99);
  for (const std::string& msg : DifferentialInputs()) {
    Sha256 h;
    size_t at = 0;
    while (at < msg.size()) {
      const size_t take = rng.NextInRange(0, msg.size() - at);
      h.Update(Slice(reinterpret_cast<const uint8_t*>(msg.data()) + at, take));
      at += take;
    }
    EXPECT_EQ(h.Finalize(), HashWith(CompressPortable, msg))
        << "length=" << msg.size();
  }
}

TEST(DigestTest, ZeroAndEquality) {
  Digest d;
  EXPECT_TRUE(d.IsZero());
  Digest e = Sha256::Hash(Slice("x"));
  EXPECT_FALSE(e.IsZero());
  EXPECT_NE(d, e);
  EXPECT_EQ(e, Sha256::Hash(Slice("x")));
  EXPECT_EQ(e.ShortHex().size(), 8u);
}

TEST(HmacTest, Rfc4231Case1) {
  Buffer key(20, 0x0b);
  EXPECT_EQ(HmacSha256(key, Slice("Hi There")).ToHex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(
      HmacSha256(Slice("Jefe"), Slice("what do ya want for nothing?")).ToHex(),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, Rfc4231Case3) {
  Buffer key(20, 0xaa);
  Buffer data(50, 0xdd);
  EXPECT_EQ(HmacSha256(key, data).ToHex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  // RFC 4231 case 6: 131-byte key.
  Buffer key(131, 0xaa);
  EXPECT_EQ(
      HmacSha256(key, Slice("Test Using Larger Than Block-Size Key - "
                            "Hash Key First"))
          .ToHex(),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, KeyScheduleMatchesOneShotOnRfc4231Keys) {
  // RFC 4231 cases 1, 2, 3, 4, 6 and 7 (the last two with a 131-byte key);
  // each key's schedule serves every message, its own case's first.
  Buffer case4_key;
  for (uint8_t b = 1; b <= 25; ++b) case4_key.push_back(b);
  const std::string long_data =
      "This is a test using a larger than block-size key and a larger "
      "than block-size data. The key needs to be hashed before being used "
      "by the HMAC algorithm.";
  const struct {
    Buffer key;
    std::string data;
    const char* hex;
  } kCases[] = {
      {Buffer(20, 0x0b), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {Slice("Jefe").ToBuffer(), "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {Buffer(20, 0xaa), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {case4_key, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {Buffer(131, 0xaa),
       "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {Buffer(131, 0xaa), long_data,
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const auto& c : kCases) {
    const HmacKey key(c.key);
    EXPECT_EQ(key.Mac(Slice(c.data)).ToHex(), c.hex) << c.data;
    for (const auto& other : kCases) {
      EXPECT_EQ(key.Mac(Slice(other.data)),
                HmacSha256(c.key, Slice(other.data)))
          << c.data << " / " << other.data;
    }
  }
}

class KeyStoreTest : public ::testing::Test {
 protected:
  KeyStore keystore_{12345};
};

TEST_F(KeyStoreTest, SignatureVerifies) {
  Signature sig = keystore_.Sign(3, Slice("message"));
  EXPECT_EQ(sig.signer, 3u);
  EXPECT_TRUE(keystore_.VerifySignature(sig, Slice("message")));
}

TEST_F(KeyStoreTest, SignatureRejectsWrongMessage) {
  Signature sig = keystore_.Sign(3, Slice("message"));
  EXPECT_FALSE(keystore_.VerifySignature(sig, Slice("other")));
}

TEST_F(KeyStoreTest, SignatureRejectsForgedSigner) {
  // A signature by node 3 presented as node 4's does not verify:
  // non-repudiation.
  Signature sig = keystore_.Sign(3, Slice("message"));
  sig.signer = 4;
  EXPECT_FALSE(keystore_.VerifySignature(sig, Slice("message")));
}

TEST_F(KeyStoreTest, DifferentSeedsGiveDifferentKeys) {
  KeyStore other(999);
  Signature sig = keystore_.Sign(3, Slice("m"));
  EXPECT_FALSE(other.VerifySignature(sig, Slice("m")));
}

TEST_F(KeyStoreTest, CachedKeysDoNotDependOnQueryOrder) {
  // Signing and USIG keys are derived on first use and cached; a second
  // KeyStore queried in another order must hand out the same tags.
  const std::vector<NodeId> nodes = {0, 1, 2, 3, 6, kClientIdBase,
                                     kClientIdBase + 2};
  KeyStore reversed(12345);
  std::vector<Digest> sign_rev, usig_rev;
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    usig_rev.push_back(reversed.UsigKey(*it).Mac(Slice("ui")));
    sign_rev.push_back(reversed.Sign(*it, Slice("request body")).tag);
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const size_t r = nodes.size() - 1 - i;
    EXPECT_EQ(keystore_.Sign(nodes[i], Slice("request body")).tag,
              sign_rev[r])
        << nodes[i];
    EXPECT_EQ(keystore_.UsigKey(nodes[i]).Mac(Slice("ui")), usig_rev[r])
        << nodes[i];
  }
  // HMAC(HMAC(master, domain || node), message), recomputed with python3
  // hmac/hashlib from the key derivation in keystore.cc.
  EXPECT_EQ(keystore_.Sign(3, Slice("request body")).tag.ToHex(),
            "e2de55b6bb3d8d0ec9d91ac3ebe9f1f91ecb647cc56c418778da0497c90c9479");
  EXPECT_EQ(
      keystore_.Sign(kClientIdBase + 2, Slice("request body")).tag.ToHex(),
      "608e066057d916eaaa810d05a4d31f5a4be001eebd772231cf9ab7c7b1b62759");
  EXPECT_EQ(keystore_.UsigKey(1).Mac(Slice("request body")).ToHex(),
            "a0a1c76ed8e2fee88ce7cdee8b9d09eb80ac8a0f881a603451cff90535f3d6c1");
  EXPECT_EQ(keystore_.ShareKey(1).Mac(Slice("request body")).ToHex(),
            "d7bed83cacc317aeba0fe20aacf783f618180fba4a0c5d946c368d8e57845239");
  EXPECT_EQ(keystore_.ComputeMac(2, 1, Slice("request body")).tag.ToHex(),
            "e152c72bbfdac7fc15824a1e41b2d284ad78d276aff9fde9d97178b89f7661b5");
}

TEST_F(KeyStoreTest, MacRoundTripAndSymmetry) {
  Mac mac = keystore_.ComputeMac(1, 2, Slice("hello"));
  EXPECT_TRUE(keystore_.VerifyMac(mac, Slice("hello")));
  EXPECT_FALSE(keystore_.VerifyMac(mac, Slice("hullo")));
  // The pair key is symmetric: (2 -> 1) produces the same tag.
  Mac rev = keystore_.ComputeMac(2, 1, Slice("hello"));
  EXPECT_EQ(mac.tag, rev.tag);
}

TEST_F(KeyStoreTest, MacDistinctAcrossPairs) {
  Mac a = keystore_.ComputeMac(1, 2, Slice("hello"));
  Mac b = keystore_.ComputeMac(1, 3, Slice("hello"));
  EXPECT_NE(a.tag, b.tag);
}

TEST_F(KeyStoreTest, CryptoContextSignsAsSelfOnly) {
  CryptoContext ctx(7, &keystore_, CryptoCostModel::Free());
  Signature sig = ctx.Sign(Slice("m"));
  EXPECT_EQ(sig.signer, 7u);
  EXPECT_TRUE(ctx.Verify(sig, Slice("m")));
}

TEST_F(KeyStoreTest, CryptoContextChargesCost) {
  CryptoCostModel cost;
  cost.sign_us = 50;
  cost.verify_sig_us = 100;
  cost.hash_us_per_kib = 0;
  CryptoContext ctx(7, &keystore_, cost);
  Signature sig = ctx.Sign(Slice("m"));
  EXPECT_DOUBLE_EQ(ctx.DrainConsumedUs(), 50.0);
  ctx.Verify(sig, Slice("m"));
  EXPECT_DOUBLE_EQ(ctx.DrainConsumedUs(), 100.0);
  EXPECT_DOUBLE_EQ(ctx.DrainConsumedUs(), 0.0);
  EXPECT_DOUBLE_EQ(ctx.total_consumed_us(), 150.0);
}

TEST_F(KeyStoreTest, AuthenticatorCoversAllReceivers) {
  CryptoContext ctx(0, &keystore_, CryptoCostModel::Free());
  std::vector<NodeId> receivers = {1, 2, 3};
  auto auths = ctx.ComputeAuthenticator(receivers, Slice("msg"));
  ASSERT_EQ(auths.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(auths[i].sender, 0u);
    EXPECT_EQ(auths[i].receiver, receivers[i]);
    CryptoContext rx(receivers[i], &keystore_, CryptoCostModel::Free());
    EXPECT_TRUE(rx.VerifyMac(auths[i], Slice("msg")));
  }
}

class ThresholdTest : public ::testing::Test {
 protected:
  KeyStore keystore_{777};
  ThresholdScheme scheme_{&keystore_};
  CryptoContext MakeCtx(NodeId id) {
    return CryptoContext(id, &keystore_, CryptoCostModel::Free());
  }
};

TEST_F(ThresholdTest, CombineAndVerify) {
  std::vector<SignatureShare> shares;
  for (NodeId i = 0; i < 3; ++i) {
    CryptoContext ctx = MakeCtx(i);
    shares.push_back(scheme_.SignShare(&ctx, Slice("proposal")));
  }
  CryptoContext collector = MakeCtx(0);
  Result<ThresholdSignature> sig =
      scheme_.Combine(&collector, shares, 3, Slice("proposal"));
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(scheme_.Verify(&collector, *sig, Slice("proposal")));
  EXPECT_FALSE(scheme_.Verify(&collector, *sig, Slice("other")));
}

TEST_F(ThresholdTest, ShareVerification) {
  CryptoContext signer = MakeCtx(2);
  SignatureShare share = scheme_.SignShare(&signer, Slice("m"));
  CryptoContext verifier = MakeCtx(0);
  EXPECT_TRUE(scheme_.VerifyShare(&verifier, share, Slice("m")));
  share.signer = 3;
  EXPECT_FALSE(scheme_.VerifyShare(&verifier, share, Slice("m")));
}

TEST_F(ThresholdTest, CombineRejectsTooFewDistinctShares) {
  CryptoContext a = MakeCtx(1);
  SignatureShare share = scheme_.SignShare(&a, Slice("m"));
  // The same share twice is one distinct signer.
  CryptoContext collector = MakeCtx(0);
  Result<ThresholdSignature> sig =
      scheme_.Combine(&collector, {share, share}, 2, Slice("m"));
  EXPECT_FALSE(sig.ok());
}

TEST_F(ThresholdTest, CombineRejectsBadShare) {
  CryptoContext a = MakeCtx(1);
  SignatureShare good = scheme_.SignShare(&a, Slice("m"));
  SignatureShare bad = good;
  bad.signer = 2;  // Claimed signer does not match the tag.
  CryptoContext collector = MakeCtx(0);
  Result<ThresholdSignature> sig =
      scheme_.Combine(&collector, {good, bad}, 2, Slice("m"));
  ASSERT_FALSE(sig.ok());
  EXPECT_TRUE(sig.status().IsAuthFailed());
}

TEST_F(ThresholdTest, VerifyRejectsTamperedSignerSet) {
  std::vector<SignatureShare> shares;
  for (NodeId i = 0; i < 2; ++i) {
    CryptoContext ctx = MakeCtx(i);
    shares.push_back(scheme_.SignShare(&ctx, Slice("m")));
  }
  CryptoContext collector = MakeCtx(0);
  Result<ThresholdSignature> sig =
      scheme_.Combine(&collector, shares, 2, Slice("m"));
  ASSERT_TRUE(sig.ok());
  ThresholdSignature tampered = *sig;
  tampered.signers = {5, 6};  // Different quorum than the tag covers.
  EXPECT_FALSE(scheme_.Verify(&collector, tampered, Slice("m")));
  ThresholdSignature dup = *sig;
  dup.signers = {dup.signers[0], dup.signers[0]};  // Non-distinct.
  EXPECT_FALSE(scheme_.Verify(&collector, dup, Slice("m")));
}

TEST_F(ThresholdTest, CombineTakesExactlyKOfMoreShares) {
  std::vector<SignatureShare> shares;
  for (NodeId i = 0; i < 5; ++i) {
    CryptoContext ctx = MakeCtx(i);
    shares.push_back(scheme_.SignShare(&ctx, Slice("m")));
  }
  CryptoContext collector = MakeCtx(0);
  Result<ThresholdSignature> sig =
      scheme_.Combine(&collector, shares, 3, Slice("m"));
  ASSERT_TRUE(sig.ok());
  EXPECT_EQ(sig->signers.size(), 3u);
  EXPECT_TRUE(scheme_.Verify(&collector, *sig, Slice("m")));
}

}  // namespace
}  // namespace bftlab
