// Unit tests for src/crypto: SHA-256 against FIPS 180-4 vectors, HMAC
// against RFC 4231 vectors, the keystore signature/MAC schemes, and the
// threshold signature scheme.

#include <gtest/gtest.h>

#include "common/hex.h"
#include "crypto/hmac.h"
#include "crypto/keystore.h"
#include "crypto/sha256.h"
#include "crypto/threshold.h"

namespace bftlab {
namespace {

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
