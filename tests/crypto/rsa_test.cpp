#include "crypto/rsa.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "crypto/sha256.hpp"

namespace hipcloud::crypto {
namespace {

// 1024-bit keys keep keygen fast in tests; the protocol layers default to
// the same size the paper's HIPL deployment used (1024-bit RSA HIs).
class RsaTest : public ::testing::Test {
 protected:
  static const RsaKeyPair& keypair() {
    static const RsaKeyPair kp = [] {
      HmacDrbg drbg(42, "rsa-test");
      return rsa_generate(drbg, 1024);
    }();
    return kp;
  }
};

TEST_F(RsaTest, KeyHasExpectedShape) {
  const auto& kp = keypair();
  EXPECT_EQ(kp.pub.n.bit_length(), 1024u);
  EXPECT_EQ(kp.pub.e, BigInt(65537));
  EXPECT_EQ(kp.priv.p * kp.priv.q, kp.pub.n);
}

TEST_F(RsaTest, SignVerifyRoundTrip) {
  const Bytes msg = to_bytes("host identity protocol base exchange");
  const Bytes sig = rsa_sign_pkcs1(keypair().priv, msg);
  EXPECT_EQ(sig.size(), 128u);
  EXPECT_TRUE(rsa_verify_pkcs1(keypair().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongMessage) {
  const Bytes sig = rsa_sign_pkcs1(keypair().priv, to_bytes("message A"));
  EXPECT_FALSE(rsa_verify_pkcs1(keypair().pub, to_bytes("message B"), sig));
}

TEST_F(RsaTest, VerifyRejectsTamperedSignature) {
  const Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign_pkcs1(keypair().priv, msg);
  sig[10] ^= 0x01;
  EXPECT_FALSE(rsa_verify_pkcs1(keypair().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongLengthSignature) {
  const Bytes msg = to_bytes("message");
  Bytes sig = rsa_sign_pkcs1(keypair().priv, msg);
  sig.pop_back();
  EXPECT_FALSE(rsa_verify_pkcs1(keypair().pub, msg, sig));
}

TEST_F(RsaTest, VerifyRejectsWrongKey) {
  HmacDrbg drbg(77, "other-key");
  const RsaKeyPair other = rsa_generate(drbg, 1024);
  const Bytes msg = to_bytes("message");
  const Bytes sig = rsa_sign_pkcs1(keypair().priv, msg);
  EXPECT_FALSE(rsa_verify_pkcs1(other.pub, msg, sig));
}

TEST_F(RsaTest, EncryptDecryptRoundTrip) {
  HmacDrbg drbg(1, "enc");
  const Bytes pt = to_bytes("48-byte TLS premaster secret equivalent....!");
  const Bytes ct = rsa_encrypt_pkcs1(keypair().pub, drbg, pt);
  EXPECT_EQ(ct.size(), 128u);
  EXPECT_EQ(rsa_decrypt_pkcs1(keypair().priv, ct), pt);
}

TEST_F(RsaTest, EncryptionIsRandomized) {
  HmacDrbg drbg(2, "enc2");
  const Bytes pt = to_bytes("hello");
  EXPECT_NE(rsa_encrypt_pkcs1(keypair().pub, drbg, pt),
            rsa_encrypt_pkcs1(keypair().pub, drbg, pt));
}

TEST_F(RsaTest, EncryptRejectsOversizedMessage) {
  HmacDrbg drbg(3, "enc3");
  EXPECT_THROW(rsa_encrypt_pkcs1(keypair().pub, drbg, Bytes(120, 0)),
               std::invalid_argument);
}

TEST_F(RsaTest, DecryptRejectsGarbage) {
  EXPECT_THROW(rsa_decrypt_pkcs1(keypair().priv, Bytes(128, 0xab)),
               std::runtime_error);
  EXPECT_THROW(rsa_decrypt_pkcs1(keypair().priv, Bytes(10, 0)),
               std::runtime_error);
}

TEST_F(RsaTest, PublicKeyEncodeDecodeRoundTrip) {
  const Bytes encoded = keypair().pub.encode();
  const RsaPublicKey decoded = RsaPublicKey::decode(encoded);
  EXPECT_EQ(decoded, keypair().pub);
}

TEST_F(RsaTest, PublicKeyDecodeRejectsTruncated) {
  EXPECT_THROW(RsaPublicKey::decode(Bytes{0x00}), std::runtime_error);
  Bytes bad = keypair().pub.encode();
  bad.resize(3);
  EXPECT_THROW(RsaPublicKey::decode(bad), std::runtime_error);
}

TEST(RsaGenerate, DeterministicFromSeed) {
  HmacDrbg a(5, "same");
  HmacDrbg b(5, "same");
  EXPECT_EQ(rsa_generate(a, 512).pub.n, rsa_generate(b, 512).pub.n);
}

// Pins the exact keys every Fig. 2 world generates (seed 1): the HIP host
// identities of the LB, three web servers and DB, plus the SSL arm's CA,
// DB and web TLS keys. Each modulus is hashed together with the next 32
// DRBG bytes after keygen (what HostIdentity seeds its nonce DRBG from),
// so a change to the prime search that drew a different number of
// Miller-Rabin bases would show here even if it found the same primes.
TEST(RsaGenerate, GoldenFig2Keys) {
  const char* const kLabels[] = {"hi:lb",    "hi:web0",  "hi:web1",
                                 "hi:web2",  "hi:db",    "ca",
                                 "db-key",   "web-key0", "web-key1",
                                 "web-key2"};
  Sha256 h;
  for (const char* label : kLabels) {
    HmacDrbg drbg(1, label);
    const RsaKeyPair kp = rsa_generate(drbg, 1024);
    h.update(kp.pub.n.to_bytes_be(128));
    h.update(drbg.generate(32));
  }
  const auto digest = h.finish();
  EXPECT_EQ(to_hex(Bytes(digest.begin(), digest.end())),
            "6a2b3f68727ad3724d7fa110943330635fc9bac761c951d21b6c852d819132fc");
}

TEST(RsaGenerate, RejectsTinyModulus) {
  HmacDrbg drbg(6, "tiny");
  EXPECT_THROW(rsa_generate(drbg, 64), std::invalid_argument);
  EXPECT_THROW(rsa_generate(drbg, 513), std::invalid_argument);
}

TEST(RsaGenerate, SignatureWorksAcrossKeySizes) {
  for (std::size_t bits : {512u, 768u}) {
    HmacDrbg drbg(bits, "size-sweep");
    const RsaKeyPair kp = rsa_generate(drbg, bits);
    const Bytes msg = to_bytes("msg");
    EXPECT_TRUE(rsa_verify_pkcs1(kp.pub, msg, rsa_sign_pkcs1(kp.priv, msg)))
        << bits;
  }
}

}  // namespace
}  // namespace hipcloud::crypto
