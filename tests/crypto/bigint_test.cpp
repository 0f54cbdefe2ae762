#include "crypto/bigint.hpp"

#include <gtest/gtest.h>

#include "crypto/dh.hpp"
#include "crypto/drbg.hpp"

namespace hipcloud::crypto {
namespace {

TEST(BigInt, ConstructionAndHex) {
  EXPECT_EQ(BigInt().to_hex(), "0");
  EXPECT_EQ(BigInt(0x1234).to_hex(), "1234");
  EXPECT_EQ(BigInt(0xffffffffffffffffULL).to_hex(), "ffffffffffffffff");
  EXPECT_EQ(BigInt::from_hex("deadbeefcafebabe0123456789").to_hex(),
            "deadbeefcafebabe0123456789");
}

TEST(BigInt, BytesRoundTrip) {
  const Bytes b = from_hex("00ffee0102030405060708090a0b0c0d0e0f");
  const BigInt v = BigInt::from_bytes_be(b);
  // Leading zero byte is dropped on re-encode unless padded.
  EXPECT_EQ(to_hex(v.to_bytes_be()), "ffee0102030405060708090a0b0c0d0e0f");
  EXPECT_EQ(v.to_bytes_be(18).size(), 18u);
  EXPECT_EQ(v.to_bytes_be(18)[0], 0);
}

TEST(BigInt, Comparison) {
  EXPECT_LT(BigInt(5), BigInt(7));
  EXPECT_GT(BigInt::from_hex("100000000"), BigInt(0xffffffff));
  EXPECT_EQ(BigInt(42), BigInt(42));
  EXPECT_LT(BigInt(), BigInt(1));
}

TEST(BigInt, AddSubInverse) {
  const BigInt a = BigInt::from_hex("ffffffffffffffffffffffffffffffff");
  const BigInt b = BigInt::from_hex("123456789abcdef0");
  EXPECT_EQ((a + b) - b, a);
  EXPECT_EQ((a + a) - a, a);
  EXPECT_THROW(b - a, std::underflow_error);
}

TEST(BigInt, AddCarriesAcrossLimbs) {
  const BigInt a = BigInt::from_hex("ffffffffffffffff");
  EXPECT_EQ((a + BigInt(1)).to_hex(), "10000000000000000");
}

TEST(BigInt, MulKnownValues) {
  EXPECT_EQ((BigInt(0xffffffff) * BigInt(0xffffffff)).to_hex(),
            "fffffffe00000001");
  const BigInt a = BigInt::from_hex("123456789abcdef0123456789abcdef0");
  const BigInt one(1);
  EXPECT_EQ(a * one, a);
  EXPECT_TRUE((a * BigInt()).is_zero());
}

TEST(BigInt, ShiftRoundTrip) {
  const BigInt a = BigInt::from_hex("deadbeef12345678");
  for (std::size_t s : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ((a << s) >> s, a) << s;
  }
  EXPECT_EQ((BigInt(1) << 128).bit_length(), 129u);
}

TEST(BigInt, DivmodIdentity) {
  // Property: a == q*b + r with r < b, across sizes and shapes.
  HmacDrbg drbg(1, "divmod");
  for (int i = 0; i < 50; ++i) {
    const BigInt a = BigInt::random_bits(drbg, 256 + (i % 64));
    const BigInt b = BigInt::random_bits(drbg, 32 + (i * 7) % 200);
    const auto [q, r] = a.divmod(b);
    EXPECT_LT(r, b);
    EXPECT_EQ(q * b + r, a);
  }
}

TEST(BigInt, DivmodEdgeCases) {
  EXPECT_THROW(BigInt(1).divmod(BigInt()), std::domain_error);
  const BigInt a = BigInt::from_hex("123456789");
  EXPECT_EQ(a / a, BigInt(1));
  EXPECT_TRUE((a % a).is_zero());
  EXPECT_TRUE((a / (a + BigInt(1))).is_zero());
  EXPECT_EQ(a % (a + BigInt(1)), a);
}

TEST(BigInt, DivmodKnuthAddBackCase) {
  // Exercise the rare "add back" branch with a crafted near-boundary case.
  const BigInt u = BigInt::from_hex("7fffffff800000010000000000000000");
  const BigInt v = BigInt::from_hex("800000008000000200000005");
  const auto [q, r] = u.divmod(v);
  EXPECT_EQ(q * v + r, u);
  EXPECT_LT(r, v);
}

TEST(BigInt, ModExpSmallKnownValues) {
  EXPECT_EQ(BigInt(4).mod_exp(BigInt(13), BigInt(497)), BigInt(445));
  EXPECT_EQ(BigInt(2).mod_exp(BigInt(10), BigInt(1000)), BigInt(24));
  EXPECT_EQ(BigInt(7).mod_exp(BigInt(), BigInt(13)), BigInt(1));  // x^0
}

TEST(BigInt, ModExpMatchesNaive) {
  HmacDrbg drbg(2, "modexp");
  for (int i = 0; i < 10; ++i) {
    const BigInt base = BigInt::random_bits(drbg, 64);
    const BigInt exp = BigInt::random_bits(drbg, 16);
    BigInt mod = BigInt::random_bits(drbg, 64);
    mod.set_bit(0);  // odd -> Montgomery path
    // Naive repeated multiplication.
    BigInt naive(1);
    const std::uint64_t e =
        std::stoull(exp.to_hex(), nullptr, 16);
    for (std::uint64_t j = 0; j < e % 1000; ++j) {
      naive = (naive * base) % mod;
    }
    const BigInt expected = naive;
    EXPECT_EQ(base.mod_exp(BigInt(e % 1000), mod), expected);
  }
}

// Left-to-right square-and-multiply with a divmod after every product: the
// independent oracle for the Montgomery path (it never touches it).
BigInt mod_exp_oracle(const BigInt& base, const BigInt& exp, const BigInt& m) {
  const BigInt b = base % m;
  BigInt acc = BigInt(1) % m;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    acc = (acc * acc) % m;
    if (exp.bit(i)) acc = (acc * b) % m;
  }
  return acc;
}

// 2^bits - 1.
BigInt all_ones(std::size_t bits) { return (BigInt(1) << bits) - BigInt(1); }

void expect_mod_exp_matches_oracle(const BigInt& m, HmacDrbg& drbg) {
  const std::size_t bits = m.bit_length();
  // Alternate a base below m with one wider than m, so that the initial
  // reduction runs too.
  const BigInt base = bits % 2 ? BigInt::random_below(drbg, m)
                               : BigInt::random_bits(drbg, 2 * bits + 3);
  const BigInt exps[] = {BigInt(), BigInt(1), all_ones(bits),
                         BigInt::random_bits(drbg, bits)};
  for (const BigInt& exp : exps) {
    EXPECT_EQ(base.mod_exp(exp, m), mod_exp_oracle(base, exp, m))
        << "m=" << m.to_hex() << " base=" << base.to_hex()
        << " exp=" << exp.to_hex();
  }
}

TEST(BigInt, ModExpMatchesOracleAcrossLimbCounts) {
  // Odd moduli of every width from 1 to 48 32-bit limbs (1536 bits): odd
  // limb counts leave the top 64-bit limb half empty. The top limb's width
  // varies from 1 to 32 bits.
  HmacDrbg drbg(9, "modexp-oracle");
  for (std::size_t limbs = 1; limbs <= 48; ++limbs) {
    BigInt m =
        BigInt::random_bits(drbg, 32 * (limbs - 1) + 1 + (limbs * 7) % 32);
    m.set_bit(0);
    expect_mod_exp_matches_oracle(m, drbg);
  }
}

TEST(BigInt, ModExpMatchesOracleOnEdgeModuli) {
  HmacDrbg drbg(10, "modexp-edge");
  expect_mod_exp_matches_oracle(BigInt(3), drbg);
  // 2^k - 1 and 2^k + 1 around the 32- and 64-bit limb boundaries.
  for (std::size_t k : {31u, 32u, 33u, 63u, 64u, 65u, 127u, 128u, 129u,
                        512u, 1024u}) {
    expect_mod_exp_matches_oracle(all_ones(k), drbg);
    expect_mod_exp_matches_oracle((BigInt(1) << k) + BigInt(1), drbg);
  }
  // A top 32-bit limb of exactly 1, with and without a padding limb above
  // it in 64-bit terms.
  for (std::size_t limbs : {1u, 2u, 3u, 16u, 17u, 32u}) {
    BigInt m = (BigInt(1) << (32 * limbs)) +
               BigInt::random_bits(drbg, 32 * limbs - 5);
    m.set_bit(0);
    expect_mod_exp_matches_oracle(m, drbg);
  }
  EXPECT_EQ(BigInt(12345).mod_exp(BigInt(7), BigInt(1)), BigInt());
}

TEST(BigInt, ModExpShortExponentPathMatchesWindowPath) {
  // Exponents of at most 32 bits take plain square-and-multiply; e + (p-1)
  // is as wide as p and takes the 4-bit window. For prime p and a not
  // divisible by p, Fermat makes the two powers equal.
  HmacDrbg drbg(12, "modexp-short");
  const BigInt primes[] = {BigInt::from_hex("ffffffffffffffc5"),  // 2^64-59
                           dh_params(DhGroup::kModp1536).p};
  for (const BigInt& p : primes) {
    std::vector<BigInt> exps = {BigInt(1), BigInt(3), BigInt(65537),
                                all_ones(32)};
    for (int i = 0; i < 8; ++i) {
      exps.push_back(BigInt::random_bits(drbg, 1 + (i * 5) % 32));
    }
    for (const BigInt& e : exps) {
      const BigInt a = BigInt(2) + BigInt::random_below(drbg, p - BigInt(2));
      const BigInt short_path = a.mod_exp(e, p);
      EXPECT_EQ(short_path, a.mod_exp(e + (p - BigInt(1)), p))
          << "p=" << p.to_hex() << " e=" << e.to_hex();
      EXPECT_EQ(short_path, mod_exp_oracle(a, e, p)) << "e=" << e.to_hex();
    }
  }
}

TEST(BigInt, ModExpEvenModulus) {
  EXPECT_EQ(BigInt(3).mod_exp(BigInt(5), BigInt(100)), BigInt(43));
}

TEST(BigInt, ModInverse) {
  const BigInt m = BigInt::from_hex("fffffffb");  // prime
  HmacDrbg drbg(3, "inverse");
  for (int i = 0; i < 20; ++i) {
    const BigInt a = BigInt(1) + BigInt::random_below(drbg, m - BigInt(1));
    const BigInt inv = a.mod_inverse(m);
    EXPECT_EQ((a * inv) % m, BigInt(1));
  }
  EXPECT_THROW(BigInt(4).mod_inverse(BigInt(8)), std::domain_error);
}

TEST(BigInt, Gcd) {
  EXPECT_EQ(BigInt::gcd(BigInt(48), BigInt(36)), BigInt(12));
  EXPECT_EQ(BigInt::gcd(BigInt(17), BigInt(13)), BigInt(1));
  EXPECT_EQ(BigInt::gcd(BigInt(0), BigInt(5)), BigInt(5));
}

TEST(BigInt, BitOps) {
  BigInt v;
  v.set_bit(100);
  EXPECT_TRUE(v.bit(100));
  EXPECT_FALSE(v.bit(99));
  EXPECT_EQ(v.bit_length(), 101u);
  EXPECT_EQ(v, BigInt(1) << 100);
}

TEST(BigInt, RandomBelowIsInRange) {
  HmacDrbg drbg(4, "below");
  const BigInt bound = BigInt::from_hex("10000000001");
  for (int i = 0; i < 100; ++i) {
    EXPECT_LT(BigInt::random_below(drbg, bound), bound);
  }
}

TEST(BigInt, RandomBitsHasExactWidth) {
  HmacDrbg drbg(5, "bits");
  for (std::size_t bits : {8u, 33u, 64u, 127u, 256u}) {
    EXPECT_EQ(BigInt::random_bits(drbg, bits).bit_length(), bits);
  }
}

TEST(BigInt, PrimalityKnownPrimesAndComposites) {
  HmacDrbg drbg(6, "prime");
  EXPECT_TRUE(BigInt::is_probable_prime(BigInt(2), drbg));
  EXPECT_TRUE(BigInt::is_probable_prime(BigInt(65537), drbg));
  // 2^61 - 1 is a Mersenne prime.
  EXPECT_TRUE(
      BigInt::is_probable_prime(BigInt::from_hex("1fffffffffffffff"), drbg));
  EXPECT_FALSE(BigInt::is_probable_prime(BigInt(1), drbg));
  EXPECT_FALSE(BigInt::is_probable_prime(BigInt(561), drbg));   // Carmichael
  EXPECT_FALSE(BigInt::is_probable_prime(BigInt(65536), drbg));
  // 2^67-1 = 193707721 * 761838257287 (composite Mersenne).
  EXPECT_FALSE(
      BigInt::is_probable_prime(BigInt::from_hex("7ffffffffffffffff"), drbg));
}

TEST(BigInt, PrimalityRejectsPseudoprimesAcceptsRfc3526) {
  HmacDrbg drbg(11, "prime-edge");
  // Strong pseudoprimes: 2047 to base 2, 3215031751 to bases 2, 3, 5, 7;
  // Carmichael numbers 561 and 41041.
  for (std::uint64_t n : {2047ULL, 3215031751ULL, 561ULL, 41041ULL}) {
    EXPECT_FALSE(BigInt::is_probable_prime(BigInt(n), drbg)) << n;
  }
  // Strong pseudoprimes with no factor below 256, so trial division passes
  // them on to Miller-Rabin: 149491 * 747451 * 34233211 (bases 2..37) and
  // 399165290221 * 798330580441 (bases 2..37).
  EXPECT_FALSE(BigInt::is_probable_prime(BigInt(3825123056546413051ULL),
                                         drbg));
  EXPECT_FALSE(BigInt::is_probable_prime(
      BigInt::from_hex("437ae92817f9fc85b7e5"), drbg));
  EXPECT_TRUE(
      BigInt::is_probable_prime(dh_params(DhGroup::kModp1536).p, drbg));
}

TEST(BigInt, GeneratePrimeHasRequestedBits) {
  HmacDrbg drbg(7, "genprime");
  const BigInt p = BigInt::generate_prime(drbg, 128);
  EXPECT_EQ(p.bit_length(), 128u);
  EXPECT_TRUE(p.is_odd());
  EXPECT_TRUE(BigInt::is_probable_prime(p, drbg));
}

TEST(BigInt, FermatLittleTheoremProperty) {
  // a^(p-1) == 1 mod p for prime p and a not divisible by p.
  const BigInt p = BigInt::from_hex("ffffffffffffffc5");  // 2^64-59, prime
  HmacDrbg drbg(8, "fermat");
  for (int i = 0; i < 10; ++i) {
    const BigInt a = BigInt(2) + BigInt::random_below(drbg, p - BigInt(2));
    EXPECT_EQ(a.mod_exp(p - BigInt(1), p), BigInt(1));
  }
}

}  // namespace
}  // namespace hipcloud::crypto
