#include "crypto/bigint.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/drbg.hpp"

namespace hipcloud::crypto {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;
}

BigInt::BigInt(std::uint64_t v) {
  if (v) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigInt BigInt::from_bytes_be(BytesView data) {
  BigInt out;
  for (std::uint8_t b : data) {
    // out = out * 256 + b, done limb-wise for efficiency.
    std::uint64_t carry = b;
    for (auto& limb : out.limbs_) {
      const std::uint64_t v = (static_cast<std::uint64_t>(limb) << 8) | carry;
      limb = static_cast<std::uint32_t>(v);
      carry = v >> 32;
    }
    if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  }
  out.trim();
  return out;
}

BigInt BigInt::from_hex(std::string_view hex) {
  std::string padded(hex);
  if (padded.size() % 2) padded.insert(padded.begin(), '0');
  return from_bytes_be(crypto::from_hex(padded));
}

Bytes BigInt::to_bytes_be(std::size_t min_width) const {
  Bytes out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    const std::uint32_t limb = limbs_[i];
    out.push_back(static_cast<std::uint8_t>(limb >> 24));
    out.push_back(static_cast<std::uint8_t>(limb >> 16));
    out.push_back(static_cast<std::uint8_t>(limb >> 8));
    out.push_back(static_cast<std::uint8_t>(limb));
  }
  // Strip leading zeros, then left-pad to the requested width.
  std::size_t lead = 0;
  while (lead < out.size() && out[lead] == 0) ++lead;
  out.erase(out.begin(), out.begin() + static_cast<long>(lead));
  if (out.size() < min_width) {
    out.insert(out.begin(), min_width - out.size(), 0);
  }
  return out;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  std::string s = crypto::to_hex(to_bytes_be());
  std::size_t lead = 0;
  while (lead + 1 < s.size() && s[lead] == '0') ++lead;
  return s.substr(lead);
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

void BigInt::set_bit(std::size_t i) {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) limbs_.resize(limb + 1, 0);
  limbs_[limb] |= (1u << (i % 32));
}

std::strong_ordering BigInt::operator<=>(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() <=> other.limbs_.size();
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] <=> other.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigInt BigInt::operator+(const BigInt& rhs) const {
  BigInt out;
  const std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
  out.limbs_.resize(n, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t v = carry;
    if (i < limbs_.size()) v += limbs_[i];
    if (i < rhs.limbs_.size()) v += rhs.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(v);
    carry = v >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigInt BigInt::operator-(const BigInt& rhs) const {
  if (*this < rhs) throw std::underflow_error("BigInt: negative result");
  BigInt out;
  out.limbs_.resize(limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t v = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < rhs.limbs_.size()) v -= rhs.limbs_[i];
    if (v < 0) {
      v += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator*(const BigInt& rhs) const {
  if (is_zero() || rhs.is_zero()) return BigInt();
  BigInt out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t a = limbs_[i];
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      const std::uint64_t v =
          a * rhs.limbs_[j] + out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(v);
      carry = v >> 32;
    }
    out.limbs_[i + rhs.limbs_.size()] += static_cast<std::uint32_t>(carry);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator<<(std::size_t bits) const {
  if (is_zero()) return BigInt();
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigInt BigInt::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigInt();
  const std::size_t bit_shift = bits % 32;
  BigInt out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1])
           << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

std::pair<BigInt, BigInt> BigInt::divmod(const BigInt& divisor) const {
  if (divisor.is_zero()) throw std::domain_error("BigInt: divide by zero");
  if (*this < divisor) return {BigInt(), *this};
  if (divisor.limbs_.size() == 1) {
    // Fast single-limb path.
    BigInt q;
    q.limbs_.resize(limbs_.size());
    const std::uint64_t d = divisor.limbs_[0];
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {q, BigInt(rem)};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its MSB set.
  int shift = 0;
  std::uint32_t top = divisor.limbs_.back();
  while (!(top & 0x80000000u)) {
    top <<= 1;
    ++shift;
  }
  const BigInt u = *this << static_cast<std::size_t>(shift);
  const BigInt v = divisor << static_cast<std::size_t>(shift);
  const std::size_t n = v.limbs_.size();
  const std::size_t m = u.limbs_.size() - n;

  std::vector<std::uint32_t> un(u.limbs_);
  un.push_back(0);  // extra high limb for the algorithm
  const std::vector<std::uint32_t>& vn = v.limbs_;

  BigInt q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate qhat from the top two limbs.
    const std::uint64_t num =
        (static_cast<std::uint64_t>(un[j + n]) << 32) | un[j + n - 1];
    std::uint64_t qhat = num / vn[n - 1];
    std::uint64_t rhat = num % vn[n - 1];
    while (qhat >= kBase ||
           qhat * vn[n - 2] > ((rhat << 32) | un[j + n - 2])) {
      --qhat;
      rhat += vn[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply-and-subtract.
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * vn[i] + carry;
      carry = p >> 32;
      const std::int64_t t =
          static_cast<std::int64_t>(un[i + j]) -
          static_cast<std::int64_t>(static_cast<std::uint32_t>(p)) - borrow;
      un[i + j] = static_cast<std::uint32_t>(t);
      borrow = t < 0 ? 1 : 0;
    }
    const std::int64_t t = static_cast<std::int64_t>(un[j + n]) -
                           static_cast<std::int64_t>(carry) - borrow;
    un[j + n] = static_cast<std::uint32_t>(t);

    if (t < 0) {
      // qhat was one too large: add the divisor back.
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t s =
            static_cast<std::uint64_t>(un[i + j]) + vn[i] + c;
        un[i + j] = static_cast<std::uint32_t>(s);
        c = s >> 32;
      }
      un[j + n] = static_cast<std::uint32_t>(un[j + n] + c);
    }
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }
  q.trim();

  BigInt r;
  r.limbs_.assign(un.begin(), un.begin() + static_cast<long>(n));
  r.trim();
  r = r >> static_cast<std::size_t>(shift);
  return {q, r};
}

namespace {

using Limb = std::uint64_t;
using Wide = unsigned __int128;

// Montgomery arithmetic modulo one odd m > 1 in 64-bit limbs, R = 2^(64n).
// Everything that depends only on m (the limbs, m_inv, R mod m, R^2 mod m)
// is computed once here, and products go through preallocated scratch, so
// a caller that works modulo one m many times (mod_exp's window loop, all
// Miller-Rabin rounds on one candidate) builds one context and reuses it.
// Values in Montgomery form are n limbs, fully reduced (< m), so equal
// residues have equal limbs.
class Montgomery {
 public:
  explicit Montgomery(const std::vector<std::uint32_t>& m)
      : m_(pack(m, (m.size() + 1) / 2)),
        t_(m_.size() + 1),
        table_(16 * m_.size()) {
    const std::size_t n = m_.size();
    // m_inv = -m^-1 mod 2^64 by Newton iteration: m0 is its own inverse
    // mod 8, and each step doubles the number of correct low bits.
    Limb inv = m_[0];
    for (int i = 0; i < 5; ++i) inv *= 2 - m_[0] * inv;
    m_inv_ = 0 - inv;
    // R mod m: double the top bit of m up to 2^(64n).
    std::size_t bits = 64 * n;
    while (!(m_[n - 1] >> ((bits - 1) % 64))) --bits;
    one_.assign(n, 0);
    one_[(bits - 1) / 64] = Limb{1} << ((bits - 1) % 64);
    for (std::size_t k = bits - 1; k < 64 * n; ++k) double_mod(one_.data());
    // R^2 mod m: 2^n * R mod m is the Montgomery form of 2^n; six
    // Montgomery squarings raise it to 2^(64n) = R, whose form is R^2.
    r2_ = one_;
    for (std::size_t k = 0; k < n; ++k) double_mod(r2_.data());
    for (int k = 0; k < 6; ++k) mul(r2_.data(), r2_.data(), r2_.data());
  }

  /// 1 and m - 1 in Montgomery form.
  const std::vector<Limb>& one() const { return one_; }
  std::vector<Limb> minus_one() const {
    std::vector<Limb> out(m_);
    sub_in_place(out.data(), one_.data(), m_.size());
    return out;
  }

  /// out = a * b / R mod m (CIOS). a, b < m; out may alias either.
  void mul(const Limb* a, const Limb* b, Limb* out) {
    const std::size_t n = m_.size();
    Limb* t = t_.data();
    std::fill(t_.begin(), t_.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      // t = (t + a * b[i] + q * m) / 2^64 in one pass, with q chosen so
      // the low limb cancels.
      const Limb bi = b[i];
      Wide p = static_cast<Wide>(a[0]) * bi + t[0];
      const Limb q = static_cast<Limb>(p) * m_inv_;
      Wide r = static_cast<Wide>(q) * m_[0] + static_cast<Limb>(p);
      for (std::size_t j = 1; j < n; ++j) {
        p = static_cast<Wide>(a[j]) * bi + t[j] + static_cast<Limb>(p >> 64);
        r = static_cast<Wide>(q) * m_[j] + static_cast<Limb>(p) +
            static_cast<Limb>(r >> 64);
        t[j - 1] = static_cast<Limb>(r);
      }
      const Wide top = static_cast<Wide>(t[n]) + static_cast<Limb>(p >> 64) +
                       static_cast<Limb>(r >> 64);
      t[n - 1] = static_cast<Limb>(top);
      t[n] = static_cast<Limb>(top >> 64);
    }
    // t < 2m here.
    if (t[n] || !less_than_m(t)) sub_in_place(t, m_.data(), n);
    std::copy(t, t + n, out);
  }

  /// Montgomery form of x, where x (32-bit limbs) is below m.
  std::vector<Limb> to_mont(const std::vector<std::uint32_t>& x) {
    std::vector<Limb> out = pack(x, m_.size());
    mul(out.data(), r2_.data(), out.data());
    return out;
  }

  /// The plain value of a (Montgomery form) as 32-bit limbs, untrimmed.
  std::vector<std::uint32_t> from_mont(const Limb* a) {
    std::vector<Limb> unit(m_.size(), 0);
    unit[0] = 1;
    mul(a, unit.data(), unit.data());
    std::vector<std::uint32_t> out;
    for (Limb limb : unit) {
      out.push_back(static_cast<std::uint32_t>(limb));
      out.push_back(static_cast<std::uint32_t>(limb >> 32));
    }
    return out;
  }

  /// x = x^e, Montgomery form in and out, with a fixed 4-bit window. An
  /// exponent of at most kShortExpBits (RSA's e = 65537) would not pay
  /// back the window table's 14 multiplies, so it gets plain
  /// left-to-right square-and-multiply instead.
  void pow(std::vector<Limb>& x, const BigInt& e) {
    const std::size_t n = m_.size();
    const std::size_t bits = e.bit_length();
    if (bits <= kShortExpBits) {
      if (bits == 0) {
        x = one_;
        return;
      }
      Limb* base = &table_[n];
      std::copy(x.begin(), x.end(), base);
      for (std::size_t i = bits - 1; i-- > 0;) {
        mul(x.data(), x.data(), x.data());
        if (e.bit(i)) mul(x.data(), base, x.data());
      }
      return;
    }
    std::copy(one_.begin(), one_.end(), table_.begin());
    std::copy(x.begin(), x.end(), table_.begin() + static_cast<long>(n));
    for (std::size_t i = 2; i < 16; ++i) {
      mul(&table_[(i - 1) * n], x.data(), &table_[i * n]);
    }
    std::copy(one_.begin(), one_.end(), x.begin());
    for (std::size_t w = (e.bit_length() + 3) / 4; w-- > 0;) {
      for (int k = 0; k < 4; ++k) mul(x.data(), x.data(), x.data());
      std::size_t digit = 0;
      for (std::size_t k = 4; k-- > 0;) digit = 2 * digit + e.bit(4 * w + k);
      if (digit) mul(x.data(), &table_[digit * n], x.data());
    }
  }

 private:
  static constexpr std::size_t kShortExpBits = 32;

  static std::vector<Limb> pack(const std::vector<std::uint32_t>& x,
                                std::size_t n) {
    std::vector<Limb> out(n, 0);
    for (std::size_t i = 0; i < x.size(); ++i) {
      out[i / 2] |= static_cast<Limb>(x[i]) << (32 * (i % 2));
    }
    return out;
  }

  // x -= y over n limbs, modulo 2^(64n).
  static void sub_in_place(Limb* x, const Limb* y, std::size_t n) {
    Limb borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Limb d = x[i] - y[i];
      const Limb out = d - borrow;
      borrow = (x[i] < y[i]) | (d < borrow);
      x[i] = out;
    }
  }

  bool less_than_m(const Limb* x) const {
    for (std::size_t i = m_.size(); i-- > 0;) {
      if (x[i] != m_[i]) return x[i] < m_[i];
    }
    return false;
  }

  // x = 2x mod m, for x < m.
  void double_mod(Limb* x) const {
    Limb carry = 0;
    for (std::size_t i = 0; i < m_.size(); ++i) {
      const Limb top = x[i] >> 63;
      x[i] = (x[i] << 1) | carry;
      carry = top;
    }
    if (carry || !less_than_m(x)) sub_in_place(x, m_.data(), m_.size());
  }

  std::vector<Limb> m_;
  Limb m_inv_ = 0;  // -m^-1 mod 2^64
  std::vector<Limb> one_;    // R mod m
  std::vector<Limb> r2_;     // R^2 mod m
  std::vector<Limb> t_;      // mul scratch, n + 1 limbs
  std::vector<Limb> table_;  // pow's window table, 16 entries of n limbs
};

}  // namespace

BigInt BigInt::mod_exp(const BigInt& exp, const BigInt& m) const {
  if (m.is_zero()) throw std::domain_error("mod_exp: zero modulus");
  if (m == BigInt(1)) return BigInt();
  BigInt base = *this % m;
  if (exp.is_zero()) return BigInt(1);

  if (m.is_odd()) {
    Montgomery mont(m.limbs_);
    std::vector<Limb> x = mont.to_mont(base.limbs_);
    mont.pow(x, exp);
    BigInt out;
    out.limbs_ = mont.from_mont(x.data());
    out.trim();
    return out;
  }

  // Even modulus: plain square-and-multiply with divmod (rare path; only
  // used by tests).
  BigInt acc(1);
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = bits; i-- > 0;) {
    acc = (acc * acc) % m;
    if (exp.bit(i)) acc = (acc * base) % m;
  }
  return acc;
}

BigInt BigInt::gcd(BigInt a, BigInt b) {
  while (!b.is_zero()) {
    BigInt r = a % b;
    a = std::move(b);
    b = std::move(r);
  }
  return a;
}

BigInt BigInt::mod_inverse(const BigInt& m) const {
  // Extended Euclid tracking coefficients with explicit signs.
  BigInt r0 = m, r1 = *this % m;
  BigInt t0, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    auto [q, r2] = r0.divmod(r1);
    // t2 = t0 - q * t1 with sign handling.
    const BigInt qt1 = q * t1;
    BigInt t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (!(r0 == BigInt(1))) {
    throw std::domain_error("mod_inverse: not invertible");
  }
  if (t0_neg) return m - (t0 % m);
  return t0 % m;
}

BigInt BigInt::random_below(HmacDrbg& drbg, const BigInt& bound) {
  if (bound.is_zero()) throw std::domain_error("random_below: zero bound");
  const std::size_t bytes = (bound.bit_length() + 7) / 8;
  // Rejection sampling keeps the distribution exactly uniform.
  for (;;) {
    Bytes raw = drbg.generate(bytes);
    // Mask off excess top bits to tighten the rejection rate.
    const std::size_t excess = bytes * 8 - bound.bit_length();
    if (excess) raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
    BigInt candidate = from_bytes_be(raw);
    if (candidate < bound) return candidate;
  }
}

BigInt BigInt::random_bits(HmacDrbg& drbg, std::size_t bits) {
  if (bits == 0) return BigInt();
  const std::size_t bytes = (bits + 7) / 8;
  Bytes raw = drbg.generate(bytes);
  const std::size_t excess = bytes * 8 - bits;
  raw[0] &= static_cast<std::uint8_t>(0xff >> excess);
  BigInt out = from_bytes_be(raw);
  out.set_bit(bits - 1);
  return out;
}

namespace {
constexpr std::uint32_t kSmallPrimes[] = {
    2,   3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,
    47,  53,  59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107,
    109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181,
    191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251};
}

bool BigInt::is_probable_prime(const BigInt& n, HmacDrbg& drbg, int rounds) {
  if (n < BigInt(2)) return false;
  for (std::uint32_t p : kSmallPrimes) {
    std::uint64_t rem = 0;
    for (std::size_t i = n.limbs_.size(); i-- > 0;) {
      rem = ((rem << 32) | n.limbs_[i]) % p;
    }
    if (rem == 0) return n.limbs_.size() == 1 && n.limbs_[0] == p;
  }
  // Write n-1 = d * 2^s.
  const BigInt n_minus_1 = n - BigInt(1);
  BigInt d = n_minus_1;
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }
  // Bases are 2 + [0, n-4): the same DRBG draws as ever, so keys and the
  // DRBG state after keygen do not depend on how the rounds are computed.
  const BigInt base_range = n - BigInt(4);
  Montgomery mont(n.limbs_);
  const std::vector<Limb> minus_one = mont.minus_one();
  for (int round = 0; round < rounds; ++round) {
    const BigInt a = BigInt(2) + random_below(drbg, base_range);
    std::vector<Limb> x = mont.to_mont(a.limbs_);
    mont.pow(x, d);
    if (x == mont.one() || x == minus_one) continue;
    bool witness = true;
    for (std::size_t i = 0; i + 1 < s; ++i) {
      mont.mul(x.data(), x.data(), x.data());
      if (x == minus_one) {
        witness = false;
        break;
      }
    }
    if (witness) return false;
  }
  return true;
}

BigInt BigInt::generate_prime(HmacDrbg& drbg, std::size_t bits) {
  if (bits < 8) throw std::invalid_argument("generate_prime: bits < 8");
  for (;;) {
    BigInt candidate = random_bits(drbg, bits);
    candidate.set_bit(0);         // odd
    candidate.set_bit(bits - 2);  // keep products full-width for RSA
    if (is_probable_prime(candidate, drbg)) return candidate;
  }
}

}  // namespace hipcloud::crypto
