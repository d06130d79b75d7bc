#include "mpint/montgomery.h"

#include <algorithm>
#include <stdexcept>

namespace eccm0::mpint {
namespace {

using U64 = std::uint64_t;
using U128 = unsigned __int128;

/// -m^-1 mod 2^32 by Newton iteration (m odd).
Word neg_inv32(Word m) {
  Word x = m;  // correct mod 2^3... iterate to full width
  for (int i = 0; i < 5; ++i) x *= 2 - m * x;  // x = m^-1 mod 2^32
  return static_cast<Word>(0u - x);
}

/// -m^-1 mod 2^64, the same iteration one step further.
U64 neg_inv64(U64 m) {
  U64 x = m;
  for (int i = 0; i < 6; ++i) x *= 2 - m * x;
  return 0 - x;
}

/// The CIOS pass on N 64-bit words: the 32-bit pass of
/// Montgomery::mont_mul32 with twice the word size, for moduli whose R
/// is a whole number of 64-bit words.
template <std::size_t N>
void cios64(const Montgomery::Fe& a32, const Montgomery::Fe& b32,
            const Montgomery::Fe& m32, U64 m0_inv, Montgomery::Fe& out) {
  U64 a[N], b[N], m[N];
  for (std::size_t i = 0; i < N; ++i) {
    a[i] = a32[2 * i] | (static_cast<U64>(a32[2 * i + 1]) << 32);
    b[i] = b32[2 * i] | (static_cast<U64>(b32[2 * i + 1]) << 32);
    m[i] = m32[2 * i] | (static_cast<U64>(m32[2 * i + 1]) << 32);
  }
  U64 t[N + 2] = {};
  for (std::size_t i = 0; i < N; ++i) {
    const U128 bi = b[i];
    U128 c = 0;
    for (std::size_t j = 0; j < N; ++j) {
      c += a[j] * bi + t[j];
      t[j] = static_cast<U64>(c);
      c >>= 64;
    }
    c += t[N];
    t[N] = static_cast<U64>(c);
    t[N + 1] = static_cast<U64>(c >> 64);

    const U128 u = static_cast<U64>(t[0] * m0_inv);
    c = (u * m[0] + t[0]) >> 64;
    for (std::size_t j = 1; j < N; ++j) {
      c += u * m[j] + t[j];
      t[j - 1] = static_cast<U64>(c);
      c >>= 64;
    }
    c += t[N];
    t[N - 1] = static_cast<U64>(c);
    t[N] = t[N + 1] + static_cast<U64>(c >> 64);
  }
  bool ge = t[N] != 0;
  if (!ge) {
    ge = true;  // equal counts as >= m
    for (std::size_t i = N; i-- > 0;) {
      if (t[i] != m[i]) {
        ge = t[i] > m[i];
        break;
      }
    }
  }
  if (ge) {
    U64 borrow = 0;
    for (std::size_t i = 0; i < N; ++i) {
      const U128 d = static_cast<U128>(t[i]) - m[i] - borrow;
      t[i] = static_cast<U64>(d);
      borrow = static_cast<U64>(d >> 127);
    }
  }
  for (std::size_t i = 0; i < N; ++i) {
    out[2 * i] = static_cast<Word>(t[i]);
    out[2 * i + 1] = static_cast<Word>(t[i] >> 32);
  }
}

/// x < y over n words.
bool less(const Word* x, const Word* y, std::size_t n) {
  for (std::size_t i = n; i-- > 0;) {
    if (x[i] != y[i]) return x[i] < y[i];
  }
  return false;
}

/// x -= y over n words; returns the borrow out.
Word sub_words(Word* x, const Word* y, std::size_t n) {
  Word borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const DWord d = static_cast<DWord>(x[i]) - y[i] - borrow;
    x[i] = static_cast<Word>(d);
    borrow = static_cast<Word>(d >> 63);
  }
  return borrow;
}

/// x += y over n words; returns the carry out.
Word add_words(Word* x, const Word* y, std::size_t n) {
  DWord c = 0;
  for (std::size_t i = 0; i < n; ++i) {
    c += static_cast<DWord>(x[i]) + y[i];
    x[i] = static_cast<Word>(c);
    c >>= 32;
  }
  return static_cast<Word>(c);
}

/// x >>= 1 over n words, shifting `top` in as the new top bit.
void shr1(Word* x, std::size_t n, Word top = 0) {
  for (std::size_t i = 0; i + 1 < n; ++i) {
    x[i] = (x[i] >> 1) | (x[i + 1] << 31);
  }
  x[n - 1] = (x[n - 1] >> 1) | (top << 31);
}

bool is_zero(const Word* x, std::size_t n) {
  return std::all_of(x, x + n, [](Word w) { return w == 0; });
}

bool is_one(const Word* x, std::size_t n) {
  return x[0] == 1 && is_zero(x + 1, n - 1);
}

}  // namespace

Montgomery::Montgomery(UInt modulus) : m_(std::move(modulus)) {
  if (!m_.is_odd() || m_ <= UInt{2}) {
    throw std::invalid_argument("Montgomery: modulus must be odd and > 2");
  }
  n_ = m_.limbs().size();
  if (n_ > kMaxLimbs) {
    throw std::invalid_argument("Montgomery: modulus wider than 8 limbs");
  }
  std::copy(m_.limbs().begin(), m_.limbs().end(), mw_.begin());
  m0_inv_ = neg_inv32(mw_[0]);
  m0_inv64_ = neg_inv64(mw_[0] | (static_cast<U64>(mw_[1]) << 32));
  r_mod_m_ = UInt::pow2(32 * n_) % m_;
  const UInt r2 = mulmod(r_mod_m_, r_mod_m_, m_);
  r2_ = load(r2);
  r3_ = load(mulmod(r2, r_mod_m_, m_));
}

Montgomery::Fe Montgomery::load(const UInt& a) const {
  const auto l = a.limbs();
  if (l.size() > n_) {
    throw std::invalid_argument("Montgomery: operand wider than the modulus");
  }
  Fe w{};
  std::copy(l.begin(), l.end(), w.begin());
  return w;
}

UInt Montgomery::store(const Fe& w) const {
  return UInt{std::vector<Word>(w.begin(), w.begin() + n_)};
}

void Montgomery::mont_mul(const Fe& a, const Fe& b, Fe& out) const {
  switch (n_) {
    case 6: cios64<3>(a, b, mw_, m0_inv64_, out); return;
    case 8: cios64<4>(a, b, mw_, m0_inv64_, out); return;
    default: mont_mul32(a, b, out); return;
  }
}

void Montgomery::mont_mul32(const Fe& a, const Fe& b, Fe& out) const {
  // CIOS: per word b_i, t = (t + a*b_i + u*m) / 2^32 with u chosen to
  // clear the low word. t < R + m throughout, so n + 2 words hold every
  // intermediate. U = sum u_i 2^(32i) = -ab m^-1 mod R is the same
  // multiplier a full-product REDC picks, so the result is too.
  const std::size_t n = n_;
  Word t[kMaxLimbs + 2] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const DWord bi = b[i];
    DWord c = 0;
    for (std::size_t j = 0; j < n; ++j) {
      c += a[j] * bi + t[j];
      t[j] = static_cast<Word>(c);
      c >>= 32;
    }
    c += t[n];
    t[n] = static_cast<Word>(c);
    t[n + 1] = static_cast<Word>(c >> 32);

    const DWord u = static_cast<Word>(t[0] * m0_inv_);
    c = (u * mw_[0] + t[0]) >> 32;
    for (std::size_t j = 1; j < n; ++j) {
      c += u * mw_[j] + t[j];
      t[j - 1] = static_cast<Word>(c);
      c >>= 32;
    }
    c += t[n];
    t[n - 1] = static_cast<Word>(c);
    t[n] = t[n + 1] + static_cast<Word>(c >> 32);
  }
  // REDC's final conditional subtract.
  if (t[n] != 0 || !less(t, mw_.data(), n)) sub_words(t, mw_.data(), n);
  std::copy_n(t, n, out.begin());
}

UInt Montgomery::to_mont(const UInt& a) const {
  Fe out{};
  mont_mul(a.limbs().size() > n_ ? load(a % m_) : load(a), r2_, out);
  return store(out);
}

UInt Montgomery::from_mont(const UInt& a) const {
  Fe one{};
  one[0] = 1;
  Fe out{};
  mont_mul(load(a), one, out);
  return store(out);
}

UInt Montgomery::mul(const UInt& a, const UInt& b) const {
  return store(mul(load(a), load(b)));
}

Montgomery::Fe Montgomery::add(const Fe& a, const Fe& b) const {
  // a + b < 2m: subtract m once if it carried out of n words or is >= m
  // (a carry and the subtract's borrow cancel).
  Fe s = a;
  const Word carry = add_words(s.data(), b.data(), n_);
  if (carry != 0 || !less(s.data(), mw_.data(), n_)) {
    sub_words(s.data(), mw_.data(), n_);
  }
  return s;
}

Montgomery::Fe Montgomery::sub(const Fe& a, const Fe& b) const {
  Fe x = a;
  sub_mod(x, b);
  return x;
}

UInt Montgomery::add(const UInt& a, const UInt& b) const {
  // s = a + b over n + 1 words; subtract m once if s >= m.
  std::array<Word, kMaxLimbs + 1> s{};
  const Fe y = load(b);
  const Fe x = load(a);
  std::copy_n(x.begin(), n_, s.begin());
  s[n_] = add_words(s.data(), y.data(), n_);
  if (s[n_] != 0 || !less(s.data(), mw_.data(), n_)) {
    s[n_] -= sub_words(s.data(), mw_.data(), n_);
  }
  return UInt{std::vector<Word>(s.begin(), s.begin() + n_ + 1)};
}

UInt Montgomery::sub(const UInt& a, const UInt& b) const {
  return store(sub(load(a), load(b)));
}

UInt Montgomery::pow(const UInt& base, const UInt& exp) const {
  Fe result = load(r_mod_m_);  // 1 in-domain
  Fe b = load(base);
  const std::size_t bits = exp.bit_length();
  for (std::size_t i = 0; i < bits; ++i) {
    if (exp.bit(i)) mont_mul(result, b, result);
    mont_mul(b, b, b);
  }
  return store(result);
}

void Montgomery::halve(Fe& x) const {
  const Word top = (x[0] & 1u) ? add_words(x.data(), mw_.data(), n_) : 0;
  shr1(x.data(), n_, top);
}

void Montgomery::sub_mod(Fe& x, const Fe& y) const {
  // x - y, plus m when it borrows (the wrap past 2^(32n) cancels).
  if (sub_words(x.data(), y.data(), n_) != 0) {
    add_words(x.data(), mw_.data(), n_);
  }
}

UInt Montgomery::inv(const UInt& a) const { return store(inv(load(a))); }

Montgomery::Fe Montgomery::inv(const Fe& a) const {
  // Binary extended Euclid (Hankerson-Menezes-Vanstone Alg. 2.22) on the
  // in-domain a = xR itself, keeping x1*a = u and x2*a = v (mod m). u
  // reaches 0 only when gcd(a, m) != 1: for a prime m, when x = 0, whose
  // "inverse" is 0, as x^(m-2) gives.
  Fe u = a;
  Fe v = mw_;
  Fe x1{};
  Fe x2{};
  x1[0] = 1;
  const std::size_t n = n_;
  if (is_zero(u.data(), n)) return Fe{};
  while (!is_one(u.data(), n) && !is_one(v.data(), n)) {
    while ((u[0] & 1u) == 0) {
      shr1(u.data(), n);
      halve(x1);
    }
    while ((v[0] & 1u) == 0) {
      shr1(v.data(), n);
      halve(x2);
    }
    if (!less(u.data(), v.data(), n)) {
      sub_words(u.data(), v.data(), n);
      sub_mod(x1, x2);
      if (is_zero(u.data(), n)) return Fe{};
    } else {
      sub_words(v.data(), u.data(), n);
      sub_mod(x2, x1);
    }
  }
  // a^-1 * R^3 * R^-1 = x^-1 R: the inverse, in-domain.
  return mul(is_one(u.data(), n) ? x1 : x2, r3_);
}

}  // namespace eccm0::mpint
