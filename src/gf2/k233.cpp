#include "gf2/k233.h"

#include <cassert>
#include <cstdint>
#include <span>

#include "gf2/sqr_table.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#define ECCM0_K233_CLMUL 1
#define ECCM0_CLMUL_TARGET __attribute__((target("pclmul,sse2")))
#else
#define ECCM0_K233_CLMUL 0
#endif

namespace eccm0::gf2::k233 {
namespace {

/// dst ^= src << bits, for bits in [0, 255 - degree(src)]. Words of the
/// shifted value that fall outside dst are discarded (callers guarantee
/// they are zero).
void xor_shifted(Fe& dst, const Fe& src, unsigned bits) {
  const unsigned wj = bits / kWordBits;
  const unsigned b = bits % kWordBits;
  if (b == 0) {
    for (std::size_t i = 0; i + wj < kWords; ++i) dst[i + wj] ^= src[i];
    return;
  }
  for (std::size_t i = 0; i + wj < kWords; ++i) {
    dst[i + wj] ^= src[i] << b;
    if (i + wj + 1 < kWords) dst[i + wj + 1] ^= src[i] >> (kWordBits - b);
  }
}

/// Whole-product left shift by 4 bits (the inter-pass shift of LD w = 4).
void shl4(Prod& v) {
  for (std::size_t i = v.size() - 1; i > 0; --i) {
    v[i] = (v[i] << 4) | (v[i - 1] >> (kWordBits - 4));
  }
  v[0] <<= 4;
}

/// Comb multiplication of two N-word operands into a 2N-word product
/// (Hankerson et al. Alg 2.34 right-to-left comb). Base case for
/// Karatsuba and generally useful for sub-width products.
template <std::size_t N>
void mul_comb(std::array<Word, 2 * N>& v, const std::array<Word, N>& x,
              const std::array<Word, N>& y) {
  v = {};
  // b holds y << bit; one extra word catches the overflow.
  std::array<Word, N + 1> b{};
  for (std::size_t i = 0; i < N; ++i) b[i] = y[i];
  for (unsigned bit = 0; bit < kWordBits; ++bit) {
    for (std::size_t k = 0; k < N; ++k) {
      if ((x[k] >> bit) & 1u) {
        for (std::size_t l = 0; l <= N; ++l) {
          if (k + l < 2 * N) v[k + l] ^= b[l];
        }
      }
    }
    if (bit + 1 < kWordBits) {
      for (std::size_t i = N; i > 0; --i) {
        b[i] = (b[i] << 1) | (b[i - 1] >> (kWordBits - 1));
      }
      b[0] <<= 1;
    }
  }
}

#if ECCM0_K233_CLMUL

using U64 = std::uint64_t;
/// An element as four little-endian 64-bit words; a product as eight.
using Fe64 = std::array<U64, 4>;
using Prod64 = std::array<U64, 8>;

inline Fe64 widen(const Fe& a) {
  Fe64 w;
  for (std::size_t i = 0; i < 4; ++i) {
    w[i] = a[2 * i] | (static_cast<U64>(a[2 * i + 1]) << 32);
  }
  return w;
}

/// The 128-bit carry-less product a * b as (lo, hi).
ECCM0_CLMUL_TARGET inline void clmul(U64 a, U64 b, U64& lo, U64& hi) {
  const __m128i p =
      _mm_clmulepi64_si128(_mm_cvtsi64_si128(static_cast<long long>(a)),
                           _mm_cvtsi64_si128(static_cast<long long>(b)), 0x00);
  lo = static_cast<U64>(_mm_cvtsi128_si64(p));
  hi = static_cast<U64>(_mm_cvtsi128_si64(_mm_unpackhi_epi64(p, p)));
}

/// (a1:a0) * (b1:b0) into r[0..3]: one Karatsuba level, 3 multiplies.
ECCM0_CLMUL_TARGET inline void mul128(U64 a0, U64 a1, U64 b0, U64 b1,
                                      U64* r) {
  U64 l0, l1, h0, h1, m0, m1;
  clmul(a0, b0, l0, l1);
  clmul(a1, b1, h0, h1);
  clmul(a0 ^ a1, b0 ^ b1, m0, m1);
  m0 ^= l0 ^ h0;
  m1 ^= l1 ^ h1;
  r[0] = l0;
  r[1] = l1 ^ m0;
  r[2] = h0 ^ m1;
  r[3] = h1;
}

/// The 512-bit product of two 256-bit operands: Karatsuba over the
/// 128-bit halves, each half product Karatsuba again — 9 multiplies.
ECCM0_CLMUL_TARGET inline Prod64 mul256(const Fe64& a, const Fe64& b) {
  U64 l[4], h[4], m[4];
  mul128(a[0], a[1], b[0], b[1], l);
  mul128(a[2], a[3], b[2], b[3], h);
  mul128(a[0] ^ a[2], a[1] ^ a[3], b[0] ^ b[2], b[1] ^ b[3], m);
  for (int i = 0; i < 4; ++i) m[i] ^= l[i] ^ h[i];
  return {l[0], l[1], l[2] ^ m[0], l[3] ^ m[1],
          h[0] ^ m[2], h[1] ^ m[3], h[2], h[3]};
}

ECCM0_CLMUL_TARGET inline Prod64 sqr256(const Fe64& a) {
  Prod64 p;
  for (std::size_t i = 0; i < 4; ++i) {
    clmul(a[i], a[i], p[2 * i], p[2 * i + 1]);
  }
  return p;
}

/// `reduce` on 64-bit words. Word i >= 4 sits 23 bits above the 233
/// boundary of word i-4 (256 - 233) and 97 = 64 + 33 bits above it for
/// the z^74 term.
inline Fe fold64(Prod64 c) {
  for (int i = 7; i >= 4; --i) {
    const U64 t = c[i];
    c[i - 4] ^= t << 23;
    c[i - 3] ^= (t >> 41) ^ (t << 33);
    c[i - 2] ^= t >> 31;
  }
  const U64 t = c[3] >> 41;  // bits 233..255
  c[0] ^= t;
  c[1] ^= t << 10;
  c[3] &= (U64{1} << 41) - 1;
  Fe r;
  for (std::size_t i = 0; i < 4; ++i) {
    r[2 * i] = static_cast<Word>(c[i]);
    r[2 * i + 1] = static_cast<Word>(c[i] >> 32);
  }
  return r;
}

// The two entry points: everything above inlines into them, so a
// product never leaves registers between the multiply and the fold.
ECCM0_CLMUL_TARGET Fe mul_clmul(const Fe& a, const Fe& b) {
  return fold64(mul256(widen(a), widen(b)));
}

ECCM0_CLMUL_TARGET Fe sqr_clmul(const Fe& a) {
  return fold64(sqr256(widen(a)));
}

bool detect_clmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul");
}

#else

bool detect_clmul() { return false; }

#endif

}  // namespace

bool has_clmul() {
  static const bool kHave = detect_clmul();
  return kHave;
}

int degree(const Fe& a) { return poly_degree(std::span<const Word>(a)); }

void mul_shift_add(Prod& v, const Fe& x, const Fe& y) {
  v = {};
  // Accumulate y << i for every set bit i of x, via a sliding copy of y.
  std::array<Word, 2 * kWords> b{};
  for (std::size_t i = 0; i < kWords; ++i) b[i] = y[i];
  for (unsigned i = 0; i < kWords * kWordBits; ++i) {
    if (get_bit(std::span<const Word>(x), i)) {
      for (std::size_t w = 0; w < b.size(); ++w) v[w] ^= b[w];
    }
    for (std::size_t w = b.size() - 1; w > 0; --w) {
      b[w] = (b[w] << 1) | (b[w - 1] >> (kWordBits - 1));
    }
    b[0] <<= 1;
  }
}

void mul_ld(Prod& v, const Fe& x, const Fe& y) {
  // T[u] = u(z) * y(z) for deg(u) < 4. deg(y) <= 232 <= n*W - (w-1) = 253,
  // so by the paper's eq. (1) each entry fits in n = 8 words.
  std::array<Fe, 16> t;
  t[0] = Fe{};
  t[1] = y;
  for (unsigned u = 2; u < 16; u += 2) {
    const Fe& h = t[u / 2];
    Fe& e = t[u];
    for (std::size_t i = kWords - 1; i > 0; --i) {
      e[i] = (h[i] << 1) | (h[i - 1] >> (kWordBits - 1));
    }
    e[0] = h[0] << 1;
    t[u + 1] = add(e, y);
  }

  v = {};
  for (int j = kWordBits / 4 - 1; j >= 0; --j) {
    for (std::size_t k = 0; k < kWords; ++k) {
      const unsigned u = (x[k] >> (4 * j)) & 0xFu;
      const Fe& e = t[u];
      for (std::size_t l = 0; l < kWords; ++l) v[l + k] ^= e[l];
    }
    if (j != 0) shl4(v);
  }
}

void mul_karatsuba(Prod& v, const Fe& x, const Fe& y) {
  using Half = std::array<Word, 4>;
  auto lo = [](const Fe& a) { return Half{a[0], a[1], a[2], a[3]}; };
  auto hi = [](const Fe& a) { return Half{a[4], a[5], a[6], a[7]}; };
  auto hxor = [](const Half& a, const Half& b) {
    return Half{a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]};
  };

  std::array<Word, 8> z0, z1, z2;
  mul_comb<4>(z0, lo(x), lo(y));
  mul_comb<4>(z2, hi(x), hi(y));
  mul_comb<4>(z1, hxor(lo(x), hi(x)), hxor(lo(y), hi(y)));

  v = {};
  for (std::size_t i = 0; i < 8; ++i) {
    v[i] ^= z0[i];
    v[i + 8] ^= z2[i];
    v[i + 4] ^= z1[i] ^ z0[i] ^ z2[i];
  }
}

void reduce(Fe& r, const Prod& c0) {
  // Bit 233+k folds to bits k+74 and k. Word i >= 8 sits 23 bits above the
  // 233 boundary of word i-8 (256 - 233 = 23) and 97 = 3*32 + 1 bits above
  // word i-5's base for the z^74 term.
  Prod c = c0;
  for (int i = 15; i >= 8; --i) {
    const Word t = c[i];
    c[i - 8] ^= t << 23;
    c[i - 7] ^= t >> 9;
    c[i - 5] ^= t << 1;
    c[i - 4] ^= t >> 31;
  }
  const Word t = c[7] >> 9;  // bits 233..255 of the low half
  c[0] ^= t;
  c[2] ^= t << 10;
  c[3] ^= t >> 22;
  c[7] &= kTopMask;
  for (std::size_t i = 0; i < kWords; ++i) r[i] = c[i];
}

void sqr_expand(Prod& v, const Fe& a) {
  for (std::size_t i = 0; i < kWords; ++i) {
    const std::uint64_t s = square_spread(a[i]);
    v[2 * i] = static_cast<Word>(s);
    v[2 * i + 1] = static_cast<Word>(s >> 32);
  }
}

void sqr(Fe& r, const Fe& a) {
#if ECCM0_K233_CLMUL
  if (has_clmul()) {
    r = sqr_clmul(a);
    return;
  }
#endif
  // The expansion's upper half never reaches memory on the target: the
  // paper folds each upper word as it is produced. On the host we express
  // the same computation as expand + top-down fold; the memory behaviour
  // of the interleaved form is modelled by the traced variant.
  Prod v;
  sqr_expand(v, a);
  reduce(r, v);
}

Fe mul(const Fe& a, const Fe& b) {
#if ECCM0_K233_CLMUL
  if (has_clmul()) return mul_clmul(a, b);
#endif
  Prod p;
  mul_ld(p, a, b);
  Fe r;
  reduce(r, p);
  return r;
}

Fe inv_itoh_tsujii(const Fe& a) {
  assert(!is_zero(a));
  // beta_k = a^(2^k - 1); beta_{i+j} = beta_i^(2^j) * beta_j.
  auto sqr_n = [](Fe x, unsigned n) {
    for (unsigned i = 0; i < n; ++i) sqr(x, x);
    return x;
  };
  auto step = [&](const Fe& bi, const Fe& bj, unsigned j) {
    return mul(sqr_n(bi, j), bj);
  };
  const Fe b1 = a;
  const Fe b2 = step(b1, b1, 1);
  const Fe b3 = step(b2, b1, 1);
  const Fe b6 = step(b3, b3, 3);
  const Fe b7 = step(b6, b1, 1);
  const Fe b14 = step(b7, b7, 7);
  const Fe b28 = step(b14, b14, 14);
  const Fe b29 = step(b28, b1, 1);
  const Fe b58 = step(b29, b29, 29);
  const Fe b116 = step(b58, b58, 58);
  const Fe b232 = step(b116, b116, 116);
  // a^-1 = (a^(2^232 - 1))^2.
  Fe r;
  sqr(r, b232);
  return r;
}

Fe inv(const Fe& a) {
  assert(!is_zero(a));
  // Extended Euclidean Algorithm for binary polynomials
  // (Hankerson et al. Alg 2.48). Invariants: g1*a = u, g2*a = v (mod f).
  Fe u = a;
  Fe v = modulus();
  Fe g1 = one();
  Fe g2 = zero();
  int du = degree(u);
  int dv = static_cast<int>(kDegree);
  while (du > 0) {
    int j = du - dv;
    if (j < 0) {
      std::swap(u, v);
      std::swap(g1, g2);
      std::swap(du, dv);
      j = -j;
    }
    xor_shifted(u, v, static_cast<unsigned>(j));
    xor_shifted(g1, g2, static_cast<unsigned>(j));
    du = degree(u);
  }
  return g1;
}

}  // namespace eccm0::gf2::k233
