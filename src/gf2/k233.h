// Optimised arithmetic kernel for F(2^233) with the NIST/SEC2 trinomial
// f(z) = z^233 + z^74 + 1 — the field under the paper's sect233k1 curve.
//
// Elements are 8 little-endian 32-bit words (n = 8, the paper's parameter);
// raw products are 16 words. The multipliers mirror the algorithms the
// paper compares:
//   * mul_shift_add  — bit-serial reference (test oracle)
//   * mul_ld         — plain Lopez-Dahab, window w = 4 (paper method A)
// Both produce identical 16-word products.
//
// `mul` and `sqr` pick their path once, at run time: on a CPU with
// carry-less multiply (x86-64 PCLMULQDQ) they work on four 64-bit words —
// a two-level Karatsuba product (9 carry-less multiplies, the 4x64-bit
// split of Dyka & Langendoerfer's iterated Karatsuba) or 4 carry-less
// squares, then a 64-bit fold of z^233 + z^74 + 1. Everywhere else they
// compose mul_ld / sqr_expand with the word-at-a-time `reduce`; those
// stay plain functions in every build, the portable path and the oracle
// the fast one is tested against. Both give the same reduced element.
#pragma once

#include <array>

#include "common/words.h"

namespace eccm0::gf2::k233 {

inline constexpr unsigned kDegree = 233;
inline constexpr std::size_t kWords = 8;  ///< the paper's n
/// Mask for the 9 used bits of the top word (233 - 7*32 = 9).
inline constexpr Word kTopMask = 0x1FF;

using Fe = std::array<Word, kWords>;        ///< reduced field element
using Prod = std::array<Word, 2 * kWords>;  ///< unreduced product

/// The reduction polynomial f(z) = z^233 + z^74 + 1 as a field element
/// image (used by the inversion loop, where v starts as f).
constexpr Fe modulus() {
  Fe f{};
  f[0] = 1u;            // z^0
  f[2] = 1u << 10;      // z^74 = bit 74 = word 2, bit 10
  f[7] = 1u << 9;       // z^233 = bit 233 = word 7, bit 9
  return f;
}

constexpr Fe zero() { return Fe{}; }
constexpr Fe one() {
  Fe f{};
  f[0] = 1;
  return f;
}

constexpr bool is_zero(const Fe& a) {
  Word acc = 0;
  for (Word w : a) acc |= w;
  return acc == 0;
}

constexpr Fe add(const Fe& a, const Fe& b) {
  Fe r;
  for (std::size_t i = 0; i < kWords; ++i) r[i] = a[i] ^ b[i];
  return r;
}

/// Degree of the polynomial in `a` (-1 for zero).
int degree(const Fe& a);

/// Bit-serial multiplication: the independent reference oracle.
void mul_shift_add(Prod& v, const Fe& x, const Fe& y);

/// Plain Lopez-Dahab multiplication, w = 4 (the paper's method A data
/// flow): 16-entry lookup table of u(z)*y(z), left-to-right nibble scan of
/// x, whole-product shift by 4 between passes.
void mul_ld(Prod& v, const Fe& x, const Fe& y);

/// Word-at-a-time reduction modulo z^233 + z^74 + 1 (paper section 3.2.2).
void reduce(Fe& r, const Prod& c);

/// Table-based squaring expansion (no reduction): v = a(z)^2.
void sqr_expand(Prod& v, const Fe& a);

/// Modular squaring: 4 carry-less squares + 64-bit fold where available,
/// sqr_expand + reduce otherwise (the interleaved form of paper section
/// 3.2.4 is what the traced variant models).
void sqr(Fe& r, const Fe& a);

/// Modular multiplication: the 4x64-bit carry-less Karatsuba product +
/// 64-bit fold where available, LD w = 4 + reduce otherwise.
Fe mul(const Fe& a, const Fe& b);

/// True when this CPU runs `mul` and `sqr` on carry-less multiplies.
bool has_clmul();

/// Inversion by the Extended Euclidean Algorithm for binary polynomials
/// (paper section 3.2.3). Precondition: a != 0.
Fe inv(const Fe& a);

/// Inversion by Itoh-Tsujii (Fermat): a^(2^233 - 2) via the addition
/// chain 1-2-3-6-7-14-28-29-58-116-232 — 10 multiplications and 231
/// squarings. The multiplication-based alternative the EEA competes
/// against on this platform. Precondition: a != 0.
Fe inv_itoh_tsujii(const Fe& a);

/// r = a / b = a * inv(b). Precondition: b != 0.
inline Fe div(const Fe& a, const Fe& b) { return mul(a, inv(b)); }

}  // namespace eccm0::gf2::k233
