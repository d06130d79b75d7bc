// Montgomery modular arithmetic context for odd moduli.
//
// Substrate for the prime-field baselines (secp192r1/224r1/256r1): the
// paper's comparison targets (MIRACL, Micro ECC) are prime-curve libraries
// whose inner loop is Montgomery/Comba multiplication — MUL/ADD heavy,
// which is exactly the instruction-mix contrast the paper's energy
// argument rests on.
//
// Fixed width: the modulus is at most kMaxLimbs 32-bit limbs, and every
// operation runs on stack words of that size (`Fe`); the UInt overloads
// load into and store out of that form. Products are one CIOS pass
// (coarsely integrated operand scanning): on 64-bit words for 6- and
// 8-limb moduli (3 or 4 words, R unchanged), on 32-bit words for any
// other width. R = 2^(32n) and m0_inv() are the same either way, and so
// is every product: both passes compute (ab + Um)/R for the one
// U = -ab m^-1 mod R, then the same conditional subtract. The inverse
// is a binary extended Euclid lifted into the domain by one product
// with R^3. Operands must fit in n limbs (below R); a wider one throws
// std::invalid_argument. Reduced operands give reduced results.
#pragma once

#include <array>

#include "mpint/uint.h"

namespace eccm0::mpint {

class Montgomery {
 public:
  /// Widest modulus in 32-bit limbs; every secp curve has 6-8.
  static constexpr std::size_t kMaxLimbs = 8;
  /// A residue as little-endian 32-bit words, zero past limbs(): the
  /// allocation-free form every operation works on.
  using Fe = std::array<Word, kMaxLimbs>;

  /// modulus must be odd, > 2 and at most kMaxLimbs limbs wide.
  explicit Montgomery(UInt modulus);

  const UInt& modulus() const { return m_; }
  std::size_t limbs() const { return n_; }

  /// Map into the Montgomery domain: a * R mod m (R = 2^(32n)). Any
  /// width of `a` is accepted.
  UInt to_mont(const UInt& a) const;
  /// Map out of the Montgomery domain: a * R^-1 mod m.
  UInt from_mont(const UInt& a) const;

  /// Montgomery product: a * b * R^-1 mod m (both operands in-domain).
  UInt mul(const UInt& a, const UInt& b) const;
  UInt sqr(const UInt& a) const { return mul(a, a); }
  /// In-domain addition/subtraction (addmod / submod semantics).
  UInt add(const UInt& a, const UInt& b) const;
  UInt sub(const UInt& a, const UInt& b) const;

  /// base^exp with base in-domain; result in-domain.
  UInt pow(const UInt& base, const UInt& exp) const;
  /// Inverse of an in-domain value (prime modulus assumed); 0 for 0.
  UInt inv(const UInt& a) const;

  /// 1 in the Montgomery domain (R mod m).
  UInt one() const { return r_mod_m_; }

  /// `a` zero-padded to an Fe; throws std::invalid_argument if it is
  /// wider than the modulus.
  Fe load(const UInt& a) const;
  /// The value of an Fe's low limbs() words.
  UInt store(const Fe& w) const;
  /// The operations above on Fe words. add and sub want reduced
  /// operands (below m).
  Fe mul(const Fe& a, const Fe& b) const {
    Fe out{};
    mont_mul(a, b, out);
    return out;
  }
  Fe add(const Fe& a, const Fe& b) const;
  Fe sub(const Fe& a, const Fe& b) const;
  Fe inv(const Fe& a) const;

  /// The product on 32-bit words for every width: the pass 6- and
  /// 8-limb moduli replace with a 64-bit one. Kept callable so the two
  /// can be compared.
  Fe mul_portable(const Fe& a, const Fe& b) const {
    Fe out{};
    mont_mul32(a, b, out);
    return out;
  }

  /// The REDC word multiplier -m^-1 mod 2^32 — exposed so the VM prime
  /// kernels can be loaded with the exact constant this oracle uses.
  Word m0_inv() const { return m0_inv_; }

 private:
  /// out = a * b * R^-1 mod m for a, b < R (out may alias either): the
  /// 64-bit pass at 6 and 8 limbs, the 32-bit one otherwise.
  void mont_mul(const Fe& a, const Fe& b, Fe& out) const;
  void mont_mul32(const Fe& a, const Fe& b, Fe& out) const;
  /// x = x / 2 mod m, for x < m.
  void halve(Fe& x) const;
  /// x = x - y mod m (submod semantics).
  void sub_mod(Fe& x, const Fe& y) const;

  UInt m_;
  std::size_t n_ = 0;
  Word m0_inv_ = 0;             ///< -m^-1 mod 2^32
  std::uint64_t m0_inv64_ = 0;  ///< -m^-1 mod 2^64, for the 64-bit pass
  Fe mw_{};                     ///< the modulus' limbs
  UInt r_mod_m_;                ///< R mod m
  Fe r2_{};  ///< R^2 mod m: to_mont's multiplier
  Fe r3_{};  ///< R^3 mod m: lifts a plain inverse into the domain
};

/// True when every word of `a` is zero.
inline bool is_zero(const Montgomery::Fe& a) {
  Word acc = 0;
  for (Word w : a) acc |= w;
  return acc == 0;
}

}  // namespace eccm0::mpint
