// Montgomery modular arithmetic context for odd moduli.
//
// Substrate for the prime-field baselines (secp192r1/224r1/256r1): the
// paper's comparison targets (MIRACL, Micro ECC) are prime-curve libraries
// whose inner loop is Montgomery/Comba multiplication — MUL/ADD heavy,
// which is exactly the instruction-mix contrast the paper's energy
// argument rests on.
//
// Fixed width: the modulus is at most kMaxLimbs 32-bit limbs, and every
// operation runs on stack words of that size. Products are one CIOS pass
// (coarsely integrated operand scanning); the inverse is a binary
// extended Euclid lifted into the domain by one product with R^3.
// Operands must fit in n limbs (below R = 2^(32n)); a wider one throws
// std::invalid_argument. Reduced operands give reduced results.
#pragma once

#include <array>

#include "mpint/uint.h"

namespace eccm0::mpint {

class Montgomery {
 public:
  /// Widest modulus in 32-bit limbs; every secp curve has 6-8.
  static constexpr std::size_t kMaxLimbs = 8;

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

  /// The REDC word multiplier -m^-1 mod 2^32 — exposed so the VM prime
  /// kernels can be loaded with the exact constant this oracle uses.
  Word m0_inv() const { return m0_inv_; }

 private:
  using Words = std::array<Word, kMaxLimbs>;

  /// `a` zero-padded to n words; throws std::invalid_argument if it is
  /// wider than the modulus.
  Words load(const UInt& a) const;
  /// The value of the low n words.
  UInt store(const Words& w) const;
  /// out = a * b * R^-1 mod m for a, b < R (out may alias either).
  void mont_mul(const Words& a, const Words& b, Words& out) const;
  /// x = x / 2 mod m, for x < m.
  void halve(Words& x) const;
  /// x = x - y mod m (submod semantics).
  void sub_mod(Words& x, const Words& y) const;

  UInt m_;
  std::size_t n_ = 0;
  Word m0_inv_ = 0;  ///< -m^-1 mod 2^32
  Words mw_{};       ///< the modulus' limbs
  UInt r_mod_m_;     ///< R mod m
  Words r2_{};       ///< R^2 mod m: to_mont's multiplier
  Words r3_{};       ///< R^3 mod m: lifts a plain inverse into the domain
};

}  // namespace eccm0::mpint
