// Binary elliptic curves y^2 + xy = x^3 + a*x^2 + b over F(2^m), with the
// named SEC2 instances the paper works with.
#pragma once

#include <string>

#include "ec/tnaf.h"
#include "gf2/field.h"
#include "mpint/uint.h"

namespace eccm0::ec {

struct BinaryCurve {
  const gf2::GF2Field* field;
  gf2::Elem a;
  gf2::Elem b;
  gf2::Elem gx;  ///< base point G
  gf2::Elem gy;
  mpint::UInt order;  ///< prime order n of G
  unsigned cofactor;
  bool koblitz;  ///< a in {0,1}, b = 1: Frobenius endomorphism usable
  int mu;        ///< Koblitz only: mu = (-1)^(1-a), so +1 for a=1, -1 for a=0
  /// Koblitz only: delta = (tau^m - 1)/(tau - 1), the partial-reduction
  /// modulus (N(delta) = order), computed once with the curve.
  ZTau delta;
  std::string name;

  const gf2::GF2Field& f() const { return *field; }

  /// sect233k1 (NIST K-233) — the paper's curve. a=0, b=1, h=4, mu=-1.
  static const BinaryCurve& sect233k1();
  /// sect163k1 (NIST K-163). a=1, b=1, h=2, mu=+1.
  static const BinaryCurve& sect163k1();
  /// sect233r1 (NIST B-233): random curve over the same field, for the
  /// Koblitz-vs-generic comparison (doubling instead of Frobenius).
  static const BinaryCurve& sect233r1();

  /// K-409 (sect409k1's curve equation) with **derived** domain
  /// parameters: see derive_koblitz().
  static const BinaryCurve& k409_derived();

  /// Construct a Koblitz curve (b = 1, a in {0, 1}) over `field` with
  /// domain parameters computed from scratch rather than transcribed:
  /// the group order is N(delta), delta = (tau^m - 1)/(tau - 1) from the
  /// Lucas sequence, the cofactor N(tau - 1), and the generator is found
  /// by a seeded search (decompress the first solvable x, multiply by
  /// the cofactor, reject the identity). The resulting subgroup is the same
  /// prime-order group a standards document would pin a canonical
  /// generator in.
  static BinaryCurve derive_koblitz(const gf2::GF2Field& field, unsigned a,
                                    std::uint64_t seed, std::string name);
};

}  // namespace eccm0::ec
