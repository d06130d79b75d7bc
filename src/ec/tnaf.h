// Solinas tau-adic arithmetic for Koblitz curves.
//
// The paper's point multiplication uses the left-to-right width-w TNAF
// ("wTNAF") with w = 4 for random points and w = 6 for the fixed point,
// and delegates the scalar recoding to RELIC; this module implements the
// whole recoding stack from scratch:
//   * the ring Z[tau] with tau^2 = mu*tau - 2 (mu = +-1),
//   * delta = (tau^m - 1)/(tau - 1) and partial reduction
//     rho = k partmod delta (Solinas / Hankerson Alg 3.61-3.63),
//   * width-w TNAF digit expansion (Alg 3.69) with the alpha_u = u mods
//     tau^w representative table computed, not hard-coded.
// The constants are computed once: delta per Koblitz curve
// (BinaryCurve::delta), the alpha_u table once per (mu, w).
#pragma once

#include <cstdint>
#include <vector>

#include "mpint/sint.h"
#include "mpint/uint.h"

namespace eccm0::ec {

struct BinaryCurve;

/// Element a0 + a1*tau of Z[tau].
struct ZTau {
  mpint::SInt a0;
  mpint::SInt a1;

  bool is_zero() const { return a0.is_zero() && a1.is_zero(); }
  friend bool operator==(const ZTau& x, const ZTau& y) {
    return x.a0 == y.a0 && x.a1 == y.a1;
  }
};

/// Arithmetic in Z[tau] for a fixed mu in {-1, +1}.
class TauRing {
 public:
  explicit TauRing(int mu);

  int mu() const { return mu_; }

  ZTau add(const ZTau& x, const ZTau& y) const;
  ZTau sub(const ZTau& x, const ZTau& y) const;
  ZTau mul(const ZTau& x, const ZTau& y) const;
  ZTau neg(const ZTau& x) const { return {-x.a0, -x.a1}; }

  /// Conjugate: a0 + mu*a1 - a1*tau.
  ZTau conj(const ZTau& x) const;
  /// Norm N(a0 + a1 tau) = a0^2 + mu a0 a1 + 2 a1^2 >= 0.
  mpint::SInt norm(const ZTau& x) const;

  /// Lucas-like sequence U_0=0, U_1=1, U_{i+1} = mu*U_i - 2*U_{i-1};
  /// tau^i = U_i * tau - 2 * U_{i-1}.
  mpint::SInt lucas_u(unsigned i) const;
  ZTau tau_pow(unsigned i) const;

  /// True iff tau divides x (iff a0 is even).
  bool divisible_by_tau(const ZTau& x) const { return !x.a0.is_odd(); }
  /// x / tau (precondition: divisible).
  ZTau div_tau(const ZTau& x) const;

  /// Exact division (throws std::domain_error if d does not divide x).
  ZTau div_exact(const ZTau& x, const ZTau& d) const;
  /// Rounded division: the q minimising N(x - q*d)
  /// (Solinas rounding, Hankerson Alg 3.61, done in exact arithmetic).
  ZTau div_round(const ZTau& x, const ZTau& d) const;

 private:
  /// mu * x, as a choice of sign.
  mpint::SInt times_mu(const mpint::SInt& x) const {
    return mu_ > 0 ? x : -x;
  }

  int mu_;
};

/// delta = (tau^m - 1) / (tau - 1). N(delta) equals the prime group order
/// of the curve (cross-checked in tests against the SEC2 constants).
/// Each Koblitz curve computes it once, as BinaryCurve::delta.
ZTau tnaf_delta(int mu, unsigned m);

/// rho = k partmod curve.delta: an element of Z[tau] with rho = k
/// (mod delta) and N(rho) ~ sqrt(order), so its TNAF has length ~m
/// instead of ~2m.
ZTau partmod(const mpint::UInt& k, const BinaryCurve& curve);

/// t_w: the image of tau in Z_{2^w} (tau = t_w mod tau^w on odd classes);
/// t_w = 2 * U_{w-1} * U_w^{-1} mod 2^w.
std::uint32_t tau_mod_2w(int mu, unsigned w);

/// alpha_u = u mods tau^w for odd u = 1, 3, ..., 2^(w-1) - 1;
/// returned indexed by (u-1)/2. alpha_1 is always 1. w must be in
/// [2, 8]; each (mu, w) table is built once, on first use.
const std::vector<ZTau>& alpha_reps(int mu, unsigned w);

/// The width-2 TNAF digits of each alpha_u, in alpha_reps' layout: how
/// a wTNAF table evaluates alpha_u * P. Built once per (mu, w).
const std::vector<std::vector<int>>& alpha_digits(int mu, unsigned w);

/// Width-w TNAF digits of rho, little-endian (digit i weights tau^i).
/// A non-zero digit u (odd, |u| < 2^(w-1)) denotes sign(u) * alpha_|u|;
/// at most one non-zero digit appears in any w consecutive positions.
/// w must be in [2, 8].
std::vector<int> wtnaf_digits(const ZTau& rho, int mu, unsigned w);

/// Evaluate a digit string back to Z[tau] (test/verification helper):
/// sum_i digit_value(u_i) * tau^i with digit values alpha_u.
ZTau wtnaf_evaluate(const std::vector<int>& digits, int mu, unsigned w);

}  // namespace eccm0::ec
