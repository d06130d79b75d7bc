// Prime-curve point arithmetic: Jacobian coordinates over the Montgomery
// domain, with field-operation counting mirroring ec::CurveOps so prime
// and binary implementations can be costed with the same machinery.
//
// Two field-element forms: affine points (the oracle, imports, results)
// hold mpint::UInt, while Jacobian points and the counted operations on
// them work on fixed-width stack words (Fe), so the wNAF Horner loop
// allocates nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "ecp/curve.h"

namespace eccm0::ecp {

/// A field element in the Montgomery domain as fixed-width words.
using Fe = mpint::Montgomery::Fe;

/// Affine point, coordinates in the Montgomery domain. `inf` marks the
/// identity.
struct AffinePointP {
  mpint::UInt x;
  mpint::UInt y;
  bool inf = true;

  static AffinePointP infinity() { return {}; }
};

/// Jacobian point: x = X/Z^2, y = Y/Z^3, in the Montgomery domain.
struct JacobianPoint {
  Fe X{};
  Fe Y{};
  Fe Z{};  ///< zero = infinity

  bool is_inf() const { return mpint::is_zero(Z); }
  static JacobianPoint infinity() { return {}; }
};

struct PrimeOpCounts {
  std::uint64_t mul = 0;
  std::uint64_t sqr = 0;
  std::uint64_t inv = 0;
  std::uint64_t add = 0;  ///< modular add/sub
};

class PrimeCurveOps {
 public:
  /// Fault-injection seam, mirroring ec::CurveOps::MulTamper: observes
  /// every counted Montgomery multiplication (0-based running index,
  /// both in-domain operands) and may overwrite the result in place.
  /// Installed only by fault campaigns; normal runs pay one branch per
  /// fmul.
  using MulTamper = std::function<void(std::uint64_t index, const Fe& a,
                                       const Fe& b, Fe& r)>;

  explicit PrimeCurveOps(const PrimeCurve& c)
      : c_(c), one_(c.mont->load(c.mont->one())) {}

  const PrimeCurve& curve() const { return c_; }
  const PrimeOpCounts& counts() const { return counts_; }
  void reset_counts() { counts_ = {}; }

  /// Install (or clear, with nullptr) the multiplication tamper hook.
  /// Resets the running multiplication index to 0.
  void set_mul_tamper(MulTamper t) {
    tamper_ = std::move(t);
    mul_index_ = 0;
  }

  /// Import/export between plain integers mod p and the Montgomery domain.
  AffinePointP import_point(const mpint::UInt& x, const mpint::UInt& y) const;
  void export_point(const AffinePointP& p, mpint::UInt* x,
                    mpint::UInt* y) const;
  /// The curve generator, imported.
  AffinePointP generator() const;

  // Counted field operations, on Fe words and (for the affine oracle)
  // on UInt; both forms share the counters and the tamper numbering.
  Fe fmul(const Fe& a, const Fe& b) {
    ++counts_.mul;
    Fe r = c_.mont->mul(a, b);
    if (tamper_) [[unlikely]] tamper_(mul_index_++, a, b, r);
    return r;
  }
  Fe fsqr(const Fe& a) {
    ++counts_.sqr;
    return c_.mont->mul(a, a);
  }
  Fe finv(const Fe& a) {
    ++counts_.inv;
    return c_.mont->inv(a);
  }
  Fe fadd(const Fe& a, const Fe& b) {
    ++counts_.add;
    return c_.mont->add(a, b);
  }
  Fe fsub(const Fe& a, const Fe& b) {
    ++counts_.add;
    return c_.mont->sub(a, b);
  }
  mpint::UInt fmul(const mpint::UInt& a, const mpint::UInt& b) {
    return c_.mont->store(fmul(c_.mont->load(a), c_.mont->load(b)));
  }
  mpint::UInt fsqr(const mpint::UInt& a) {
    ++counts_.sqr;
    return c_.mont->mul(a, a);
  }
  mpint::UInt finv(const mpint::UInt& a) {
    ++counts_.inv;
    return c_.mont->inv(a);
  }
  mpint::UInt fadd(const mpint::UInt& a, const mpint::UInt& b) {
    ++counts_.add;
    return c_.mont->add(a, b);
  }
  mpint::UInt fsub(const mpint::UInt& a, const mpint::UInt& b) {
    ++counts_.add;
    return c_.mont->sub(a, b);
  }

  bool on_curve(const AffinePointP& p);
  AffinePointP neg(const AffinePointP& p) const;
  /// Affine oracle operations (one inversion each).
  AffinePointP add(const AffinePointP& p, const AffinePointP& q);
  AffinePointP dbl(const AffinePointP& p);

  JacobianPoint to_jacobian(const AffinePointP& p) const;
  AffinePointP to_affine(const JacobianPoint& p);
  /// Jacobian doubling with the a = -3 shortcut: 4M + 4S.
  void jac_double(JacobianPoint& p);
  /// Mixed Jacobian-affine addition: 8M + 3S.
  void jac_add_mixed(JacobianPoint& p, const AffinePointP& q);

  bool eq(const AffinePointP& p, const AffinePointP& q) const;

 private:
  const PrimeCurve& c_;
  Fe one_;  ///< 1 in the Montgomery domain
  PrimeOpCounts counts_;
  MulTamper tamper_;
  std::uint64_t mul_index_ = 0;
};

/// Width-w NAF scalar multiplication (the doubling-based path a prime
/// curve requires; no Frobenius shortcut exists): make_wnaf_table_p, the
/// mul_wnaf_jac loop, then to_affine. `collapsed`, when non-null, is set
/// if the Jacobian accumulator meets infinity again after having left
/// it, before the last step: a mid-loop identity collapse, which an
/// honest run with 0 < k < ord(P) never makes.
AffinePointP mul_wnaf_p(PrimeCurveOps& ops, const AffinePointP& p,
                        const mpint::UInt& k, unsigned w,
                        bool* collapsed = nullptr);
/// The same multiplication from k's width-w NAF digits
/// (mpint::wnaf_digits), for callers that multiply by one k many times.
AffinePointP mul_wnaf_p(PrimeCurveOps& ops, const AffinePointP& p,
                        std::span<const int> digits, unsigned w,
                        bool* collapsed = nullptr);

/// Precomputed width-w NAF table: odd[i] = (2i + 1)P and its negative,
/// so the Horner loop only adds (neg is uncounted).
struct WnafTableP {
  std::vector<AffinePointP> odd;
  std::vector<AffinePointP> neg_odd;
};

/// Build the table for width w (2^(w-2) points): one affine doubling and
/// 2^(w-2) - 1 affine additions, an inversion each.
WnafTableP make_wnaf_table_p(PrimeCurveOps& ops, const AffinePointP& p,
                             unsigned w);

/// The Horner loop of mul_wnaf_p over an existing table, returning the
/// Jacobian accumulator before the affine conversion. The loop starts
/// from `start` (the identity for a whole kP). Steps run from the last
/// digit down, so a caller that reached accumulator q after the digits
/// above position i resumes with digits.first(i + 1) and q, and gets
/// what the whole loop would have returned. `collapsed` as in
/// mul_wnaf_p.
JacobianPoint mul_wnaf_jac(PrimeCurveOps& ops, const WnafTableP& table,
                           std::span<const int> digits,
                           bool* collapsed = nullptr,
                           const JacobianPoint& start =
                               JacobianPoint::infinity());

/// Reference oracle: affine double-and-add.
AffinePointP mul_naive_p(PrimeCurveOps& ops, const AffinePointP& p,
                         const mpint::UInt& k);

}  // namespace eccm0::ecp
