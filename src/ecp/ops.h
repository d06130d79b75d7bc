// Prime-curve point arithmetic: Jacobian coordinates over the Montgomery
// domain, with field-operation counting mirroring ec::CurveOps so prime
// and binary implementations can be costed with the same machinery.
#pragma once

#include <cstdint>
#include <functional>

#include "ecp/curve.h"

namespace eccm0::ecp {

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
  mpint::UInt X;
  mpint::UInt Y;
  mpint::UInt Z;  ///< zero = infinity

  bool is_inf() const { return Z.is_zero(); }
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
  using MulTamper = std::function<void(
      std::uint64_t index, const mpint::UInt& a, const mpint::UInt& b,
      mpint::UInt& r)>;

  explicit PrimeCurveOps(const PrimeCurve& c) : c_(c) {}

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

  mpint::UInt fmul(const mpint::UInt& a, const mpint::UInt& b) {
    ++counts_.mul;
    if (!tamper_) [[likely]] return c_.mont->mul(a, b);
    mpint::UInt r = c_.mont->mul(a, b);
    tamper_(mul_index_++, a, b, r);
    return r;
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
  PrimeOpCounts counts_;
  MulTamper tamper_;
  std::uint64_t mul_index_ = 0;
};

/// Width-w NAF scalar multiplication (the doubling-based path a prime
/// curve requires; no Frobenius shortcut exists). `collapsed`, when
/// non-null, is set if the Jacobian accumulator meets infinity again
/// after having left it, before the last step: a mid-loop identity
/// collapse, which an honest run with 0 < k < ord(P) never makes.
AffinePointP mul_wnaf_p(PrimeCurveOps& ops, const AffinePointP& p,
                        const mpint::UInt& k, unsigned w,
                        bool* collapsed = nullptr);
/// Reference oracle: affine double-and-add.
AffinePointP mul_naive_p(PrimeCurveOps& ops, const AffinePointP& p,
                         const mpint::UInt& k);

}  // namespace eccm0::ecp
