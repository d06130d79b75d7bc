#include "ecp/ops.h"

#include <vector>

#include "mpint/sint.h"

namespace eccm0::ecp {

using mpint::UInt;

AffinePointP PrimeCurveOps::import_point(const UInt& x, const UInt& y) const {
  return {c_.mont->to_mont(x), c_.mont->to_mont(y), false};
}

void PrimeCurveOps::export_point(const AffinePointP& p, UInt* x,
                                 UInt* y) const {
  *x = c_.mont->from_mont(p.x);
  *y = c_.mont->from_mont(p.y);
}

AffinePointP PrimeCurveOps::generator() const {
  return import_point(c_.gx, c_.gy);
}

bool PrimeCurveOps::on_curve(const AffinePointP& p) {
  if (p.inf) return true;
  // y^2 = x^3 - 3x + b
  const UInt y2 = fsqr(p.y);
  const UInt x3 = fmul(fsqr(p.x), p.x);
  const UInt three_x = fadd(fadd(p.x, p.x), p.x);
  const UInt rhs = fadd(fsub(x3, three_x), c_.mont->to_mont(c_.b));
  return y2 == rhs;
}

AffinePointP PrimeCurveOps::neg(const AffinePointP& p) const {
  if (p.inf) return p;
  return {p.x, c_.mont->sub(UInt{}, p.y), false};
}

bool PrimeCurveOps::eq(const AffinePointP& p, const AffinePointP& q) const {
  if (p.inf || q.inf) return p.inf == q.inf;
  return p.x == q.x && p.y == q.y;
}

AffinePointP PrimeCurveOps::dbl(const AffinePointP& p) {
  if (p.inf || p.y.is_zero()) return AffinePointP::infinity();
  const UInt one = c_.mont->one();
  // lambda = 3(x^2 - 1) / 2y   (a = -3)
  const UInt t = fsub(fsqr(p.x), one);
  const UInt num = fadd(fadd(t, t), t);
  const UInt lambda = fmul(num, finv(fadd(p.y, p.y)));
  const UInt x3 = fsub(fsub(fsqr(lambda), p.x), p.x);
  const UInt y3 = fsub(fmul(lambda, fsub(p.x, x3)), p.y);
  return {x3, y3, false};
}

AffinePointP PrimeCurveOps::add(const AffinePointP& p, const AffinePointP& q) {
  if (p.inf) return q;
  if (q.inf) return p;
  if (p.x == q.x) {
    if (p.y == q.y) return dbl(p);
    return AffinePointP::infinity();
  }
  const UInt lambda = fmul(fsub(q.y, p.y), finv(fsub(q.x, p.x)));
  const UInt x3 = fsub(fsub(fsqr(lambda), p.x), q.x);
  const UInt y3 = fsub(fmul(lambda, fsub(p.x, x3)), p.y);
  return {x3, y3, false};
}

JacobianPoint PrimeCurveOps::to_jacobian(const AffinePointP& p) const {
  if (p.inf) return JacobianPoint::infinity();
  return {p.x, p.y, c_.mont->one()};
}

AffinePointP PrimeCurveOps::to_affine(const JacobianPoint& p) {
  if (p.is_inf()) return AffinePointP::infinity();
  const UInt zi = finv(p.Z);
  const UInt zi2 = fsqr(zi);
  return {fmul(p.X, zi2), fmul(p.Y, fmul(zi2, zi)), false};
}

void PrimeCurveOps::jac_double(JacobianPoint& p) {
  if (p.is_inf()) return;
  if (p.Y.is_zero()) {
    p = JacobianPoint::infinity();
    return;
  }
  // dbl-2001-b with a = -3: 3M + 5S.
  const UInt delta = fsqr(p.Z);
  const UInt gamma = fsqr(p.Y);
  const UInt beta = fmul(p.X, gamma);
  const UInt t = fmul(fsub(p.X, delta), fadd(p.X, delta));
  const UInt alpha = fadd(fadd(t, t), t);
  const UInt beta4 = fadd(fadd(beta, beta), fadd(beta, beta));
  const UInt beta8 = fadd(beta4, beta4);
  const UInt x3 = fsub(fsqr(alpha), beta8);
  UInt z3 = fsqr(fadd(p.Y, p.Z));
  z3 = fsub(fsub(z3, gamma), delta);
  const UInt g2 = fsqr(gamma);
  const UInt g8 = fadd(fadd(fadd(g2, g2), fadd(g2, g2)),
                       fadd(fadd(g2, g2), fadd(g2, g2)));
  const UInt y3 = fsub(fmul(alpha, fsub(beta4, x3)), g8);
  p = {x3, y3, z3};
}

void PrimeCurveOps::jac_add_mixed(JacobianPoint& p, const AffinePointP& q) {
  if (q.inf) return;
  if (p.is_inf()) {
    p = to_jacobian(q);
    return;
  }
  // 8M + 3S mixed addition.
  const UInt z1z1 = fsqr(p.Z);
  const UInt u2 = fmul(q.x, z1z1);
  const UInt s2 = fmul(q.y, fmul(p.Z, z1z1));
  const UInt h = fsub(u2, p.X);
  const UInt r = fsub(s2, p.Y);
  if (h.is_zero()) {
    if (r.is_zero()) {
      jac_double(p);
    } else {
      p = JacobianPoint::infinity();
    }
    return;
  }
  const UInt hh = fsqr(h);
  const UInt hhh = fmul(h, hh);
  const UInt v = fmul(p.X, hh);
  UInt x3 = fsub(fsub(fsqr(r), hhh), fadd(v, v));
  const UInt y3 = fsub(fmul(r, fsub(v, x3)), fmul(p.Y, hhh));
  const UInt z3 = fmul(p.Z, h);
  p = {x3, y3, z3};
}

AffinePointP mul_naive_p(PrimeCurveOps& ops, const AffinePointP& p,
                         const UInt& k) {
  AffinePointP acc = AffinePointP::infinity();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = ops.dbl(acc);
    if (k.bit(i)) acc = ops.add(acc, p);
  }
  return acc;
}

AffinePointP mul_wnaf_p(PrimeCurveOps& ops, const AffinePointP& p,
                        const UInt& k, unsigned w, bool* collapsed) {
  std::vector<int> digits;
  mpint::SInt s{k, false};
  while (!s.is_zero()) {
    int u = 0;
    if (s.is_odd()) {
      u = static_cast<int>(s.mods_pow2(w));
      s = s - mpint::SInt{u};
    }
    digits.push_back(u);
    s = s.half();
  }
  std::vector<AffinePointP> odd{p};
  const AffinePointP p2 = ops.dbl(p);
  for (unsigned i = 1; i < (1u << (w - 2)); ++i) {
    odd.push_back(ops.add(odd.back(), p2));
  }
  JacobianPoint q = JacobianPoint::infinity();
  // The identity-collapse invariant of the binary wTNAF (scalarmul.cpp):
  // every partial sum is a nonzero multiple of P below its order, so an
  // accumulator that has left infinity never meets it again until a
  // final step (n*P legitimately ends there). Checked as each step
  // starts; a collapse that is never rebuilt ends at infinity itself.
  bool left_inf = false;
  const auto watch = [&] {
    if (!q.is_inf()) {
      left_inf = true;
    } else if (left_inf && collapsed != nullptr) {
      *collapsed = true;
    }
  };
  for (std::size_t i = digits.size(); i-- > 0;) {
    watch();
    ops.jac_double(q);
    const int u = digits[i];
    if (u != 0) {
      const AffinePointP& pu = odd[static_cast<std::size_t>(std::abs(u)) / 2];
      watch();
      ops.jac_add_mixed(q, u > 0 ? pu : ops.neg(pu));
    }
  }
  return ops.to_affine(q);
}

}  // namespace eccm0::ecp
