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
  return {c_.mont->load(p.x), c_.mont->load(p.y), one_};
}

AffinePointP PrimeCurveOps::to_affine(const JacobianPoint& p) {
  if (p.is_inf()) return AffinePointP::infinity();
  const Fe zi = finv(p.Z);
  const Fe zi2 = fsqr(zi);
  const Fe x = fmul(p.X, zi2);
  const Fe zi3 = fmul(zi2, zi);
  const Fe y = fmul(p.Y, zi3);
  return {c_.mont->store(x), c_.mont->store(y), false};
}

void PrimeCurveOps::jac_double(JacobianPoint& p) {
  if (p.is_inf()) return;
  if (mpint::is_zero(p.Y)) {
    p = JacobianPoint::infinity();
    return;
  }
  // dbl-2001-b with a = -3: 3M + 5S.
  const Fe delta = fsqr(p.Z);
  const Fe gamma = fsqr(p.Y);
  const Fe beta = fmul(p.X, gamma);
  const Fe t = fmul(fsub(p.X, delta), fadd(p.X, delta));
  const Fe alpha = fadd(fadd(t, t), t);
  const Fe beta4 = fadd(fadd(beta, beta), fadd(beta, beta));
  const Fe beta8 = fadd(beta4, beta4);
  const Fe x3 = fsub(fsqr(alpha), beta8);
  Fe z3 = fsqr(fadd(p.Y, p.Z));
  z3 = fsub(fsub(z3, gamma), delta);
  const Fe g2 = fsqr(gamma);
  const Fe g8 = fadd(fadd(fadd(g2, g2), fadd(g2, g2)),
                     fadd(fadd(g2, g2), fadd(g2, g2)));
  const Fe y3 = fsub(fmul(alpha, fsub(beta4, x3)), g8);
  p = {x3, y3, z3};
}

void PrimeCurveOps::jac_add_mixed(JacobianPoint& p, const AffinePointP& q) {
  if (q.inf) return;
  if (p.is_inf()) {
    p = to_jacobian(q);
    return;
  }
  const Fe qx = c_.mont->load(q.x);
  const Fe qy = c_.mont->load(q.y);
  // 8M + 3S mixed addition.
  const Fe z1z1 = fsqr(p.Z);
  const Fe u2 = fmul(qx, z1z1);
  const Fe s2 = fmul(qy, fmul(p.Z, z1z1));
  const Fe h = fsub(u2, p.X);
  const Fe r = fsub(s2, p.Y);
  if (mpint::is_zero(h)) {
    if (mpint::is_zero(r)) {
      jac_double(p);
    } else {
      p = JacobianPoint::infinity();
    }
    return;
  }
  const Fe hh = fsqr(h);
  const Fe hhh = fmul(h, hh);
  const Fe v = fmul(p.X, hh);
  const Fe x3 = fsub(fsub(fsqr(r), hhh), fadd(v, v));
  // Sequenced by hand: argument order is unspecified, and the tamper
  // hook's numbering must not depend on the compiler.
  const Fe y1hhh = fmul(p.Y, hhh);
  const Fe y3 = fsub(fmul(r, fsub(v, x3)), y1hhh);
  const Fe z3 = fmul(p.Z, h);
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
  return mul_wnaf_p(ops, p, mpint::wnaf_digits(k, w), w, collapsed);
}

AffinePointP mul_wnaf_p(PrimeCurveOps& ops, const AffinePointP& p,
                        std::span<const int> digits, unsigned w,
                        bool* collapsed) {
  const WnafTableP table = make_wnaf_table_p(ops, p, w);
  return ops.to_affine(mul_wnaf_jac(ops, table, digits, collapsed));
}

WnafTableP make_wnaf_table_p(PrimeCurveOps& ops, const AffinePointP& p,
                             unsigned w) {
  WnafTableP t;
  t.odd.push_back(p);
  const AffinePointP p2 = ops.dbl(p);
  for (unsigned i = 1; i < (1u << (w - 2)); ++i) {
    t.odd.push_back(ops.add(t.odd.back(), p2));
  }
  for (const AffinePointP& o : t.odd) t.neg_odd.push_back(ops.neg(o));
  return t;
}

JacobianPoint mul_wnaf_jac(PrimeCurveOps& ops, const WnafTableP& table,
                           std::span<const int> digits, bool* collapsed,
                           const JacobianPoint& start) {
  JacobianPoint q = start;
  // The identity-collapse invariant of the binary wTNAF (scalarmul.cpp):
  // every partial sum is a nonzero multiple of P below its order, so an
  // accumulator that has left infinity never meets it again until a
  // final step (n*P legitimately ends there). Checked as each step
  // starts; a collapse that is never rebuilt ends at infinity itself.
  // A resumed loop re-derives `left_inf` at its first check.
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
      const std::size_t j = static_cast<std::size_t>(std::abs(u)) / 2;
      watch();
      ops.jac_add_mixed(q, u > 0 ? table.odd[j] : table.neg_odd[j]);
    }
  }
  return q;
}

}  // namespace eccm0::ecp
