#include "ec/ops.h"

namespace eccm0::ec {

using gf2::Elem;
using gf2::GF2Field;

bool CurveOps::on_curve(const AffinePoint& p) {
  if (p.inf) return true;
  // y^2 + xy = x^3 + a x^2 + b
  const Elem y2 = fsqr(p.y);
  const Elem xy = fmul(p.x, p.y);
  const Elem x2 = fsqr(p.x);
  const Elem x3 = fmul(x2, p.x);
  const Elem lhs = fadd(y2, xy);
  Elem rhs = fadd(x3, c_.b);
  if (!GF2Field::is_zero(c_.a)) rhs = fadd(rhs, fmul(c_.a, x2));
  return lhs == rhs;
}

bool CurveOps::on_curve_ld(const LDPoint& p) {
  if (p.is_inf()) return true;
  // Y^2 + XYZ = X^3 Z + a X^2 Z^2 + b Z^4 (affine equation cleared of
  // denominators by Z^4).
  const Elem z2 = fsqr(p.Z);
  const Elem x2 = fsqr(p.X);
  const Elem lhs = fadd(fsqr(p.Y), fmul(fmul(p.X, p.Y), p.Z));
  // Sibling counted multiplies are sequenced by hand (here and below):
  // argument order is unspecified, and the tamper hook's numbering
  // must not depend on the compiler.
  const Elem bz4 = fmul(c_.b, fsqr(z2));
  Elem rhs = fadd(fmul(fmul(x2, p.X), p.Z), bz4);
  if (!GF2Field::is_zero(c_.a)) rhs = fadd(rhs, fmul(c_.a, fmul(x2, z2)));
  return lhs == rhs;
}

AffinePoint CurveOps::neg(const AffinePoint& p) {
  if (p.inf) return p;
  return AffinePoint::make(p.x, fadd(p.x, p.y));
}

AffinePoint CurveOps::dbl(const AffinePoint& p) {
  if (p.inf || GF2Field::is_zero(p.x)) return AffinePoint::infinity();
  // lambda = x + y/x; x3 = l^2 + l + a; y3 = x^2 + (l + 1) x3.
  const Elem l = fadd(p.x, fmul(p.y, finv(p.x)));
  Elem x3 = fadd(fadd(fsqr(l), l), c_.a);
  const Elem y3 =
      fadd(fsqr(p.x), fmul(fadd(l, f().one()), x3));
  return AffinePoint::make(x3, y3);
}

AffinePoint CurveOps::add(const AffinePoint& p, const AffinePoint& q) {
  if (p.inf) return q;
  if (q.inf) return p;
  if (p.x == q.x) {
    // Same x: either Q = -P (y2 = x1 + y1) or Q = P.
    if (q.y == fadd(p.x, p.y)) return AffinePoint::infinity();
    return dbl(p);
  }
  const Elem num = fadd(p.y, q.y);
  const Elem den = fadd(p.x, q.x);
  const Elem l = fmul(num, finv(den));
  Elem x3 = fadd(fadd(fsqr(l), l), fadd(den, c_.a));
  const Elem y3 = fadd(fadd(fmul(l, fadd(p.x, x3)), x3), p.y);
  return AffinePoint::make(x3, y3);
}

LDPoint CurveOps::to_ld(const AffinePoint& p) {
  if (p.inf) return LDPoint::infinity();
  return LDPoint{p.x, p.y, f().one()};
}

AffinePoint CurveOps::to_affine(const LDPoint& p) {
  if (p.is_inf()) return AffinePoint::infinity();
  const Elem zi = finv(p.Z);
  const Elem x = fmul(p.X, zi);
  const Elem y = fmul(p.Y, fsqr(zi));
  return AffinePoint::make(x, y);
}

void CurveOps::ld_double(LDPoint& p) {
  if (p.is_inf()) return;
  if (GF2Field::is_zero(p.X)) {
    // x = 0 is the self-inverse point: 2P = infinity.
    p = LDPoint::infinity();
    return;
  }
  // Hankerson Alg 3.24.
  const Elem t1 = fsqr(p.Z);     // Z1^2
  const Elem t2 = fsqr(p.X);     // X1^2
  const Elem z3 = fmul(t1, t2);
  Elem t3 = fsqr(t1);            // Z1^4
  if (!(c_.b == f().one())) t3 = fmul(t3, c_.b);  // b Z1^4
  const Elem x3 = fadd(fsqr(t2), t3);
  Elem inner = fadd(fsqr(p.Y), t3);
  if (c_.a == f().one()) {
    inner = fadd(inner, z3);
  } else if (!GF2Field::is_zero(c_.a)) {
    inner = fadd(inner, fmul(c_.a, z3));
  }
  const Elem x3_inner = fmul(x3, inner);
  const Elem y3 = fadd(fmul(t3, z3), x3_inner);
  p = LDPoint{x3, y3, z3};
}

void CurveOps::ld_add_mixed(LDPoint& p, const AffinePoint& q) {
  if (q.inf) return;
  if (p.is_inf()) {
    p = to_ld(q);
    return;
  }
  // Hankerson Alg 3.25.
  const Elem z1sq = fsqr(p.Z);
  const Elem a_ = fadd(fmul(q.y, z1sq), p.Y);      // A
  const Elem b_ = fadd(fmul(q.x, p.Z), p.X);       // B
  if (GF2Field::is_zero(b_)) {
    if (GF2Field::is_zero(a_)) {
      ld_double(p);
    } else {
      p = LDPoint::infinity();
    }
    return;
  }
  const Elem c = fmul(p.Z, b_);                    // C
  Elem d_in = c;
  if (c_.a == f().one()) {
    d_in = fadd(d_in, z1sq);
  } else if (!GF2Field::is_zero(c_.a)) {
    d_in = fadd(d_in, fmul(c_.a, z1sq));
  }
  const Elem d = fmul(fsqr(b_), d_in);             // D
  const Elem z3 = fsqr(c);                         // Z3
  const Elem e = fmul(a_, c);                      // E
  const Elem x3 = fadd(fadd(fsqr(a_), d), e);      // X3
  const Elem f_ = fadd(x3, fmul(q.x, z3));         // F
  const Elem g = fmul(fadd(q.x, q.y), fsqr(z3));   // G
  const Elem y3 = fadd(fmul(fadd(e, z3), f_), g);  // Y3
  p = LDPoint{x3, y3, z3};
}

AffinePoint CurveOps::frob(const AffinePoint& p) {
  if (p.inf) return p;
  return AffinePoint::make(fsqr(p.x), fsqr(p.y));
}

void CurveOps::frob_inplace(LDPoint& p) {
  if (p.is_inf()) return;
  p.X = fsqr(p.X);
  p.Y = fsqr(p.Y);
  p.Z = fsqr(p.Z);
}

}  // namespace eccm0::ec
