#include "ec/scalarmul.h"

#include <stdexcept>

namespace eccm0::ec {

using gf2::Elem;
using gf2::GF2Field;
using mpint::SInt;
using mpint::UInt;

AffinePoint mul_naive(CurveOps& ops, const AffinePoint& p, const UInt& k) {
  AffinePoint acc = AffinePoint::infinity();
  for (std::size_t i = k.bit_length(); i-- > 0;) {
    acc = ops.dbl(acc);
    if (k.bit(i)) acc = ops.add(acc, p);
  }
  return acc;
}

AffinePoint ztau_apply(CurveOps& ops, const ZTau& z, const AffinePoint& p) {
  // (a0 + a1 tau) P = a0*P + a1*tau(P) with tiny |a0|, |a1|.
  auto small_mul = [&ops](const SInt& s, const AffinePoint& q) {
    const std::int64_t v = s.to_i64();
    const std::uint64_t a = static_cast<std::uint64_t>(v < 0 ? -v : v);
    AffinePoint acc = AffinePoint::infinity();
    for (int i = 63; i >= 0; --i) {
      acc = ops.dbl(acc);
      if ((a >> i) & 1u) acc = ops.add(acc, q);
    }
    return v < 0 ? ops.neg(acc) : acc;
  };
  const AffinePoint t0 = small_mul(z.a0, p);
  const AffinePoint t1 = small_mul(z.a1, ops.frob(p));
  return ops.add(t0, t1);
}

std::vector<AffinePoint> batch_to_affine(CurveOps& ops,
                                         std::span<const LDPoint> pts) {
  // Montgomery's trick: prefix-multiply the Z coordinates, invert the
  // total once, then walk back unwinding individual inverses.
  std::vector<AffinePoint> out(pts.size());
  std::vector<std::size_t> live;
  std::vector<gf2::Elem> prefix;  // prefix[i] = Z_{live[0]} * ... * Z_{live[i]}
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].is_inf()) continue;
    const gf2::Elem p = prefix.empty()
                            ? pts[i].Z
                            : ops.fmul(prefix.back(), pts[i].Z);
    prefix.push_back(p);
    live.push_back(i);
  }
  if (live.empty()) return out;
  gf2::Elem acc = ops.finv(prefix.back());
  for (std::size_t k = live.size(); k-- > 0;) {
    const std::size_t i = live[k];
    const gf2::Elem zi =
        k == 0 ? acc : ops.fmul(acc, prefix[k - 1]);  // 1/Z_i
    acc = k == 0 ? acc : ops.fmul(acc, pts[i].Z);     // strip Z_i
    // y before x: the tamper hook's numbering of the two (see
    // CurveOps::on_curve_ld).
    const gf2::Elem y = ops.fmul(pts[i].Y, ops.fsqr(zi));
    const gf2::Elem x = ops.fmul(pts[i].X, zi);
    out[i] = AffinePoint::make(x, y);
  }
  return out;
}

namespace {

/// Mixed add plus the identity-collapse invariant: once an accumulator
/// has left the identity, an honest run can never bring it back (every
/// partial sum is a nonzero multiple of the base point).
void add_mixed_watched(CurveOps& ops, LDPoint& q, const AffinePoint& p,
                       bool* collapsed) {
  const bool was_inf = q.is_inf();
  ops.ld_add_mixed(q, p);
  if (collapsed != nullptr && !was_inf && q.is_inf()) *collapsed = true;
}

}  // namespace

WtnafTable make_wtnaf_table(CurveOps& ops, const AffinePoint& p, unsigned w,
                            bool* collapsed) {
  const auto& curve = ops.curve();
  if (!curve.koblitz) {
    throw std::invalid_argument("make_wtnaf_table: curve is not Koblitz");
  }
  WtnafTable t;
  t.w = w;
  if (p.inf) {
    t.points.assign(std::size_t{1} << (w - 2), AffinePoint::infinity());
    return t;
  }
  // alpha_u * P evaluated through the *tau-adic expansion of alpha_u*
  // itself: each alpha has tiny norm, so its width-2 TNAF is a handful of
  // +-1 digits — a few Frobenius maps and mixed additions of +-P, all in
  // projective coordinates. One simultaneous inversion normalises the
  // whole table (the paper's "TNAF Precomputation" stays around a single
  // inversion's cost).
  const AffinePoint neg_p = ops.neg(p);
  std::vector<LDPoint> proj;
  for (const std::vector<int>& digits : alpha_digits(curve.mu, w)) {
    LDPoint q = LDPoint::infinity();
    for (std::size_t i = digits.size(); i-- > 0;) {
      ops.frob_inplace(q);
      if (digits[i] > 0) {
        add_mixed_watched(ops, q, p, collapsed);
      } else if (digits[i] < 0) {
        add_mixed_watched(ops, q, neg_p, collapsed);
      }
    }
    proj.push_back(q);
  }
  t.points = batch_to_affine(ops, proj);
  return t;
}

LDPoint mul_wtnaf_ld(CurveOps& ops, const WtnafTable& table, const UInt& k,
                     bool* collapsed) {
  const auto& curve = ops.curve();
  if (k.is_zero()) return LDPoint::infinity();
  return mul_wtnaf_ld(ops, table,
                      wtnaf_digits(partmod(k, curve), curve.mu, table.w),
                      collapsed);
}

LDPoint mul_wtnaf_ld(CurveOps& ops, const WtnafTable& table,
                     std::span<const int> digits, bool* collapsed,
                     const LDPoint& start) {
  LDPoint q = start;
  for (std::size_t i = digits.size(); i-- > 0;) {
    ops.frob_inplace(q);
    const int u = digits[i];
    if (u != 0) {
      const AffinePoint& pu =
          table.points[static_cast<std::size_t>(u > 0 ? u : -u) / 2];
      add_mixed_watched(ops, q, u > 0 ? pu : ops.neg(pu), collapsed);
    }
  }
  return q;
}

AffinePoint mul_wtnaf(CurveOps& ops, const WtnafTable& table, const UInt& k) {
  return ops.to_affine(mul_wtnaf_ld(ops, table, k));
}

AffinePoint mul_wtnaf(CurveOps& ops, const AffinePoint& p, const UInt& k,
                      unsigned w) {
  const WtnafTable table = make_wtnaf_table(ops, p, w);
  return mul_wtnaf(ops, table, k);
}

AffinePoint mul_wnaf(CurveOps& ops, const AffinePoint& p, const UInt& k,
                     unsigned w) {
  const std::vector<int> digits = mpint::wnaf_digits(k, w);
  // Precompute odd multiples 1P, 3P, ..., (2^(w-1)-1)P.
  std::vector<AffinePoint> odd;
  odd.push_back(p);
  const AffinePoint p2 = ops.dbl(p);
  for (unsigned i = 1; i < (1u << (w - 2)); ++i) {
    odd.push_back(ops.add(odd.back(), p2));
  }
  LDPoint q = LDPoint::infinity();
  for (std::size_t i = digits.size(); i-- > 0;) {
    ops.ld_double(q);
    const int u = digits[i];
    if (u != 0) {
      const AffinePoint& pu = odd[static_cast<std::size_t>(u > 0 ? u : -u) / 2];
      ops.ld_add_mixed(q, u > 0 ? pu : ops.neg(pu));
    }
  }
  return ops.to_affine(q);
}

AffinePoint mul_ladder(CurveOps& ops, const AffinePoint& p, const UInt& k) {
  return mul_ladder(ops, p, k, nullptr);
}

AffinePoint mul_ladder(CurveOps& ops, const AffinePoint& p, const UInt& k,
                       std::vector<FieldOpCounts>* per_step) {
  if (p.inf || k.is_zero()) return AffinePoint::infinity();
  if (k == UInt{1}) return p;
  const auto& f = ops.f();
  const Elem& b = ops.curve().b;
  // Hankerson Alg 3.40: x-only ladder. R1 tracks jP, R2 tracks (j+1)P.
  Elem x1 = p.x;
  Elem z1 = f.one();
  Elem x2 = ops.fadd(ops.fsqr(ops.fsqr(p.x)), b);  // x^4 + b
  Elem z2 = ops.fsqr(p.x);
  auto madd = [&](Elem& xa, Elem& za, const Elem& xb, const Elem& zb) {
    // (xa, za) <- add of the two ladder points (difference has x = p.x).
    const Elem t1 = ops.fmul(xa, zb);
    const Elem t2 = ops.fmul(xb, za);
    const Elem t3 = ops.fadd(t1, t2);
    za = ops.fsqr(t3);
    const Elem t12 = ops.fmul(t1, t2);
    xa = ops.fadd(ops.fmul(p.x, za), t12);
  };
  auto mdouble = [&](Elem& x, Elem& z) {
    const Elem xx = ops.fsqr(x);
    const Elem zz = ops.fsqr(z);
    x = ops.fadd(ops.fsqr(xx), ops.fmul(b, ops.fsqr(zz)));
    z = ops.fmul(xx, zz);
  };
  for (std::size_t i = k.bit_length() - 1; i-- > 0;) {
    const FieldOpCounts before = ops.counts();
    if (k.bit(i)) {
      madd(x1, z1, x2, z2);
      mdouble(x2, z2);
    } else {
      madd(x2, z2, x1, z1);
      mdouble(x1, z1);
    }
    if (per_step != nullptr) per_step->push_back(ops.counts() - before);
  }
  if (GF2Field::is_zero(z1)) return AffinePoint::infinity();
  if (GF2Field::is_zero(z2)) return ops.neg(p);  // kP = -P when (k+1)P = inf
  // y-recovery (Alg 3.41).
  const Elem xa = ops.fmul(x1, ops.finv(z1));
  const Elem xb = ops.fmul(x2, ops.finv(z2));
  const Elem t1 = ops.fadd(xa, p.x);
  const Elem t2 = ops.fadd(xb, p.x);
  Elem y = ops.fmul(t1, t2);
  y = ops.fadd(y, ops.fsqr(p.x));
  y = ops.fadd(y, p.y);
  y = ops.fmul(y, t1);
  y = ops.fmul(y, ops.finv(p.x));
  y = ops.fadd(y, p.y);
  return AffinePoint::make(xa, y);
}

}  // namespace eccm0::ec
