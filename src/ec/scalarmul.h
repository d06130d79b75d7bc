// Scalar multiplication algorithms.
//
// The paper's production path is wTNAF (w = 4 for random points kP, w = 6
// for the fixed point kG) with mixed LD-affine additions and Frobenius in
// place of doubling. The reference double-and-add, generic wNAF (for
// non-Koblitz curves) and the Montgomery-Lopez-Dahab ladder (the paper's
// future-work item, section 5) are provided alongside.
#pragma once

#include <span>
#include <vector>

#include "ec/ops.h"
#include "ec/tnaf.h"
#include "mpint/uint.h"

namespace eccm0::ec {

/// Reference oracle: affine double-and-add, bit by bit.
AffinePoint mul_naive(CurveOps& ops, const AffinePoint& p,
                      const mpint::UInt& k);

/// Precomputed window-TNAF table: points[i] = alpha_{2i+1} * P (affine).
struct WtnafTable {
  unsigned w = 0;
  std::vector<AffinePoint> points;
};

/// Build the table for width w (2^(w-2) points). Runtime cost is the
/// paper's "TNAF Precomputation" row; for the fixed base point it is done
/// once offline.
///
/// `collapsed`, when non-null, is set if an accumulator ever returned to
/// the identity after leaving it. Honest evaluations never do this (every
/// partial tau-adic sum is a nonzero multiple of P); a corrupted field
/// operation that zeroes a Z coordinate does — and the loop would then
/// silently restart from the identity and rebuild a *valid but wrong*
/// point no end-of-run check can refuse. The flag is the detection seam
/// `scalarmul_protected` uses against that fault class.
WtnafTable make_wtnaf_table(CurveOps& ops, const AffinePoint& p, unsigned w,
                            bool* collapsed = nullptr);

/// Window-TNAF multiplication with an existing table (paper Alg 3.70
/// shape: Horner over Frobenius, mixed LD-affine additions).
AffinePoint mul_wtnaf(CurveOps& ops, const WtnafTable& table,
                      const mpint::UInt& k);

/// Same Horner loop, but returns the running point still in Lopez-Dahab
/// coordinates — the seam `scalarmul_protected` uses to verify the
/// result on-curve before the inversion-bearing affine conversion.
/// `collapsed` as in make_wtnaf_table.
LDPoint mul_wtnaf_ld(CurveOps& ops, const WtnafTable& table,
                     const mpint::UInt& k, bool* collapsed = nullptr);
/// The same loop from k's digits, wtnaf_digits(partmod(k, curve), mu,
/// table.w), for callers that multiply by one k many times. The loop
/// starts from `start` (the identity for a whole kP). Steps run from the
/// last digit down, so a caller that reached accumulator q after the
/// digits above position i resumes with digits.first(i + 1) and q, and
/// gets what the whole loop would have returned.
LDPoint mul_wtnaf_ld(CurveOps& ops, const WtnafTable& table,
                     std::span<const int> digits, bool* collapsed = nullptr,
                     const LDPoint& start = LDPoint::infinity());

/// Convenience: table build + multiply (the paper's random-point kP path).
AffinePoint mul_wtnaf(CurveOps& ops, const AffinePoint& p,
                      const mpint::UInt& k, unsigned w);

/// Generic width-w NAF double-and-add for any binary curve (the
/// doubling-based fallback a non-Koblitz curve is stuck with).
AffinePoint mul_wnaf(CurveOps& ops, const AffinePoint& p,
                     const mpint::UInt& k, unsigned w);

/// Montgomery-Lopez-Dahab ladder, x-coordinate only, uniform operation
/// sequence per bit (paper section 5's constant-time candidate).
AffinePoint mul_ladder(CurveOps& ops, const AffinePoint& p,
                       const mpint::UInt& k);

/// Same ladder with the per-iteration seam the leakage verifier uses:
/// `per_step` receives the CurveOps field-op delta of every ladder
/// iteration (one entry per processed bit, most significant first). A
/// uniform ladder yields identical entries for every bit of every
/// scalar; sca::check_ladder_op_mix asserts exactly that.
AffinePoint mul_ladder(CurveOps& ops, const AffinePoint& p,
                       const mpint::UInt& k,
                       std::vector<FieldOpCounts>* per_step);

/// Apply a small Z[tau] element: r = (a0 + a1*tau) * P. Used to build
/// wTNAF tables; |a0|, |a1| are tiny (a few bits).
AffinePoint ztau_apply(CurveOps& ops, const ZTau& z, const AffinePoint& p);

/// Convert a batch of projective points to affine with one field
/// inversion (Montgomery's simultaneous-inversion trick) — how the wTNAF
/// table is normalised without paying an inversion per point.
std::vector<AffinePoint> batch_to_affine(CurveOps& ops,
                                         std::span<const LDPoint> pts);

}  // namespace eccm0::ec
