// The fault campaigns splice a faulted product into "multiplication i" of
// a kP, numbered by the CurveOps / PrimeCurveOps tamper hook. That
// numbering must be a property of the source, not of the compiler: C++
// leaves the order of sibling function arguments unspecified, so two
// counted multiplies passed side by side could swap indices under
// another compiler or flag set. These digests pin the (index, a, b)
// stream of one seed's golden kP (plus the checks a campaign run makes
// after it) to the values recorded when the campaign baselines were
// drawn.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "common/rng.h"
#include "ec/curve.h"
#include "ec/scalarmul.h"
#include "ecp/curve.h"
#include "ecp/ops.h"
#include "mpint/uint.h"

namespace eccm0 {
namespace {

using mpint::UInt;

constexpr std::uint64_t kSeed = 7;

/// FNV-1a over 32-bit words.
struct Digest {
  std::uint64_t h = 0xCBF29CE484222325ull;
  std::uint64_t count = 0;
  void word(std::uint32_t w) {
    for (int i = 0; i < 4; ++i) {
      h ^= (w >> (8 * i)) & 0xFFu;
      h *= 0x100000001B3ull;
    }
  }
  void record(std::uint64_t index, std::span<const std::uint32_t> a,
              std::span<const std::uint32_t> b) {
    ++count;
    word(static_cast<std::uint32_t>(index));
    word(static_cast<std::uint32_t>(index >> 32));
    for (std::uint32_t w : a) word(w);
    for (std::uint32_t w : b) word(w);
  }
};

UInt nonzero_below(Rng& rng, const UInt& order) {
  UInt v;
  do {
    v = UInt::random_below(rng, order);
  } while (v.is_zero());
  return v;
}

TEST(TamperOrder, BinaryGoldenKpStreamIsPinned) {
  const ec::BinaryCurve& c = ec::BinaryCurve::sect233k1();
  Rng rng(kSeed);
  ec::CurveOps setup(c);
  const ec::AffinePoint p =
      ec::mul_wtnaf(setup, ec::AffinePoint::make(c.gx, c.gy),
                    nonzero_below(rng, c.order), 4);
  const UInt k = nonzero_below(rng, c.order);

  Digest kp, checks;
  Digest* sink = &kp;
  ec::CurveOps ops(c);
  ops.set_mul_tamper([&](std::uint64_t i, const gf2::Elem& a,
                         const gf2::Elem& b, gf2::Elem&) {
    sink->record(i, {a.data(), c.f().words()}, {b.data(), c.f().words()});
  });
  // The golden kP: table build (batch_to_affine included) + Horner loop.
  const ec::WtnafTable t = ec::make_wtnaf_table(ops, p, 4);
  const ec::LDPoint q = ec::mul_wtnaf_ld(ops, t, k);
  // What a campaign run computes after it, and the ladder.
  sink = &checks;
  EXPECT_TRUE(ops.on_curve_ld(q));
  const ec::AffinePoint qa = ops.to_affine(q);
  EXPECT_TRUE(ec::mul_wnaf(ops, qa, c.order, 4).inf);
  EXPECT_TRUE(ec::mul_ladder(ops, p, k) == qa);

  EXPECT_EQ(kp.count, 417u);
  EXPECT_EQ(kp.h, 5925788665497616818ull);
  EXPECT_EQ(checks.h, 6526591251806445476ull);
}

TEST(TamperOrder, PrimeGoldenKpStreamIsPinned) {
  const ecp::PrimeCurve& c = ecp::PrimeCurve::secp192r1();
  Rng rng(kSeed);
  ecp::PrimeCurveOps setup(c);
  const ecp::AffinePointP p = ecp::mul_wnaf_p(
      setup, setup.generator(), nonzero_below(rng, c.order), 4);
  const UInt k = nonzero_below(rng, c.order);

  const std::size_t n = c.limbs();
  Digest kp, checks;
  Digest* sink = &kp;
  ecp::PrimeCurveOps ops(c);
  ops.set_mul_tamper(
      [&](std::uint64_t i, const ecp::Fe& a, const ecp::Fe& b, ecp::Fe&) {
        sink->record(i, {a.data(), n}, {b.data(), n});
      });
  const ecp::AffinePointP q = ecp::mul_wnaf_p(ops, p, k, 4);
  sink = &checks;
  EXPECT_TRUE(ops.on_curve(q));
  EXPECT_TRUE(ecp::mul_wnaf_p(ops, q, c.order, 4).inf);

  EXPECT_EQ(kp.count, 860u);
  EXPECT_EQ(kp.h, 11909187999281757219ull);
  EXPECT_EQ(checks.h, 526942978188206525ull);
}

}  // namespace
}  // namespace eccm0
