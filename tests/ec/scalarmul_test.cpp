// Cross-algorithm scalar-multiplication consistency: every optimised path
// (wTNAF, wNAF, Montgomery ladder) must agree with the affine
// double-and-add oracle, across curves, window widths and edge scalars.
#include "ec/scalarmul.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace eccm0::ec {
namespace {

using mpint::UInt;

AffinePoint generator(const BinaryCurve& c) {
  return AffinePoint::make(c.gx, c.gy);
}

TEST(MulNaive, SmallMultiplesChain) {
  const auto& c = BinaryCurve::sect233k1();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  AffinePoint acc = AffinePoint::infinity();
  for (std::uint64_t k = 0; k <= 20; ++k) {
    EXPECT_EQ(mul_naive(ops, g, UInt{k}), acc) << "k=" << k;
    acc = ops.add(acc, g);
  }
}

class WtnafCurveTest : public ::testing::TestWithParam<const BinaryCurve*> {};

TEST_P(WtnafCurveTest, MatchesNaiveForRandomScalars) {
  const auto& c = *GetParam();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  Rng rng(1);
  for (unsigned w : {2u, 3u, 4u, 5u, 6u}) {
    const WtnafTable table = make_wtnaf_table(ops, g, w);
    for (int i = 0; i < 4; ++i) {
      const UInt k = UInt::random_below(rng, c.order);
      EXPECT_EQ(mul_wtnaf(ops, table, k), mul_naive(ops, g, k))
          << c.name << " w=" << w;
    }
  }
}

TEST_P(WtnafCurveTest, EdgeScalars) {
  const auto& c = *GetParam();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  const WtnafTable table = make_wtnaf_table(ops, g, 4);
  EXPECT_TRUE(mul_wtnaf(ops, table, UInt{0}).inf);
  EXPECT_EQ(mul_wtnaf(ops, table, UInt{1}), g);
  EXPECT_EQ(mul_wtnaf(ops, table, UInt{2}), ops.dbl(g));
  EXPECT_EQ(mul_wtnaf(ops, table, c.order - UInt{1}), ops.neg(g));
  EXPECT_TRUE(mul_wtnaf(ops, table, c.order).inf);
  EXPECT_EQ(mul_wtnaf(ops, table, c.order + UInt{1}), g);
}

TEST_P(WtnafCurveTest, DistributesOverScalarAddition)  {
  const auto& c = *GetParam();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  Rng rng(2);
  const UInt a = UInt::random_below(rng, c.order);
  const UInt b = UInt::random_below(rng, c.order);
  const AffinePoint lhs = mul_wtnaf(ops, g, (a + b) % c.order, 4);
  const AffinePoint rhs =
      ops.add(mul_wtnaf(ops, g, a, 4), mul_wtnaf(ops, g, b, 4));
  EXPECT_EQ(lhs, rhs);
}

void expect_same(const LDPoint& got, const LDPoint& want,
                 const std::string& where) {
  EXPECT_TRUE(got.X == want.X && got.Y == want.Y && got.Z == want.Z)
      << where;
}

// The resume seam the fault campaign uses: the digit loop split at any
// nonzero digit and resumed from the prefix's accumulator is the whole
// loop. The resumed loop's tamper hook sees, at local index j, the
// (a, b) the whole loop's hook sees at the prefix's count + j; and a
// zeroed product in the resumed part (which can collapse the
// accumulator) ends where the same fault in the whole loop ends,
// `collapsed` included.
TEST_P(WtnafCurveTest, ResumedDigitLoopEqualsWholeLoop) {
  const auto& c = *GetParam();
  Rng rng(5);
  CurveOps setup(c);
  const AffinePoint p =
      mul_wtnaf(setup, generator(c), UInt::random_below(rng, c.order), 4);
  const UInt k = UInt::random_below(rng, c.order);
  const std::vector<int> digits = wtnaf_digits(partmod(k, c), c.mu, 4);
  const std::span<const int> all(digits);
  const WtnafTable table = make_wtnaf_table(setup, p, 4);

  using Mul = std::pair<gf2::Elem, gf2::Elem>;
  std::vector<Mul> golden;
  CurveOps whole(c);
  whole.set_mul_tamper([&](std::uint64_t, const gf2::Elem& a,
                           const gf2::Elem& b, gf2::Elem&) {
    golden.emplace_back(a, b);
  });
  const LDPoint want = mul_wtnaf_ld(whole, table, all);
  const auto zero_mul = [](CurveOps& ops, std::uint64_t target) {
    ops.set_mul_tamper([target](std::uint64_t i, const gf2::Elem&,
                                const gf2::Elem&, gf2::Elem& r) {
      if (i == target) r = {};
    });
  };

  CurveOps prefix(c);
  LDPoint q = LDPoint::infinity();
  unsigned splits = 0;
  unsigned collapses = 0;
  for (std::size_t i = digits.size(); i-- > 0;) {
    if (digits[i] != 0) {
      const std::string where = c.name + " digit " + std::to_string(i);
      const std::uint64_t at = prefix.counts().mul;
      const std::span<const int> rest = all.first(i + 1);
      CurveOps resumed(c);
      std::uint64_t seen = 0;
      resumed.set_mul_tamper([&](std::uint64_t j, const gf2::Elem& a,
                                 const gf2::Elem& b, gf2::Elem&) {
        ++seen;
        ASSERT_LT(at + j, golden.size()) << where;
        EXPECT_TRUE(golden[at + j] == Mul(a, b)) << where << " mul " << j;
      });
      bool collapsed = false;
      expect_same(mul_wtnaf_ld(resumed, table, rest, &collapsed, q), want,
                  where);
      EXPECT_FALSE(collapsed) << where;
      EXPECT_EQ(at + seen, golden.size()) << where;

      // Mixed additions multiply 8 times; zeroing the third (C) zeroes
      // Z3, the collapse.
      const std::uint64_t j = splits++ % 8;
      CurveOps faulted_whole(c);
      CurveOps faulted_resumed(c);
      zero_mul(faulted_whole, at + j);
      zero_mul(faulted_resumed, j);
      bool whole_collapsed = false;
      bool resumed_collapsed = false;
      const LDPoint from_start =
          mul_wtnaf_ld(faulted_whole, table, all, &whole_collapsed);
      expect_same(mul_wtnaf_ld(faulted_resumed, table, rest,
                               &resumed_collapsed, q),
                  from_start, where + " zeroed mul " + std::to_string(j));
      EXPECT_EQ(resumed_collapsed, whole_collapsed) << where;
      if (whole_collapsed) ++collapses;
    }
    q = mul_wtnaf_ld(prefix, table, all.subspan(i, 1), nullptr, q);
  }
  expect_same(q, want, c.name + " digit by digit");
  EXPECT_GT(collapses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Koblitz, WtnafCurveTest,
                         ::testing::Values(&BinaryCurve::sect233k1(),
                                           &BinaryCurve::sect163k1()),
                         [](const auto& info) {
                           return std::string(info.param->name);
                         });

TEST(Wtnaf, RejectsNonKoblitzCurve) {
  const auto& c = BinaryCurve::sect233r1();
  CurveOps ops(c);
  EXPECT_THROW(make_wtnaf_table(ops, generator(c), 4), std::invalid_argument);
}

TEST(Wtnaf, DiffieHellmanConsistency) {
  // (a*b)G == a*(b*G) — the hybrid-cryptosystem use case from the intro.
  const auto& c = BinaryCurve::sect233k1();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  Rng rng(3);
  const UInt a = UInt::random_below(rng, c.order);
  const UInt b = UInt::random_below(rng, c.order);
  const AffinePoint bg = mul_wtnaf(ops, g, b, 4);
  const AffinePoint abg = mul_wtnaf(ops, bg, a, 4);
  const AffinePoint ab_g = mul_wtnaf(ops, g, mulmod(a, b, c.order), 6);
  EXPECT_EQ(abg, ab_g);
}

class WnafCurveTest : public ::testing::TestWithParam<const BinaryCurve*> {};

TEST_P(WnafCurveTest, MatchesNaive) {
  const auto& c = *GetParam();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  Rng rng(4);
  for (unsigned w : {2u, 3u, 4u, 5u}) {
    for (int i = 0; i < 3; ++i) {
      const UInt k = UInt::random_below(rng, c.order);
      EXPECT_EQ(mul_wnaf(ops, g, k, w), mul_naive(ops, g, k))
          << c.name << " w=" << w;
    }
  }
}

TEST_P(WnafCurveTest, EdgeScalars) {
  const auto& c = *GetParam();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  EXPECT_TRUE(mul_wnaf(ops, g, UInt{0}, 4).inf);
  EXPECT_EQ(mul_wnaf(ops, g, UInt{1}, 4), g);
  EXPECT_EQ(mul_wnaf(ops, g, c.order - UInt{1}, 4), ops.neg(g));
  EXPECT_TRUE(mul_wnaf(ops, g, c.order, 4).inf);
}

INSTANTIATE_TEST_SUITE_P(AllCurves, WnafCurveTest,
                         ::testing::Values(&BinaryCurve::sect233k1(),
                                           &BinaryCurve::sect163k1(),
                                           &BinaryCurve::sect233r1()),
                         [](const auto& info) {
                           return std::string(info.param->name);
                         });

class LadderCurveTest : public ::testing::TestWithParam<const BinaryCurve*> {};

TEST_P(LadderCurveTest, MatchesNaive) {
  const auto& c = *GetParam();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  Rng rng(5);
  for (int i = 0; i < 5; ++i) {
    const UInt k = UInt::random_below(rng, c.order);
    EXPECT_EQ(mul_ladder(ops, g, k), mul_naive(ops, g, k)) << c.name;
  }
}

TEST_P(LadderCurveTest, EdgeScalars) {
  const auto& c = *GetParam();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  EXPECT_TRUE(mul_ladder(ops, g, UInt{0}).inf);
  EXPECT_EQ(mul_ladder(ops, g, UInt{1}), g);
  EXPECT_EQ(mul_ladder(ops, g, UInt{2}), ops.dbl(g));
  EXPECT_EQ(mul_ladder(ops, g, UInt{3}), ops.add(ops.dbl(g), g));
  EXPECT_EQ(mul_ladder(ops, g, c.order - UInt{1}), ops.neg(g));
}

TEST_P(LadderCurveTest, UniformFieldOpCountPerBit) {
  // The ladder's selling point (paper section 5): identical operation
  // sequence whatever the key bits. Two same-length scalars must yield
  // identical field-op counts.
  const auto& c = *GetParam();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  const UInt k1 = (UInt::pow2(150) + UInt{0x5555});
  const UInt k2 = (UInt::pow2(150) + UInt{0x10001});
  ops.reset_counts();
  (void)mul_ladder(ops, g, k1);
  const FieldOpCounts c1 = ops.counts();
  ops.reset_counts();
  (void)mul_ladder(ops, g, k2);
  const FieldOpCounts c2 = ops.counts();
  EXPECT_EQ(c1, c2);
}

INSTANTIATE_TEST_SUITE_P(AllCurves, LadderCurveTest,
                         ::testing::Values(&BinaryCurve::sect233k1(),
                                           &BinaryCurve::sect163k1(),
                                           &BinaryCurve::sect233r1()),
                         [](const auto& info) {
                           return std::string(info.param->name);
                         });

TEST(ZtauApply, MatchesExpandedForm) {
  const auto& c = BinaryCurve::sect233k1();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  // (3 - 2 tau) G = 3G - 2 tau(G)
  const ZTau z{mpint::SInt{3}, mpint::SInt{-2}};
  const AffinePoint got = ztau_apply(ops, z, g);
  const AffinePoint tg = ops.frob(g);
  const AffinePoint want = ops.add(
      mul_naive(ops, g, UInt{3}),
      ops.neg(mul_naive(ops, tg, UInt{2})));
  EXPECT_EQ(got, want);
}

TEST(BatchToAffine, MatchesIndividualConversion) {
  const auto& c = BinaryCurve::sect233k1();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  Rng rng(6);
  std::vector<LDPoint> pts;
  std::vector<AffinePoint> want;
  for (int i = 0; i < 6; ++i) {
    LDPoint q = ops.to_ld(mul_naive(ops, g, UInt{1 + rng.next_below(500)}));
    ops.ld_double(q);  // non-trivial Z
    pts.push_back(q);
    want.push_back(ops.to_affine(q));
  }
  // Sprinkle in points at infinity.
  pts.insert(pts.begin() + 2, LDPoint::infinity());
  want.insert(want.begin() + 2, AffinePoint::infinity());
  pts.push_back(LDPoint::infinity());
  want.push_back(AffinePoint::infinity());
  const auto got = batch_to_affine(ops, pts);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << i;
  }
}

TEST(BatchToAffine, UsesExactlyOneInversion) {
  const auto& c = BinaryCurve::sect233k1();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  std::vector<LDPoint> pts;
  for (int i = 0; i < 8; ++i) {
    LDPoint q = ops.to_ld(g);
    for (int d = 0; d <= i; ++d) ops.ld_double(q);
    pts.push_back(q);
  }
  ops.reset_counts();
  (void)batch_to_affine(ops, pts);
  EXPECT_EQ(ops.counts().inv, 1u);
}

TEST(BatchToAffine, EmptyAndAllInfinity) {
  const auto& c = BinaryCurve::sect233k1();
  CurveOps ops(c);
  EXPECT_TRUE(batch_to_affine(ops, std::vector<LDPoint>{}).empty());
  ops.reset_counts();
  const auto got =
      batch_to_affine(ops, std::vector<LDPoint>(3, LDPoint::infinity()));
  ASSERT_EQ(got.size(), 3u);
  for (const auto& p : got) EXPECT_TRUE(p.inf);
  EXPECT_EQ(ops.counts().inv, 0u);
}

TEST(WtnafTable, PointsMatchZtauApplyOracle) {
  const auto& c = BinaryCurve::sect233k1();
  CurveOps ops(c);
  const AffinePoint g = generator(c);
  for (unsigned w : {3u, 4u, 6u}) {
    const WtnafTable table = make_wtnaf_table(ops, g, w);
    const auto alphas = alpha_reps(c.mu, w);
    ASSERT_EQ(table.points.size(), alphas.size());
    for (std::size_t i = 0; i < alphas.size(); ++i) {
      EXPECT_EQ(table.points[i], ztau_apply(ops, alphas[i], g))
          << "w=" << w << " i=" << i;
    }
  }
}

TEST(WtnafTable, InfinityBaseGivesInfinityTable)  {
  const auto& c = BinaryCurve::sect233k1();
  CurveOps ops(c);
  const WtnafTable table =
      make_wtnaf_table(ops, AffinePoint::infinity(), 4);
  for (const auto& p : table.points) EXPECT_TRUE(p.inf);
}

}  // namespace
}  // namespace eccm0::ec
