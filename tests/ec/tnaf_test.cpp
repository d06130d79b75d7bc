// Tau-adic ring laws, Solinas rounding, partial reduction and window-TNAF
// digit expansion.
#include "ec/tnaf.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "ec/curve.h"

namespace eccm0::ec {
namespace {

using mpint::SInt;
using mpint::UInt;

ZTau random_ztau(Rng& rng, unsigned bits) {
  const UInt a = UInt::random_below(rng, UInt::pow2(bits));
  const UInt b = UInt::random_below(rng, UInt::pow2(bits));
  return {SInt{a, rng.next_below(2) == 0}, SInt{b, rng.next_below(2) == 0}};
}

class TauRingTest : public ::testing::TestWithParam<int> {
 protected:
  TauRingTest() : ring_(GetParam()) {}
  TauRing ring_;
};

TEST_P(TauRingTest, RingLaws) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const ZTau x = random_ztau(rng, 64);
    const ZTau y = random_ztau(rng, 64);
    const ZTau z = random_ztau(rng, 64);
    EXPECT_EQ(ring_.add(x, y), ring_.add(y, x));
    EXPECT_EQ(ring_.mul(x, y), ring_.mul(y, x));
    EXPECT_EQ(ring_.mul(ring_.mul(x, y), z), ring_.mul(x, ring_.mul(y, z)));
    EXPECT_EQ(ring_.mul(x, ring_.add(y, z)),
              ring_.add(ring_.mul(x, y), ring_.mul(x, z)));
    EXPECT_TRUE(ring_.sub(x, x).is_zero());
  }
}

TEST_P(TauRingTest, TauSatisfiesCharacteristicEquation) {
  // tau^2 - mu*tau + 2 = 0.
  const ZTau tau{SInt{0}, SInt{1}};
  const ZTau t2 = ring_.mul(tau, tau);
  const ZTau lhs =
      ring_.add(ring_.sub(t2, ring_.mul({SInt{GetParam()}, SInt{0}}, tau)),
                {SInt{2}, SInt{0}});
  EXPECT_TRUE(lhs.is_zero());
}

TEST_P(TauRingTest, NormIsMultiplicative) {
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    const ZTau x = random_ztau(rng, 48);
    const ZTau y = random_ztau(rng, 48);
    EXPECT_EQ(ring_.norm(ring_.mul(x, y)), ring_.norm(x) * ring_.norm(y));
  }
}

TEST_P(TauRingTest, NormMatchesConjProduct) {
  Rng rng(3);
  const ZTau x = random_ztau(rng, 48);
  const ZTau p = ring_.mul(x, ring_.conj(x));
  EXPECT_EQ(p.a0, ring_.norm(x));
  EXPECT_TRUE(p.a1.is_zero());
}

TEST_P(TauRingTest, TauPowMatchesRepeatedMul) {
  const ZTau tau{SInt{0}, SInt{1}};
  ZTau acc{SInt{1}, SInt{0}};
  for (unsigned i = 0; i <= 12; ++i) {
    EXPECT_EQ(ring_.tau_pow(i), acc) << "i=" << i;
    acc = ring_.mul(acc, tau);
  }
}

TEST_P(TauRingTest, DivTauRoundTrip) {
  Rng rng(4);
  const ZTau tau{SInt{0}, SInt{1}};
  for (int i = 0; i < 20; ++i) {
    const ZTau x = random_ztau(rng, 64);
    const ZTau xt = ring_.mul(x, tau);
    EXPECT_TRUE(ring_.divisible_by_tau(xt));
    EXPECT_EQ(ring_.div_tau(xt), x);
  }
}

TEST_P(TauRingTest, DivExactRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const ZTau x = random_ztau(rng, 64);
    ZTau d = random_ztau(rng, 32);
    if (d.is_zero()) d = {SInt{1}, SInt{1}};
    EXPECT_EQ(ring_.div_exact(ring_.mul(x, d), d), x);
  }
}

TEST_P(TauRingTest, DivExactThrowsOnNonDivisible) {
  // tau does not divide 1.
  const ZTau one{SInt{1}, SInt{0}};
  const ZTau tau{SInt{0}, SInt{1}};
  EXPECT_THROW(ring_.div_exact(one, tau), std::domain_error);
}

TEST_P(TauRingTest, DivRoundRemainderHasSmallNorm) {
  // For q = round(x/d): N(x - q*d) < N(d) (in fact <= 4/7 N(d) with true
  // Voronoi rounding; we assert the division property that makes TNAF
  // terminate).
  Rng rng(6);
  for (int i = 0; i < 40; ++i) {
    const ZTau x = random_ztau(rng, 96);
    ZTau d = random_ztau(rng, 40);
    if (d.is_zero()) d = {SInt{3}, SInt{1}};
    const ZTau q = ring_.div_round(x, d);
    const ZTau r = ring_.sub(x, ring_.mul(q, d));
    EXPECT_TRUE(ring_.norm(r) < ring_.norm(d))
        << "remainder norm not reduced, i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Mus, TauRingTest, ::testing::Values(-1, 1),
                         [](const auto& info) {
                           return info.param == -1 ? "MuMinus1" : "MuPlus1";
                         });

TEST(TnafDelta, NormEqualsGroupOrderK233) {
  const TauRing ring(-1);
  const ZTau d = tnaf_delta(-1, 233);
  EXPECT_EQ(ring.norm(d).abs(),
            UInt::from_hex(
                "8000000000000000000000000000069D5BB915BCD46EFB1AD5F173ABDF"));
}

TEST(TauMod2w, SatisfiesCharacteristicCongruence) {
  // t_w^2 + 2 = mu * t_w (mod 2^w).
  for (int mu : {-1, 1}) {
    for (unsigned w : {2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
      const std::int64_t t = tau_mod_2w(mu, w);
      const std::int64_t mod = 1ll << w;
      EXPECT_EQ(((t * t + 2 - mu * t) % mod + mod) % mod, 0)
          << "mu=" << mu << " w=" << w;
      EXPECT_EQ(t % 2, 0) << "t_w must be even";
    }
  }
}

TEST(TauMod2w, KnownValueW4MuMinus1) { EXPECT_EQ(tau_mod_2w(-1, 4), 10u); }

TEST(AlphaReps, CongruentToUModTauW) {
  for (int mu : {-1, 1}) {
    for (unsigned w : {3u, 4u, 5u, 6u}) {
      const TauRing ring(mu);
      const ZTau tw = ring.tau_pow(w);
      const auto reps = alpha_reps(mu, w);
      ASSERT_EQ(reps.size(), std::size_t{1} << (w - 2));
      for (std::size_t i = 0; i < reps.size(); ++i) {
        const std::int64_t u = 2 * static_cast<std::int64_t>(i) + 1;
        // (u - alpha_u) must be divisible by tau^w.
        const ZTau diff = ring.sub({SInt{u}, SInt{0}}, reps[i]);
        EXPECT_NO_THROW((void)ring.div_exact(diff, tw))
            << "mu=" << mu << " w=" << w << " u=" << u;
        // alpha_u should be small: N(alpha) < N(tau^w) = 2^w.
        EXPECT_TRUE(ring.norm(reps[i]) < ring.norm(tw));
      }
      // alpha_1 = 1 always.
      EXPECT_EQ(reps[0], (ZTau{SInt{1}, SInt{0}}));
    }
  }
}

class WtnafDigitTest
    : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(WtnafDigitTest, RoundTripAndDigitShape) {
  const auto [mu, w] = GetParam();
  Rng rng(100 + static_cast<unsigned>(mu) + w);
  for (int i = 0; i < 15; ++i) {
    const ZTau rho = random_ztau(rng, 60);
    const auto digits = wtnaf_digits(rho, mu, w);
    // Reconstruction.
    EXPECT_EQ(wtnaf_evaluate(digits, mu, w), rho);
    for (std::size_t j = 0; j < digits.size(); ++j) {
      const int u = digits[j];
      EXPECT_LT(std::abs(u), 1 << (w - 1));
      if (u != 0) {
        EXPECT_EQ(std::abs(u) % 2, 1) << "non-zero digits must be odd";
        // Window property: next w-1 digits are zero.
        for (std::size_t l = 1; l < w && j + l < digits.size(); ++l) {
          EXPECT_EQ(digits[j + l], 0) << "window violation at " << j;
        }
      }
    }
  }
}

TEST_P(WtnafDigitTest, ZeroHasEmptyDigits) {
  const auto [mu, w] = GetParam();
  EXPECT_TRUE(wtnaf_digits({SInt{0}, SInt{0}}, mu, w).empty());
}

INSTANTIATE_TEST_SUITE_P(
    MuW, WtnafDigitTest,
    ::testing::Combine(::testing::Values(-1, 1),
                       ::testing::Values(2u, 3u, 4u, 5u, 6u)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == -1 ? "MuM1" : "MuP1") +
             "W" + std::to_string(std::get<1>(info.param));
    });

TEST(WtnafDigits, NegativeAndMixedSignInputs) {
  // rho with negative coordinates (the partmod output's general case).
  for (int mu : {-1, 1}) {
    const TauRing ring(mu);
    for (auto [a0, a1] : {std::pair<int, int>{-12345, 678},
                          {9876, -54321},
                          {-1, -1},
                          {-(1 << 20), (1 << 19) + 3}}) {
      const ZTau rho{SInt{a0}, SInt{a1}};
      for (unsigned w : {2u, 4u, 5u}) {
        const auto digits = wtnaf_digits(rho, mu, w);
        EXPECT_EQ(wtnaf_evaluate(digits, mu, w), rho)
            << "mu=" << mu << " w=" << w << " a0=" << a0 << " a1=" << a1;
      }
    }
  }
}

TEST(AlphaReps, WideWindowsStayConsistent) {
  // w = 7 and 8 are beyond what the paper uses but must still satisfy the
  // congruence (the recoding loop supports them).
  for (int mu : {-1, 1}) {
    for (unsigned w : {7u, 8u}) {
      const TauRing ring(mu);
      const ZTau tw = ring.tau_pow(w);
      const auto reps = alpha_reps(mu, w);
      ASSERT_EQ(reps.size(), std::size_t{1} << (w - 2));
      for (std::size_t i = 0; i < reps.size(); i += 7) {
        const std::int64_t u = 2 * static_cast<std::int64_t>(i) + 1;
        const ZTau diff = ring.sub({SInt{u}, SInt{0}}, reps[i]);
        EXPECT_NO_THROW((void)ring.div_exact(diff, tw));
      }
    }
  }
}

TEST(Partmod, ResultIsCongruentAndShort) {
  const auto& curve = BinaryCurve::sect233k1();
  const TauRing ring(curve.mu);
  const ZTau delta = tnaf_delta(curve.mu, curve.f().m());
  Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const UInt k = UInt::random_below(rng, curve.order);
    const ZTau rho = partmod(k, curve);
    // rho = k (mod delta).
    const ZTau diff = ring.sub({SInt{k, false}, SInt{0}}, rho);
    EXPECT_NO_THROW((void)ring.div_exact(diff, delta));
    // rho is short: TNAF length about m, so components ~ 2^(m/2).
    EXPECT_LE(rho.a0.abs().bit_length(), 120u);
    EXPECT_LE(rho.a1.abs().bit_length(), 120u);
    // And the resulting digit string is not much longer than m.
    const auto digits = wtnaf_digits(rho, curve.mu, 4);
    EXPECT_LE(digits.size(), 240u);
  }
}

TEST(Partmod, CurveDeltaIsTnafDelta) {
  // Each Koblitz curve carries delta, computed once; it must be the
  // (tau^m - 1)/(tau - 1) a fresh computation gives, transcribed and
  // derived curves alike.
  for (const BinaryCurve* c :
       {&BinaryCurve::sect233k1(), &BinaryCurve::sect163k1(),
        &BinaryCurve::k409_derived()}) {
    EXPECT_EQ(c->delta, tnaf_delta(c->mu, c->f().m())) << c->name;
    EXPECT_EQ(TauRing(c->mu).norm(c->delta).abs(), c->order) << c->name;
  }
}

TEST(Partmod, MatchesReferenceWithFreshDelta) {
  for (const BinaryCurve* c :
       {&BinaryCurve::sect233k1(), &BinaryCurve::sect163k1()}) {
    const TauRing ring(c->mu);
    const ZTau delta = tnaf_delta(c->mu, c->f().m());
    Rng rng(9);
    for (int i = 0; i < 8; ++i) {
      const UInt k = UInt::random_below(rng, c->order);
      const ZTau kz{SInt{k, false}, SInt{0}};
      const ZTau q = ring.div_round(kz, delta);
      const ZTau want = ring.sub(kz, ring.mul(q, delta));
      EXPECT_EQ(partmod(k, *c), want) << c->name << " k=" << k.to_hex();
    }
  }
}

TEST(AlphaReps, CachedTablesEqualFreshConstruction) {
  for (int mu : {-1, 1}) {
    const TauRing ring(mu);
    for (unsigned w = 2; w <= 8; ++w) {
      const ZTau tw = ring.tau_pow(w);
      std::vector<ZTau> fresh;
      for (std::int64_t u = 1; u < (std::int64_t{1} << (w - 1)); u += 2) {
        const ZTau uz{SInt{u}, SInt{0}};
        fresh.push_back(ring.sub(uz, ring.mul(ring.div_round(uz, tw), tw)));
      }
      const std::vector<ZTau>& cached = alpha_reps(mu, w);
      EXPECT_EQ(cached, fresh) << "mu=" << mu << " w=" << w;
      // Built once: every call returns the same table.
      EXPECT_EQ(&alpha_reps(mu, w), &cached);
    }
  }
  EXPECT_THROW((void)alpha_reps(-1, 9), std::invalid_argument);
  EXPECT_THROW((void)alpha_reps(2, 4), std::invalid_argument);
}

TEST(Partmod, WtnafLengthHalvedVsNoReduction) {
  const auto& curve = BinaryCurve::sect233k1();
  Rng rng(8);
  const UInt k = UInt::random_below(rng, curve.order);
  const ZTau raw{SInt{k, false}, SInt{0}};
  const auto raw_digits = wtnaf_digits(raw, curve.mu, 4);
  const auto red_digits = wtnaf_digits(partmod(k, curve), curve.mu, 4);
  EXPECT_GT(raw_digits.size(), 440u);  // ~2m without reduction
  EXPECT_LE(red_digits.size(), 240u);  // ~m with partmod
}

}  // namespace
}  // namespace eccm0::ec
