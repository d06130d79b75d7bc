// Unit and property tests for the F(2^233) kernel: every optimised routine
// is checked against the bit-serial / Poly oracles and against field axioms.
#include "gf2/k233.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gf2/poly.h"

namespace eccm0::gf2::k233 {
namespace {

Fe random_fe(Rng& rng) {
  Fe f;
  rng.fill(f);
  f[7] &= kTopMask;
  return f;
}

Poly to_poly(const Fe& f) {
  return Poly{std::vector<Word>(f.begin(), f.end())};
}

Poly to_poly(const Prod& p) {
  return Poly{std::vector<Word>(p.begin(), p.end())};
}

Poly f_poly() {
  return Poly::from_exponents(std::array<unsigned, 3>{233, 74, 0});
}

// `mul` and `sqr` dispatch at run time; on a PCLMUL host they take the
// carry-less 4x64-bit path. The portable compositions every build keeps
// are the oracle.
TEST(K233, FastPathsMatchPortablePaths) {
  RecordProperty("clmul", has_clmul() ? "yes" : "no");
  auto portable_mul = [](const Fe& a, const Fe& b) {
    Prod p;
    mul_ld(p, a, b);
    Fe r;
    reduce(r, p);
    return r;
  };
  auto portable_sqr = [](const Fe& a) {
    Prod p;
    sqr_expand(p, a);
    Fe r;
    reduce(r, p);
    return r;
  };
  auto check = [&](const Fe& a, const Fe& b) {
    EXPECT_EQ(mul(a, b), portable_mul(a, b));
    Fe s;
    sqr(s, a);
    EXPECT_EQ(s, portable_sqr(a));
  };
  Fe z232{};
  z232[7] = 1u << 8;
  Fe top{};
  top[7] = kTopMask;  // z^224 .. z^232
  Fe all;
  all.fill(~Word{0});
  all[7] = kTopMask;  // every bit below z^233
  const Fe edges[] = {zero(), one(), z232, top, all, modulus()};
  for (const Fe& a : edges) {
    for (const Fe& b : edges) check(a, b);
  }
  Rng rng(19);
  for (int i = 0; i < 10'000; ++i) {
    const Fe a = random_fe(rng);
    check(a, random_fe(rng));
  }
}

TEST(K233, ModulusWords) {
  const Fe f = modulus();
  EXPECT_EQ(to_poly(f), f_poly());
  EXPECT_EQ(degree(f), 233);
}

TEST(K233, AddIsXorAndInvolutive) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe(rng);
    const Fe b = random_fe(rng);
    EXPECT_EQ(add(a, b), add(b, a));
    EXPECT_EQ(add(add(a, b), b), a);
    EXPECT_TRUE(is_zero(add(a, a)));
  }
}

TEST(K233, MulShiftAddMatchesPolyOracle) {
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    const Fe a = random_fe(rng);
    const Fe b = random_fe(rng);
    Prod v;
    mul_shift_add(v, a, b);
    EXPECT_EQ(to_poly(v), Poly::mul(to_poly(a), to_poly(b)));
  }
}

TEST(K233, MulLdMatchesShiftAdd) {
  Rng rng(3);
  for (int i = 0; i < 100; ++i) {
    const Fe a = random_fe(rng);
    const Fe b = random_fe(rng);
    Prod u, v;
    mul_shift_add(u, a, b);
    mul_ld(v, a, b);
    EXPECT_EQ(u, v);
  }
}

TEST(K233, MulKaratsubaMatchesShiftAdd) {
  Rng rng(4);
  for (int i = 0; i < 100; ++i) {
    const Fe a = random_fe(rng);
    const Fe b = random_fe(rng);
    Prod u, v;
    mul_shift_add(u, a, b);
    mul_karatsuba(v, a, b);
    EXPECT_EQ(u, v);
  }
}

TEST(K233, MulEdgeCases) {
  const Fe z = zero();
  const Fe o = one();
  Fe top{};
  top[7] = 1u << 8;  // z^232
  for (const Fe& a : {z, o, top, modulus()}) {
    Prod u, v, w;
    mul_shift_add(u, a, top);
    mul_ld(v, a, top);
    mul_karatsuba(w, a, top);
    EXPECT_EQ(u, v);
    EXPECT_EQ(u, w);
  }
}

TEST(K233, ReduceMatchesPolyMod) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    Prod p;
    rng.fill(p);
    // Raw products have degree <= 464; clear the top bits accordingly.
    p[15] = 0;
    p[14] &= (1u << 17) - 1;
    Fe r;
    reduce(r, p);
    EXPECT_EQ(to_poly(r), Poly::mod(to_poly(p), f_poly()));
    EXPECT_LT(degree(r), 233);
  }
}

TEST(K233, ReduceOfReducedIsIdentity) {
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    const Fe a = random_fe(rng);
    Prod p{};
    for (std::size_t w = 0; w < kWords; ++w) p[w] = a[w];
    Fe r;
    reduce(r, p);
    EXPECT_EQ(r, a);
  }
}

TEST(K233, SqrExpandSpreadsBits) {
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    const Fe a = random_fe(rng);
    Prod v;
    sqr_expand(v, a);
    EXPECT_EQ(to_poly(v), Poly::mul(to_poly(a), to_poly(a)));
  }
}

TEST(K233, SqrMatchesMul) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    const Fe a = random_fe(rng);
    Fe s;
    sqr(s, a);
    EXPECT_EQ(s, mul(a, a));
  }
}

TEST(K233, MulModularProperties) {
  Rng rng(9);
  const Fe o = one();
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe(rng);
    const Fe b = random_fe(rng);
    const Fe c = random_fe(rng);
    EXPECT_EQ(mul(a, b), mul(b, a));
    EXPECT_EQ(mul(a, o), a);
    EXPECT_EQ(mul(mul(a, b), c), mul(a, mul(b, c)));
    // distributivity
    EXPECT_EQ(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
  }
}

TEST(K233, InverseRoundTrip) {
  Rng rng(10);
  for (int i = 0; i < 50; ++i) {
    Fe a = random_fe(rng);
    if (is_zero(a)) a = one();
    const Fe ai = inv(a);
    EXPECT_EQ(mul(a, ai), one());
    EXPECT_EQ(inv(ai), a);
  }
}

TEST(K233, InverseOfOne) { EXPECT_EQ(inv(one()), one()); }

TEST(K233, ItohTsujiiMatchesEea) {
  Rng rng(20);
  for (int i = 0; i < 30; ++i) {
    Fe a = random_fe(rng);
    if (is_zero(a)) a = one();
    EXPECT_EQ(inv_itoh_tsujii(a), inv(a));
  }
  EXPECT_EQ(inv_itoh_tsujii(one()), one());
}

TEST(K233, DivMulRoundTrip) {
  Rng rng(11);
  for (int i = 0; i < 20; ++i) {
    Fe a = random_fe(rng);
    Fe b = random_fe(rng);
    if (is_zero(b)) b = one();
    EXPECT_EQ(mul(div(a, b), b), a);
  }
}

TEST(K233, FrobeniusLinearity) {
  // (a + b)^2 = a^2 + b^2 in characteristic 2.
  Rng rng(12);
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe(rng);
    const Fe b = random_fe(rng);
    Fe sa, sb, sab;
    sqr(sa, a);
    sqr(sb, b);
    sqr(sab, add(a, b));
    EXPECT_EQ(sab, add(sa, sb));
  }
}

TEST(K233, FermatInverse) {
  // a^(2^233 - 2) == a^-1: check via 232 squarings chain a^(2^233-2) =
  // prod of squarings — use the identity a * a^(2^233-2) = a^(2^233-1) = 1.
  Rng rng(13);
  Fe a = random_fe(rng);
  if (is_zero(a)) a = one();
  // compute a^(2^233-1) by Fermat: itoh-tsujii style plain chain
  Fe acc = a;
  for (int i = 0; i < 232; ++i) {
    Fe s;
    sqr(s, acc);
    acc = mul(s, a);
  }
  EXPECT_EQ(acc, one());  // a^(2^233 - 1) = 1 for a != 0
}

}  // namespace
}  // namespace eccm0::gf2::k233
