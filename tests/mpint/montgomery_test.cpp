#include "mpint/montgomery.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"

namespace eccm0::mpint {
namespace {

// NIST P-256, P-224 (the odd 7-limb case) and P-192 primes.
const char* kP256 =
    "FFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF";
const char* kP224 = "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF000000000000000000000001";
const char* kP192 = "FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF";

class MontgomeryTest : public ::testing::TestWithParam<const char*> {
 protected:
  MontgomeryTest() : p_(UInt::from_hex(GetParam())), mont_(p_) {}

  /// Seeded residues plus the edges: 0, 1, p - 1, and values with fewer
  /// significant limbs than the modulus.
  std::vector<UInt> operands(std::uint64_t seed) const {
    Rng rng(seed);
    std::vector<UInt> v = {UInt{0}, UInt{1}, p_ - UInt{1}, UInt{2}};
    for (std::size_t limbs = 1; limbs < mont_.limbs(); ++limbs) {
      v.push_back(UInt::random_below(rng, UInt::pow2(32 * limbs)));
    }
    for (int i = 0; i < 12; ++i) v.push_back(UInt::random_below(rng, p_));
    return v;
  }

  /// R^-1 mod p, from plain arithmetic.
  UInt r_inv() const {
    return invmod(UInt::pow2(32 * mont_.limbs()) % p_, p_);
  }

  UInt p_;
  Montgomery mont_;
};

// 6- and 8-limb moduli multiply on 64-bit words. The product must be
// the 32-bit pass's word for word, and a*b*R^-1 mod p, for any
// operands below R (not only reduced ones).
TEST_P(MontgomeryTest, WidePassMatchesPortablePass) {
  const UInt r = UInt::pow2(32 * mont_.limbs());
  const UInt rinv = r_inv();
  std::vector<UInt> v = operands(20);
  for (const UInt& e : {r - UInt{1}, r - p_, p_, p_ + UInt{1}}) v.push_back(e);
  Rng rng(21);
  for (int i = 0; i < 40; ++i) v.push_back(UInt::random_below(rng, r));
  for (const UInt& a : v) {
    for (const UInt& b : v) {
      const Montgomery::Fe fa = mont_.load(a);
      const Montgomery::Fe fb = mont_.load(b);
      const Montgomery::Fe got = mont_.mul(fa, fb);
      EXPECT_EQ(got, mont_.mul_portable(fa, fb));
      const UInt want = mulmod(mulmod(a, b, p_), rinv, p_);
      EXPECT_EQ(mont_.store(got) % p_, want);
      if (a < p_ && b < p_) {
        EXPECT_EQ(mont_.store(got), want);
      }
    }
  }
}

TEST_P(MontgomeryTest, ToFromRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 30; ++i) {
    const UInt a = UInt::random_below(rng, p_);
    EXPECT_EQ(mont_.from_mont(mont_.to_mont(a)), a);
  }
}

TEST_P(MontgomeryTest, MulMatchesPlainModmul) {
  Rng rng(2);
  for (int i = 0; i < 30; ++i) {
    const UInt a = UInt::random_below(rng, p_);
    const UInt b = UInt::random_below(rng, p_);
    const UInt got =
        mont_.from_mont(mont_.mul(mont_.to_mont(a), mont_.to_mont(b)));
    EXPECT_EQ(got, mulmod(a, b, p_));
  }
}

TEST_P(MontgomeryTest, ProductIsABTimesRInverse) {
  // The raw product against plain arithmetic: a * b * R^-1 mod p, fully
  // reduced, for every pair of edge and seeded operands.
  const UInt rinv = r_inv();
  const std::vector<UInt> v = operands(6);
  for (const UInt& a : v) {
    EXPECT_EQ(mont_.sqr(a), mulmod(mulmod(a, a, p_), rinv, p_))
        << a.to_hex();
    for (const UInt& b : v) {
      EXPECT_EQ(mont_.mul(a, b), mulmod(mulmod(a, b, p_), rinv, p_))
          << a.to_hex() << " * " << b.to_hex();
    }
  }
}

TEST_P(MontgomeryTest, ToAndFromMontMatchPlainArithmetic) {
  const UInt r = UInt::pow2(32 * mont_.limbs()) % p_;
  const UInt rinv = r_inv();
  for (const UInt& a : operands(7)) {
    EXPECT_EQ(mont_.to_mont(a), mulmod(a, r, p_)) << a.to_hex();
    EXPECT_EQ(mont_.from_mont(a), mulmod(a, rinv, p_)) << a.to_hex();
  }
  // Wider than the modulus: reduced first.
  const UInt wide = (p_ << 40) + UInt{12345};
  EXPECT_EQ(mont_.to_mont(wide), mulmod(UInt{12345}, r, p_));
}

TEST_P(MontgomeryTest, AddSubMatchPlainModularArithmetic) {
  const std::vector<UInt> v = operands(8);
  for (const UInt& a : v) {
    for (const UInt& b : v) {
      EXPECT_EQ(mont_.add(a, b), (a + b) % p_)
          << a.to_hex() << " + " << b.to_hex();
      EXPECT_EQ(mont_.sub(a, b), (a + p_ - b) % p_)
          << a.to_hex() << " - " << b.to_hex();
    }
  }
  // (p-1) + (p-1) carries out past 2^(32n) for these moduli; 0 - 1 and
  // 1 - (p-1) borrow.
  const UInt top = p_ - UInt{1};
  ASSERT_GE(top + top, UInt::pow2(32 * mont_.limbs()));
  EXPECT_EQ(mont_.add(top, top), p_ - UInt{2});
  EXPECT_EQ(mont_.add(top, UInt{1}), UInt{0});
  EXPECT_EQ(mont_.sub(UInt{0}, UInt{1}), top);
  EXPECT_EQ(mont_.sub(UInt{1}, top), UInt{2});
}

TEST_P(MontgomeryTest, OneIsMultiplicativeIdentity) {
  Rng rng(3);
  const UInt a = mont_.to_mont(UInt::random_below(rng, p_));
  EXPECT_EQ(mont_.mul(a, mont_.one()), a);
}

TEST_P(MontgomeryTest, PowMatchesPowmod) {
  Rng rng(4);
  for (const UInt& a : operands(9)) {
    for (const UInt& e : {UInt{0}, UInt{1}, UInt{65537},
                          UInt::random_below(rng, p_)}) {
      const UInt got = mont_.from_mont(mont_.pow(mont_.to_mont(a), e));
      EXPECT_EQ(got, powmod(a, e, p_)) << a.to_hex() << " ^ " << e.to_hex();
    }
  }
}

TEST_P(MontgomeryTest, InvMatchesInvmod) {
  for (const UInt& a : operands(10)) {
    if (a.is_zero()) continue;
    const UInt am = mont_.to_mont(a);
    EXPECT_EQ(mont_.from_mont(mont_.inv(am)), invmod(a, p_)) << a.to_hex();
    EXPECT_EQ(mont_.mul(am, mont_.inv(am)), mont_.one()) << a.to_hex();
  }
}

TEST_P(MontgomeryTest, InvOfZeroIsZero) {
  // As the Fermat power 0^(p-2) gives; the extended Euclid must not loop.
  EXPECT_EQ(mont_.inv(UInt{0}), UInt{0});
}

std::string prime_name(const ::testing::TestParamInfo<const char*>& info) {
  return info.param == kP256 ? "P256" : info.param == kP224 ? "P224" : "P192";
}

INSTANTIATE_TEST_SUITE_P(Primes, MontgomeryTest,
                         ::testing::Values(kP256, kP224, kP192), prime_name);

TEST(Montgomery, RejectsEvenModulus) {
  EXPECT_THROW(Montgomery(UInt{100}), std::invalid_argument);
  EXPECT_THROW(Montgomery(UInt{1}), std::invalid_argument);
}

TEST(Montgomery, RejectsModulusWiderThanEightLimbs) {
  // 2^288 - 2^32 + 1 is odd and nine limbs wide.
  const UInt nine = UInt::pow2(288) - UInt::pow2(32) + UInt{1};
  ASSERT_EQ(nine.limbs().size(), 9u);
  EXPECT_THROW(Montgomery{nine}, std::invalid_argument);
  EXPECT_NO_THROW(Montgomery{UInt::pow2(256) - UInt{1}});
}

}  // namespace
}  // namespace eccm0::mpint
