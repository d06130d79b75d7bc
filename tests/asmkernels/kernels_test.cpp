// Differential tests: the VM-executed Thumb kernels must agree with the
// portable C++ kernel on every operation, and their measured cycle counts
// must land in the paper's bands (Tables 2, 5, 6).
#include "workloads/runner.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gf2/field.h"
#include "gf2/poly.h"

namespace eccm0::asmkernels {
namespace {

using gf2::k233::Fe;
using gf2::k233::kTopMask;
using gf2::k233::Prod;
using workloads::KernelVm;
using workloads::MulKernel;

Fe random_fe(Rng& rng) {
  Fe f;
  rng.fill(f);
  f[7] &= kTopMask;
  return f;
}

class KernelTest : public ::testing::Test {
 protected:
  static KernelVm& vm() {
    static KernelVm v;  // assembling ~6 kernels once is enough
    return v;
  }
};

TEST_F(KernelTest, MulFixedMatchesCppProduct) {
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const Fe x = random_fe(rng);
    const Fe y = random_fe(rng);
    Prod want;
    gf2::k233::mul_ld(want, x, y);
    const auto got = vm().mul(MulKernel::kFixedRegisters, x, y, false);
    EXPECT_EQ(got.product, want) << "iteration " << i;
  }
}

TEST_F(KernelTest, MulPlainMatchesCppProduct) {
  Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    const Fe x = random_fe(rng);
    const Fe y = random_fe(rng);
    Prod want;
    gf2::k233::mul_ld(want, x, y);
    const auto got = vm().mul(MulKernel::kPlainMemory, x, y, false);
    EXPECT_EQ(got.product, want);
  }
}

TEST_F(KernelTest, MulModularMatchesCpp) {
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const Fe x = random_fe(rng);
    const Fe y = random_fe(rng);
    const Fe want = gf2::k233::mul(x, y);
    EXPECT_EQ(vm().mul(MulKernel::kFixedRegisters, x, y, true).reduced, want);
    EXPECT_EQ(vm().mul(MulKernel::kPlainMemory, x, y, true).reduced, want);
  }
}

TEST_F(KernelTest, MulEdgeOperands) {
  const Fe zero{};
  Fe one{};
  one[0] = 1;
  Fe top{};
  top[7] = 1u << 8;
  Rng rng(4);
  const Fe r = random_fe(rng);
  for (const Fe& x : {zero, one, top, r}) {
    for (const Fe& y : {zero, one, top, r}) {
      Prod want;
      gf2::k233::mul_ld(want, x, y);
      EXPECT_EQ(vm().mul(MulKernel::kFixedRegisters, x, y, false).product,
                want);
    }
  }
}

TEST_F(KernelTest, SqrMatchesCpp) {
  Rng rng(5);
  for (int i = 0; i < 20; ++i) {
    const Fe a = random_fe(rng);
    Fe want;
    gf2::k233::sqr(want, a);
    EXPECT_EQ(vm().sqr(a).value, want);
  }
}

TEST_F(KernelTest, ReduceMatchesCpp) {
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    Prod p;
    rng.fill(p);
    p[15] = 0;
    p[14] &= (1u << 17) - 1;
    Fe want;
    gf2::k233::reduce(want, p);
    EXPECT_EQ(vm().reduce(p).value, want);
  }
}

TEST_F(KernelTest, CyclesAreInputIndependent) {
  // Straight-line kernels: cycle count must not depend on data (a
  // constant-time property the paper's field layer has by construction).
  Rng rng(7);
  const auto c1 =
      vm().mul(MulKernel::kFixedRegisters, random_fe(rng), random_fe(rng),
               true)
          .stats.cycles;
  const auto c2 =
      vm().mul(MulKernel::kFixedRegisters, random_fe(rng), random_fe(rng),
               true)
          .stats.cycles;
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(vm().sqr(random_fe(rng)).stats.cycles,
            vm().sqr(random_fe(rng)).stats.cycles);
}

TEST_F(KernelTest, FixedRegistersBeatPlainMemory) {
  // The paper's headline mechanism, now measured on the ISA simulator:
  // pinning v[3..11] in registers must cut cycles vs the all-memory
  // version (Table 6: 3672 asm vs 5964 C).
  Rng rng(8);
  const Fe x = random_fe(rng);
  const Fe y = random_fe(rng);
  const auto fixed = vm().mul(MulKernel::kFixedRegisters, x, y, true).stats;
  const auto plain = vm().mul(MulKernel::kPlainMemory, x, y, true).stats;
  EXPECT_LT(fixed.cycles, plain.cycles);
  // At least 15% faster (paper shows ~38%).
  EXPECT_LT(static_cast<double>(fixed.cycles),
            0.85 * static_cast<double>(plain.cycles));
}

TEST_F(KernelTest, MulCyclesInPaperBand) {
  // Paper: 3672 cycles for the assembly fixed-register modular multiply.
  // Our kernel is the same algorithm without the paper's final
  // hand-tuning; accept 2500..6000 and report the exact number in the
  // bench.
  Rng rng(9);
  const auto s =
      vm().mul(MulKernel::kFixedRegisters, random_fe(rng), random_fe(rng),
               true)
          .stats;
  EXPECT_GT(s.cycles, 2500u);
  EXPECT_LT(s.cycles, 6000u);
}

TEST_F(KernelTest, SqrCyclesInPaperBand) {
  // Paper: 395 cycles (assembly). Accept 250..800.
  Rng rng(10);
  const auto s = vm().sqr(random_fe(rng)).stats;
  EXPECT_GT(s.cycles, 250u);
  EXPECT_LT(s.cycles, 800u);
}

TEST_F(KernelTest, EnergyPerCycleNearTable3Band) {
  // Whole-kernel average energy per cycle must sit inside the Table 3
  // instruction range (10.98 .. 13.45 pJ/cycle).
  Rng rng(11);
  const auto s =
      vm().mul(MulKernel::kFixedRegisters, random_fe(rng), random_fe(rng),
               true)
          .stats;
  const auto e = s.energy();
  const double pj_per_cycle = e.energy_pj / static_cast<double>(e.cycles);
  EXPECT_GT(pj_per_cycle, 10.9);
  EXPECT_LT(pj_per_cycle, 13.5);
}

TEST_F(KernelTest, InvMatchesCpp) {
  Rng rng(12);
  for (int i = 0; i < 10; ++i) {
    Fe a = random_fe(rng);
    if (gf2::k233::is_zero(a)) a[0] = 1;
    EXPECT_EQ(vm().inv(a).value, gf2::k233::inv(a)) << "iteration " << i;
  }
}

TEST_F(KernelTest, InvEdgeCases) {
  Fe one{};
  one[0] = 1;
  EXPECT_EQ(vm().inv(one).value, one);
  // Smallest non-trivial element: z.
  Fe z{};
  z[1 / 32] = 1u << 1;
  EXPECT_EQ(vm().inv(z).value, gf2::k233::inv(z));
  // Highest-degree element.
  Fe top{};
  top[7] = 1u << 8;
  EXPECT_EQ(vm().inv(top).value, gf2::k233::inv(top));
}

TEST_F(KernelTest, InvCyclesInPaperBand) {
  // The paper's compiled-C inversion: 141,916 cycles. The looping Thumb
  // EEA lands in the same band for random (full-degree) inputs.
  Rng rng(13);
  Fe a = random_fe(rng);
  if (gf2::k233::is_zero(a)) a[0] = 1;
  const auto s = vm().inv(a).stats;
  EXPECT_GT(s.cycles, 90'000u);
  EXPECT_LT(s.cycles, 170'000u);
}

TEST_F(KernelTest, InvRoundTripThroughMulKernel) {
  // inv then mul on the VM end to end: a * a^-1 = 1 without ever leaving
  // simulated silicon.
  Rng rng(14);
  const Fe a = random_fe(rng);
  const Fe ai = vm().inv(a).value;
  Fe one{};
  one[0] = 1;
  EXPECT_EQ(vm().mul(MulKernel::kFixedRegisters, a, ai, true).reduced, one);
}

TEST_F(KernelTest, K163MulMatchesGenericField) {
  const auto& f = gf2::GF2Field::f163();
  Rng rng(15);
  for (int i = 0; i < 15; ++i) {
    const gf2::Elem a = f.random(rng);
    const gf2::Elem b = f.random(rng);
    KernelVm::Fe163 x{}, y{};
    for (std::size_t w = 0; w < 6; ++w) {
      x[w] = a[w];
      y[w] = b[w];
    }
    const gf2::Elem want = f.mul(a, b);
    const auto got =
        vm().mul_k163(MulKernel::kFixedRegisters, x, y, true).reduced;
    for (std::size_t w = 0; w < 6; ++w) {
      EXPECT_EQ(got[w], want[w]) << "word " << w << " iter " << i;
    }
    const auto got_plain =
        vm().mul_k163(MulKernel::kPlainMemory, x, y, true).reduced;
    for (std::size_t w = 0; w < 6; ++w) EXPECT_EQ(got_plain[w], want[w]);
  }
}

TEST_F(KernelTest, K163RawProductMatchesPolyOracle) {
  const auto& f = gf2::GF2Field::f163();
  Rng rng(16);
  const gf2::Elem a = f.random(rng);
  const gf2::Elem b = f.random(rng);
  KernelVm::Fe163 x{}, y{};
  for (std::size_t w = 0; w < 6; ++w) {
    x[w] = a[w];
    y[w] = b[w];
  }
  const auto got = vm().mul_k163(MulKernel::kFixedRegisters, x, y, false);
  const gf2::Poly want = gf2::Poly::mul(f.to_poly(a), f.to_poly(b));
  const gf2::Poly got_poly{
      std::vector<Word>(got.product.begin(), got.product.end())};
  EXPECT_EQ(got_poly, want);
}

TEST_F(KernelTest, K163FixedBeatsPlainAndScalesBelowK233) {
  const auto& f = gf2::GF2Field::f163();
  Rng rng(17);
  const gf2::Elem a = f.random(rng);
  const gf2::Elem b = f.random(rng);
  KernelVm::Fe163 x{}, y{};
  for (std::size_t w = 0; w < 6; ++w) {
    x[w] = a[w];
    y[w] = b[w];
  }
  const auto fixed =
      vm().mul_k163(MulKernel::kFixedRegisters, x, y, true).stats.cycles;
  const auto plain =
      vm().mul_k163(MulKernel::kPlainMemory, x, y, true).stats.cycles;
  EXPECT_LT(fixed, plain);
  // n = 6 must be meaningfully cheaper than n = 8 (quadratic inner work),
  // and in the band of contemporaries (Gouvea's MSP430X F(2^163): 3585).
  EXPECT_LT(fixed, 3600u);
  EXPECT_GT(fixed, 1500u);
}

}  // namespace
}  // namespace eccm0::asmkernels
