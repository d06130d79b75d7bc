// Differential tests for the prime-field Thumb kernels: every VM result
// must match the mpint host oracle (UInt product, Montgomery::mul, REDC
// via R^-1, invmod) on random and edge operands, for all three curves.
#include <gtest/gtest.h>

#include <vector>

#include "asmkernels/gen.h"
#include "common/rng.h"
#include "ecp/curve.h"
#include "mpint/montgomery.h"
#include "mpint/uint.h"
#include "workloads/kp_mix.h"
#include "workloads/spec.h"

namespace eccm0::asmkernels {
namespace {

using mpint::UInt;
using workloads::KernelMachine;

struct CurveCase {
  const char* tag;
  const ecp::PrimeCurve& (*curve)();
};

const CurveCase kCurves[] = {
    {"p192", ecp::PrimeCurve::secp192r1},
    {"p224", ecp::PrimeCurve::secp224r1},
    {"p256", ecp::PrimeCurve::secp256r1},
};

std::vector<std::uint32_t> to_words(const UInt& v, std::size_t n) {
  std::vector<std::uint32_t> w(n, 0);
  const auto limbs = v.limbs();
  for (std::size_t i = 0; i < limbs.size() && i < n; ++i) w[i] = limbs[i];
  return w;
}

UInt read_uint(armvm::Memory& mem, std::uint32_t off, std::size_t n) {
  std::vector<std::uint32_t> w(n);
  for (std::size_t i = 0; i < n; ++i) {
    w[i] = mem.load32(armvm::kRamBase + off + 4 * i);
  }
  return UInt(std::move(w));
}

class PrimeKernelTest : public ::testing::TestWithParam<CurveCase> {
 protected:
  const ecp::PrimeCurve& pc() const { return GetParam().curve(); }
  std::size_t n() const { return pc().limbs(); }
  std::string kname(const char* op) const {
    return std::string(GetParam().tag) + "-" + op;
  }
  const workloads::CurveRef& cref() const {
    return workloads::curve_from_name(pc().name);
  }
};

TEST_P(PrimeKernelTest, RawMulMatchesHostProduct) {
  KernelMachine m(kname("mul"));
  Rng rng(11);
  for (int i = 0; i < 8; ++i) {
    const UInt x = UInt::random_below(rng, pc().p);
    const UInt y = UInt::random_below(rng, pc().p);
    workloads::load_prime_mul_inputs(m.mem(), to_words(x, n()),
                                     to_words(y, n()));
    m.call();
    EXPECT_EQ(read_uint(m.mem(), kVOff, 2 * n()), x * y) << "iteration " << i;
  }
}

TEST_P(PrimeKernelTest, MontMulMatchesOracle) {
  KernelMachine m(kname("mont"));
  workloads::load_prime_modulus(m.mem(), cref());
  Rng rng(12);
  for (int i = 0; i < 8; ++i) {
    const UInt a = UInt::random_below(rng, pc().p);
    const UInt b = UInt::random_below(rng, pc().p);
    workloads::load_prime_mul_inputs(m.mem(), to_words(a, n()),
                                     to_words(b, n()));
    m.call();
    EXPECT_EQ(read_uint(m.mem(), kOutOff, n()), pc().mont->mul(a, b))
        << "iteration " << i;
  }
}

TEST_P(PrimeKernelTest, MontMulEdgeOperands) {
  KernelMachine m(kname("mont"));
  workloads::load_prime_modulus(m.mem(), cref());
  const UInt zero = 0, one = 1, top = pc().p - one;
  for (const UInt& a : {zero, one, top}) {
    for (const UInt& b : {zero, one, top}) {
      workloads::load_prime_mul_inputs(m.mem(), to_words(a, n()),
                                       to_words(b, n()));
      m.call();
      EXPECT_EQ(read_uint(m.mem(), kOutOff, n()), pc().mont->mul(a, b))
          << a.to_hex() << " * " << b.to_hex();
    }
  }
}

TEST_P(PrimeKernelTest, SqrMatchesOracle) {
  KernelMachine m(kname("sqr"));
  workloads::load_prime_modulus(m.mem(), cref());
  Rng rng(13);
  for (int i = 0; i < 8; ++i) {
    const UInt a = UInt::random_below(rng, pc().p);
    // The squaring kernel reads only the x slot.
    workloads::load_prime_mul_inputs(m.mem(), to_words(a, n()),
                                     to_words(0, n()));
    m.call();
    EXPECT_EQ(read_uint(m.mem(), kOutOff, n()), pc().mont->sqr(a))
        << "iteration " << i;
  }
}

TEST_P(PrimeKernelTest, RedcMatchesHostReduction) {
  KernelMachine m(kname("redc"));
  workloads::load_prime_modulus(m.mem(), cref());
  // REDC(t) = t * R^-1 mod m; derive the expectation from first
  // principles: the host oracle has no standalone REDC.
  const UInt r = UInt::pow2(32 * n());
  const UInt rinv = mpint::invmod(r % pc().p, pc().p);
  Rng rng(14);
  for (int i = 0; i < 8; ++i) {
    // Any t < m*R is a valid Montgomery intermediate.
    const UInt t = UInt::random_below(rng, pc().p << (32 * n()));
    workloads::load_prime_wide_input(m.mem(), to_words(t, 2 * n()));
    m.call();
    EXPECT_EQ(read_uint(m.mem(), kOutOff, n()),
              mpint::mulmod(t % pc().p, rinv, pc().p))
        << "iteration " << i;
  }
}

TEST_P(PrimeKernelTest, InvMatchesHostInvmod) {
  KernelMachine m(kname("inv"));
  workloads::load_prime_modulus(m.mem(), cref());
  Rng rng(15);
  for (int i = 0; i < 4; ++i) {
    UInt a = UInt::random_below(rng, pc().p);
    if (a.is_zero()) a = 1;
    workloads::load_prime_inv_input(m.mem(), to_words(a, n()));
    m.call();
    const UInt got = read_uint(m.mem(), kOutOff, n());
    EXPECT_EQ(got, mpint::invmod(a, pc().p)) << "iteration " << i;
    EXPECT_EQ(mpint::mulmod(got, a, pc().p), UInt(1));
  }
}

TEST_P(PrimeKernelTest, InvEdgeOperands) {
  KernelMachine m(kname("inv"));
  workloads::load_prime_modulus(m.mem(), cref());
  const UInt one = 1;
  for (const UInt& a : {one, pc().p - one, UInt(2)}) {
    workloads::load_prime_inv_input(m.mem(), to_words(a, n()));
    m.call();
    EXPECT_EQ(read_uint(m.mem(), kOutOff, n()), mpint::invmod(a, pc().p))
        << a.to_hex();
  }
}

// The replay() harness calls mont/sqr/inv kernels back-to-back without
// reloading; they must be rerunnable (redc is the exception — it
// consumes its wide input in place).
TEST_P(PrimeKernelTest, MontAndInvAreRerunnable) {
  const workloads::PrimeOperands& od = workloads::PrimeOperands::standard(cref());
  {
    KernelMachine m(kname("mont"));
    workloads::load_prime_modulus(m.mem(), cref());
    workloads::load_prime_mul_inputs(m.mem(), od.x, od.y);
    m.call();
    const UInt first = read_uint(m.mem(), kOutOff, n());
    m.call();
    EXPECT_EQ(read_uint(m.mem(), kOutOff, n()), first);
  }
  {
    KernelMachine m(kname("inv"));
    workloads::load_prime_modulus(m.mem(), cref());
    workloads::load_prime_inv_input(m.mem(), od.a);
    m.call();
    const UInt first = read_uint(m.mem(), kOutOff, n());
    m.call();
    EXPECT_EQ(read_uint(m.mem(), kOutOff, n()), first);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrimeCurves, PrimeKernelTest,
                         ::testing::ValuesIn(kCurves),
                         [](const auto& info) {
                           return std::string(info.param.tag);
                         });

}  // namespace
}  // namespace eccm0::asmkernels
