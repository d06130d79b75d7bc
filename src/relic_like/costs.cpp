#include "relic_like/costs.h"

#include "workloads/runner.h"
#include "common/rng.h"
#include "gf2/traced.h"

namespace eccm0::relic_like {
namespace {

struct Measurements {
  std::uint64_t mul_fixed = 0;
  std::uint64_t mul_plain = 0;
  std::uint64_t mul_lut = 0;
  std::uint64_t sqr = 0;
  std::uint64_t inv_c = 0;
  double mul_pj_per_cycle = 11.9;
};

const Measurements& measurements() {
  static const Measurements m = [] {
    Measurements r;
    workloads::KernelVm vm;
    Rng rng(0xC0575);
    gf2::k233::Fe x, y;
    rng.fill(x);
    rng.fill(y);
    x[7] &= gf2::k233::kTopMask;
    y[7] &= gf2::k233::kTopMask;
    const auto fixed =
        vm.mul(workloads::MulKernel::kFixedRegisters, x, y, true).stats;
    r.mul_fixed = fixed.cycles;
    r.mul_plain =
        vm.mul(workloads::MulKernel::kPlainMemory, x, y, true).stats.cycles;
    r.mul_lut = vm.lut_cycles(y);
    r.sqr = vm.sqr(x).stats.cycles;
    const auto e = fixed.energy();
    r.mul_pj_per_cycle = e.energy_pj / static_cast<double>(e.cycles);
    // Inversion: the looping EEA Thumb routine measured on the VM (the
    // paper kept inversion in compiled C; our measured kernel lands in
    // the same band, ~130k vs their 142k cycles). Average over a few
    // operands since the iteration count is data-dependent.
    std::uint64_t inv_sum = 0;
    constexpr int kInvReps = 4;
    for (int i = 0; i < kInvReps; ++i) {
      gf2::k233::Fe a;
      rng.fill(a);
      a[7] &= gf2::k233::kTopMask;
      if (gf2::k233::is_zero(a)) a[0] = 1;
      inv_sum += vm.inv(a).stats.cycles;
    }
    r.inv_c = inv_sum / kInvReps;
    return r;
  }();
  return m;
}

/// Per-call overhead, mechanically: the kernel ABI copies both operands
/// into the fixed slots (16 word stores), reads the result back (8 loads),
/// plus prologue/epilogue and the call itself.
constexpr std::uint64_t kCallOverheadAsm = 110;
/// A C implementation passes pointers but still pays save/restore, loop
/// setup and the call; measured C functions on M0+ typically burn ~60.
constexpr std::uint64_t kCallOverheadC = 60;
/// A generic-width library adds argument validation and dynamic-length
/// loops around every routine.
constexpr std::uint64_t kCallOverheadGeneric = 160;

/// TNAF recoding constants, calibrated so that ~236 digits cost the
/// paper's measured "TNAF Representation" 178k cycles (the recoding is
/// RELIC's in the paper; only the total is published).
constexpr std::uint64_t kTnafPerDigit = 580;
constexpr std::uint64_t kTnafFixed = 40000;

/// Generic-width (RELIC-style) overhead on the word-unrolled C multiply:
/// word loops are not unrolled, every access re-indexes, and the API is
/// width-generic. Calibrated against the paper's measured RELIC kP on
/// this exact core (5.62M cycles / 117.1 ms @ 48 MHz).
constexpr double kGenericMulFactor = 1.55;
/// Generic table squaring with per-byte loops instead of unrolled code
/// (same calibration anchor).
constexpr double kGenericSqrFactor = 2.6;

}  // namespace

const ec::FieldCostTable& proposed_asm_costs() {
  static const ec::FieldCostTable t = [] {
    const Measurements& m = measurements();
    ec::FieldCostTable c;
    c.name = "this work (asm)";
    c.mul = m.mul_fixed;
    c.mul_lut = m.mul_lut;
    c.sqr = m.sqr;
    c.inv = m.inv_c;
    c.pj_per_cycle = m.mul_pj_per_cycle;
    c.call_overhead = kCallOverheadAsm;
    c.tnaf_per_digit = kTnafPerDigit;
    c.tnaf_fixed = kTnafFixed;
    return c;
  }();
  return t;
}

const ec::FieldCostTable& proposed_c_costs() {
  static const ec::FieldCostTable t = [] {
    const Measurements& m = measurements();
    ec::FieldCostTable c;
    c.name = "this work (C)";
    c.mul = m.mul_plain;
    c.mul_lut = m.mul_lut;
    c.sqr = m.sqr;  // the squaring kernel shape survives compilation
    c.inv = m.inv_c;
    c.pj_per_cycle = m.mul_pj_per_cycle;
    c.call_overhead = kCallOverheadC;
    c.tnaf_per_digit = kTnafPerDigit;
    c.tnaf_fixed = kTnafFixed;
    return c;
  }();
  return t;
}

const ec::FieldCostTable& relic_like_costs() {
  static const ec::FieldCostTable t = [] {
    const Measurements& m = measurements();
    ec::FieldCostTable c;
    c.name = "RELIC-like";
    c.mul = static_cast<std::uint64_t>(
        static_cast<double>(m.mul_plain) * kGenericMulFactor);
    c.mul_lut = static_cast<std::uint64_t>(
        static_cast<double>(m.mul_lut) * kGenericMulFactor);
    c.sqr = static_cast<std::uint64_t>(static_cast<double>(m.sqr) *
                                       kGenericSqrFactor);
    c.inv = m.inv_c;
    c.pj_per_cycle = m.mul_pj_per_cycle;
    c.call_overhead = kCallOverheadGeneric;
    c.point_copy = 90;
    c.tnaf_per_digit = kTnafPerDigit;
    c.tnaf_fixed = kTnafFixed;
    return c;
  }();
  return t;
}

}  // namespace eccm0::relic_like
