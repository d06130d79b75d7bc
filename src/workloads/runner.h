// Harness that runs the generated Thumb kernels on the armvm core,
// giving measured Cortex-M0+ cycle counts and energy for the K-233
// field arithmetic (paper Tables 5 and 6).
//
// The kernel images are resolved through the KernelRegistry: assembled
// and predecoded once per process, shared by every KernelVm instance
// (and every other harness) as immutable ProgramRefs.
#pragma once

#include "armvm/cpu.h"
#include "armvm/program.h"
#include "gf2/k233.h"

namespace eccm0::workloads {

/// Which multiplication kernel to run.
enum class MulKernel {
  kFixedRegisters,  ///< the paper's LD with fixed registers (hand asm)
  kPlainMemory,     ///< plain LD, everything in RAM ("C compiler" shape)
};

class KernelVm {
 public:
  KernelVm();

  struct MulResult {
    gf2::k233::Prod product;   ///< raw 16-word product (reduce = false)
    gf2::k233::Fe reduced;     ///< reduced result (reduce = true)
    armvm::RunStats stats;
  };
  /// Multiply x*y; if `reduce`, the kernel also folds mod z^233+z^74+1.
  MulResult mul(MulKernel kernel, const gf2::k233::Fe& x,
                const gf2::k233::Fe& y, bool reduce);

  struct FeResult {
    gf2::k233::Fe value;
    armvm::RunStats stats;
  };
  /// Modular squaring via the halfword table kernel.
  FeResult sqr(const gf2::k233::Fe& a);
  /// Standalone reduction of a 16-word product.
  FeResult reduce(const gf2::k233::Prod& wide);
  /// EEA inversion (looping Thumb routine). Precondition: a != 0.
  FeResult inv(const gf2::k233::Fe& a);

  /// K-163 instantiation of the multiplication kernels (n = 6,
  /// pentanomial reduction).
  using Fe163 = std::array<std::uint32_t, 6>;
  struct Mul163Result {
    std::array<std::uint32_t, 12> product;  ///< raw (reduce = false)
    Fe163 reduced;                          ///< folded (reduce = true)
    armvm::RunStats stats;
  };
  Mul163Result mul_k163(MulKernel kernel, const Fe163& x, const Fe163& y,
                        bool reduce);

  /// Cycles of the LUT-generation phase alone (the "Multiply
  /// Precomputation" share of one multiplication).
  std::uint64_t lut_cycles(const gf2::k233::Fe& y);

 private:
  armvm::ProgramRef mul_fixed_raw_, mul_fixed_mod_;
  armvm::ProgramRef mul_plain_raw_, mul_plain_mod_;
  armvm::ProgramRef sqr_, reduce_, lut_only_, inv_;
  armvm::ProgramRef mul163_fixed_raw_, mul163_fixed_mod_;
  armvm::ProgramRef mul163_plain_raw_, mul163_plain_mod_;
};

}  // namespace eccm0::workloads

namespace eccm0::asmkernels {
// The harness lived in asmkernels before the workloads library existed;
// keep the old names usable.
using MulKernel = workloads::MulKernel;
using KernelVm = workloads::KernelVm;
}  // namespace eccm0::asmkernels
