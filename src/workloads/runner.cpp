#include "workloads/runner.h"

#include "asmkernels/gen.h"
#include "gf2/sqr_table.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"

namespace eccm0::workloads {
namespace {

using gf2::k233::Fe;
using gf2::k233::Prod;

void write_fe(armvm::Memory& mem, std::uint32_t offset, const Fe& v) {
  mem.write_words(armvm::kRamBase + offset,
                  std::span<const std::uint32_t>(v.data(), v.size()));
}

}  // namespace

KernelVm::KernelVm()
    : mul_fixed_raw_(kernel("mul-raw")),
      mul_fixed_mod_(kernel("mul")),
      mul_plain_raw_(kernel("mul-plain-raw")),
      mul_plain_mod_(kernel("mul-plain")),
      sqr_(kernel("sqr")),
      reduce_(kernel("reduce")),
      lut_only_(kernel("lut")),
      inv_(kernel("inv")),
      mul163_fixed_raw_(kernel("mul163-raw")),
      mul163_fixed_mod_(kernel("mul163")),
      mul163_plain_raw_(kernel("mul163-plain-raw")),
      mul163_plain_mod_(kernel("mul163-plain")) {}

KernelVm::Mul163Result KernelVm::mul_k163(MulKernel kernel, const Fe163& x,
                                          const Fe163& y, bool reduce) {
  const armvm::ProgramRef& prog =
      kernel == MulKernel::kFixedRegisters
          ? (reduce ? mul163_fixed_mod_ : mul163_fixed_raw_)
          : (reduce ? mul163_plain_mod_ : mul163_plain_raw_);
  armvm::Memory mem(kKernelRamSize);
  mem.write_words(armvm::kRamBase + asmkernels::kXOff,
                  std::span<const std::uint32_t>(x.data(), x.size()));
  mem.write_words(armvm::kRamBase + asmkernels::kYOff,
                  std::span<const std::uint32_t>(y.data(), y.size()));
  armvm::Cpu cpu(prog, mem);
  Mul163Result r;
  r.stats = cpu.call(prog->entry("entry"), {});
  if (reduce) {
    const auto words = mem.read_words(armvm::kRamBase + asmkernels::kVOff, 6);
    for (std::size_t i = 0; i < 6; ++i) r.reduced[i] = words[i];
  } else {
    const auto words = mem.read_words(armvm::kRamBase + asmkernels::kVOff, 12);
    for (std::size_t i = 0; i < 12; ++i) r.product[i] = words[i];
  }
  return r;
}

KernelVm::FeResult KernelVm::inv(const Fe& a) {
  armvm::Memory mem(kKernelRamSize);
  write_fe(mem, asmkernels::kInOff, a);
  armvm::Cpu cpu(inv_, mem);
  FeResult r;
  r.stats = cpu.call(inv_->entry("entry"), {});
  const auto words = mem.read_words(armvm::kRamBase + asmkernels::kOutOff, 8);
  for (std::size_t i = 0; i < 8; ++i) r.value[i] = words[i];
  return r;
}

std::uint64_t KernelVm::lut_cycles(const Fe& y) {
  armvm::Memory mem(kKernelRamSize);
  write_fe(mem, asmkernels::kYOff, y);
  armvm::Cpu cpu(lut_only_, mem);
  return cpu.call(lut_only_->entry("entry"), {}).cycles;
}

KernelVm::MulResult KernelVm::mul(MulKernel kernel, const Fe& x, const Fe& y,
                                  bool reduce) {
  const armvm::ProgramRef& prog =
      kernel == MulKernel::kFixedRegisters
          ? (reduce ? mul_fixed_mod_ : mul_fixed_raw_)
          : (reduce ? mul_plain_mod_ : mul_plain_raw_);
  armvm::Memory mem(kKernelRamSize);
  write_fe(mem, asmkernels::kXOff, x);
  write_fe(mem, asmkernels::kYOff, y);
  armvm::Cpu cpu(prog, mem);
  MulResult r;
  r.stats = cpu.call(prog->entry("entry"), {});
  if (reduce) {
    const auto words = mem.read_words(armvm::kRamBase + asmkernels::kVOff, 8);
    for (std::size_t i = 0; i < 8; ++i) r.reduced[i] = words[i];
  } else {
    const auto words = mem.read_words(armvm::kRamBase + asmkernels::kVOff, 16);
    for (std::size_t i = 0; i < 16; ++i) r.product[i] = words[i];
  }
  return r;
}

KernelVm::FeResult KernelVm::sqr(const Fe& a) {
  armvm::Memory mem(kKernelRamSize);
  load_sqr_table(mem);
  write_fe(mem, asmkernels::kInOff, a);
  armvm::Cpu cpu(sqr_, mem);
  FeResult r;
  r.stats = cpu.call(sqr_->entry("entry"), {});
  const auto words = mem.read_words(armvm::kRamBase + asmkernels::kOutOff, 8);
  for (std::size_t i = 0; i < 8; ++i) r.value[i] = words[i];
  return r;
}

KernelVm::FeResult KernelVm::reduce(const Prod& wide) {
  armvm::Memory mem(kKernelRamSize);
  mem.write_words(armvm::kRamBase + asmkernels::kWideOff,
                  std::span<const std::uint32_t>(wide.data(), wide.size()));
  armvm::Cpu cpu(reduce_, mem);
  FeResult r;
  r.stats = cpu.call(reduce_->entry("entry"), {});
  const auto words = mem.read_words(armvm::kRamBase + asmkernels::kOutOff, 8);
  for (std::size_t i = 0; i < 8; ++i) r.value[i] = words[i];
  return r;
}

}  // namespace eccm0::workloads
