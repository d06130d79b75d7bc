// The paper's core workload, factored out of the benches: the K-233
// field-kernel mix of one real wTNAF w=4 kP on sect233k1, the standard
// deterministic operands every harness feeds those kernels, and a
// KernelMachine that bundles one private execution context (Cpu +
// Memory) over a shared registry image.
//
// bench_vm_throughput, bench_profile, ecctool and the faultsim campaign
// previously each re-derived this mix and re-assembled these kernels;
// they now all resolve through here, so the numbers are one definition
// instead of four copies.
#pragma once

#include <cstdint>
#include <string>

#include "armvm/cpu.h"
#include "ec/costing.h"

namespace eccm0::workloads {

/// RAM size every field-kernel machine uses (gen.h layout fits in 2 KiB).
inline constexpr std::size_t kKernelRamSize = 0x800;

/// Field-op counts of one real wTNAF w=4 kP on sect233k1 (table build +
/// Horner loop), derived once from the fixed mix seed 0x7AB1E4 and
/// cached. This is the schedule bench_vm_throughput and bench_profile
/// replay.
const ec::FieldOpCounts& kp_mix_sect233k1();

/// The standard deterministic kernel operands (seed 0x7151CA7): x, y
/// are in-field multiplication inputs, a is a nonzero in-field
/// squaring/inversion input. Same values in every bench, so histograms
/// and output digests are comparable across harnesses.
struct KernelOperands {
  std::uint32_t x[8];
  std::uint32_t y[8];
  std::uint32_t a[8];

  static const KernelOperands& standard();
};

/// Input loaders for the gen.h RAM layout.
void load_mul_inputs(armvm::Memory& mem, const std::uint32_t (&x)[8],
                     const std::uint32_t (&y)[8]);
void load_sqr_table(armvm::Memory& mem);
/// Squaring input (kInOff). Does NOT write the table; call
/// load_sqr_table once per Memory.
void load_sqr_input(armvm::Memory& mem, const std::uint32_t (&a)[8]);
/// Inversion input (kInOff). The EEA kernel consumes its scratch state,
/// so re-load before every call for a reproducible trace.
void load_inv_input(armvm::Memory& mem, const std::uint32_t (&a)[8]);
/// 16-word unreduced product into the standalone reduce kernel's wide
/// buffer (kWideOff).
void load_reduce_input(armvm::Memory& mem, const std::uint32_t (&wide)[16]);

/// One shared immutable image + one private execution context. Cheap to
/// construct (the registry already holds the predecoded image), so
/// parallel workers build one per thread over the same ProgramRef.
/// `mem_model` selects the RAM protection scheme (raw by default; see
/// armvm/memmodel.h) — kernels run identically under every model, only
/// cycle/energy accounting and fault surfaces change.
class KernelMachine {
 public:
  explicit KernelMachine(
      const std::string& kernel_name,
      armvm::Cpu::DecodeMode mode = armvm::Cpu::kDefaultEngine,
      const armvm::MemModelConfig& mem_model = {});
  KernelMachine(armvm::ProgramRef prog,
                armvm::Cpu::DecodeMode mode = armvm::Cpu::kDefaultEngine,
                const armvm::MemModelConfig& mem_model = {});

  const armvm::Program& prog() const { return *prog_; }
  armvm::Memory& mem() { return mem_; }
  armvm::Cpu& cpu() { return cpu_; }

  /// Run the kernel's "entry" label to completion.
  armvm::RunStats call() { return cpu_.call(prog_->entry("entry"), {}); }

 private:
  armvm::ProgramRef prog_;
  armvm::Memory mem_;
  armvm::Cpu cpu_;
};

}  // namespace eccm0::workloads
