// A tour of the Cortex-M0+ substrate: assemble a small Thumb routine,
// run it with cycle/energy accounting, then run the paper's LD-with-
// fixed-registers kernel and print its measured profile — everything the
// paper did with a scope and a dev board, on the simulator.
#include <cstdio>

#include "armvm/asm.h"
#include "armvm/codec.h"
#include "armvm/cpu.h"
#include "asmkernels/gen.h"
#include "workloads/registry.h"
#include "workloads/runner.h"
#include "common/rng.h"
#include "measure/power_trace.h"

using namespace eccm0;

int main() {
  // --- 1. Hand-written Thumb: sum of squares 1..n ---------------------
  const char* src = R"(
sum_sq:  movs r1, #0        ; acc
loop:    movs r2, r0
         muls r2, r2
         adds r1, r1, r2
         subs r0, #1
         bne loop
         movs r0, r1
         bx lr
)";
  const armvm::ProgramRef prog = armvm::assemble(src);
  armvm::Memory mem(1 << 12);
  armvm::Cpu cpu(prog, mem);
  const auto stats = cpu.call(prog->entry("sum_sq"), {10});
  std::printf("sum of squares 1..10 = %u (expect 385)\n", cpu.reg(0));
  std::printf("  %llu instructions, %llu cycles, %.1f pJ\n\n",
              static_cast<unsigned long long>(stats.instructions),
              static_cast<unsigned long long>(stats.cycles),
              stats.energy().energy_pj);

  // --- 2. Disassemble the first lines of the generated mul kernel -----
  const armvm::ProgramRef mul_prog = workloads::kernel("mul");
  std::printf("LD-with-fixed-registers kernel, first 12 instructions:\n");
  std::size_t idx = 0;
  for (int i = 0; i < 12; ++i) {
    const auto d = armvm::decode(mul_prog->code(), idx);
    std::printf("  %04zx: %s\n", 2 * idx, armvm::disassemble(d.ins).c_str());
    idx += d.halfwords;
  }
  std::printf("  ... (%zu bytes total)\n\n", 2 * mul_prog->code().size());

  // --- 3. Run it, with the power rig attached -------------------------
  workloads::KernelVm vm;
  Rng rng(7);
  gf2::k233::Fe x, y;
  rng.fill(x);
  rng.fill(y);
  x[7] &= gf2::k233::kTopMask;
  y[7] &= gf2::k233::kTopMask;
  const auto run = vm.mul(workloads::MulKernel::kFixedRegisters, x, y, true);
  const auto energy = run.stats.energy();
  std::printf("modular multiplication in F(2^233), measured on the VM:\n");
  std::printf("  cycles       : %llu (paper: 3672)\n",
              static_cast<unsigned long long>(run.stats.cycles));
  std::printf("  energy       : %.1f pJ (%.3f pJ/cycle)\n",
              energy.energy_pj,
              energy.energy_pj / static_cast<double>(energy.cycles));
  std::printf("  time @48 MHz : %.2f us\n", energy.time_ms() * 1e3);
  std::printf("  avg power    : %.1f uW (paper band: 520-600 uW)\n\n",
              energy.avg_power_uw());

  using costmodel::InstrClass;
  const char* names[] = {"LDR", "STR", "LSL", "LSR", "EOR",
                         "ADD", "MUL", "MOV", "B",   "other"};
  std::printf("cycle histogram:\n");
  for (int i = 0; i < static_cast<int>(InstrClass::kCount); ++i) {
    const auto cy = run.stats.histogram.cycles[i];
    if (cy == 0) continue;
    std::printf("  %-6s %6llu cycles  %s\n", names[i],
                static_cast<unsigned long long>(cy),
                std::string(static_cast<std::size_t>(
                                60 * cy / run.stats.cycles),
                            '#')
                    .c_str());
  }
  return 0;
}
