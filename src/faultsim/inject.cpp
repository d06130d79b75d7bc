#include "faultsim/inject.h"

#include "armvm/codec.h"
#include "armvm/isa.h"

namespace eccm0::faultsim {

const char* fault_model_name(FaultModel m) {
  switch (m) {
    case FaultModel::kRegisterFlip: return "register-flip";
    case FaultModel::kRamFlip: return "ram-flip";
    case FaultModel::kInstructionSkip: return "instruction-skip";
    case FaultModel::kOpcodeFlip: return "opcode-flip";
  }
  return "unknown-model";
}

FaultSpec sample_spec(Rng& rng, FaultModel model, std::uint64_t max_index,
                      std::uint32_t ram_words) {
  FaultSpec s;
  s.model = model;
  s.index = max_index == 0 ? 0 : rng.next_below(max_index);
  switch (model) {
    case FaultModel::kRegisterFlip:
      s.reg = static_cast<unsigned>(rng.next_below(16));
      s.bit = static_cast<unsigned>(rng.next_below(32));
      break;
    case FaultModel::kRamFlip:
      s.ram_word = static_cast<std::uint32_t>(rng.next_below(ram_words));
      s.bit = static_cast<unsigned>(rng.next_below(32));
      break;
    case FaultModel::kInstructionSkip:
      break;
    case FaultModel::kOpcodeFlip:
      s.bit = static_cast<unsigned>(rng.next_below(16));
      break;
  }
  return s;
}

namespace {

/// Apply `spec` to the stopped core. Returns false when the injected
/// instruction itself halted the program.
bool apply_fault(armvm::Cpu& cpu, armvm::Memory& ram,
                 const armvm::Program& prog, const FaultSpec& spec) {
  switch (spec.model) {
    case FaultModel::kRegisterFlip:
      cpu.set_reg(spec.reg, cpu.reg(spec.reg) ^ (1u << spec.bit));
      return true;
    case FaultModel::kRamFlip: {
      const std::uint32_t addr = armvm::kRamBase + 4u * spec.ram_word;
      ram.store32(addr, ram.load32(addr) ^ (1u << spec.bit));
      return true;
    }
    case FaultModel::kInstructionSkip: {
      const std::uint32_t pc = cpu.reg(armvm::kPC);
      const std::size_t idx = pc / 2;
      unsigned halfwords = 1;
      if (pc % 2 == 0 && idx < prog.code().size()) {
        try {
          halfwords = armvm::decode(prog.code(), idx).halfwords;
        } catch (const armvm::Fault&) {
          // Skipping an undecodable slot: glitch past one halfword.
        }
      }
      cpu.set_reg(armvm::kPC, pc + 2u * halfwords);
      return true;
    }
    case FaultModel::kOpcodeFlip: {
      const std::uint32_t pc = cpu.reg(armvm::kPC);
      if (pc % 2 != 0 || pc / 2 >= prog.code().size()) {
        // PC already derailed; the next step faults on its own.
        return true;
      }
      // The corruption is transient (one fetch): the core decodes and
      // executes the flipped halfword once, and the shared image and
      // its predecode cache never see it.
      return cpu.step_corrupted(static_cast<std::uint16_t>(1u << spec.bit));
    }
  }
  return true;
}

}  // namespace

InjectedRun run_with_fault(const armvm::ProgramRef& prog, armvm::Memory& ram,
                           const FaultSpec& spec,
                           std::uint64_t max_instructions,
                           armvm::Cpu::DecodeMode engine) {
  armvm::Cpu cpu(prog, ram, engine);
  cpu.set_reg(armvm::kLR, armvm::kReturnSentinel);
  cpu.set_reg(armvm::kPC, prog->entry("entry"));
  InjectedRun out;
  try {
    // Up to the trigger in bulk: run_for stops on the same instruction
    // for every engine, or earlier at a halt.
    cpu.run_for(spec.index);
    bool running = !cpu.halted();
    if (running) {
      out.injected = true;
      running = apply_fault(cpu, ram, *prog, spec);
    }
    if (running) {
      // Watchdog: a fault that sends the core into an endless loop is
      // observable on a real node as a reset, not a wrong answer. It
      // trips once max_instructions + 1 have retired without a halt.
      const std::uint64_t done = cpu.stats().instructions;
      if (done <= max_instructions) cpu.run_for(max_instructions + 1 - done);
      if (!cpu.halted()) {
        armvm::BudgetFault f("faultsim: watchdog budget exceeded",
                             cpu.reg(armvm::kPC));
        f.attach_state(cpu.arch_state());
        throw f;
      }
    }
  } catch (const armvm::Fault& f) {
    out.outcome = RunOutcome::kCrashed;
    out.fault_kind = f.kind();
    out.fault_message = f.message();
    if (f.has_state()) out.fault_state = f.state();
  }
  out.instructions = cpu.stats().instructions;
  out.cycles = cpu.stats().cycles;
  return out;
}

}  // namespace eccm0::faultsim
