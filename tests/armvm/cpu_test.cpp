// Semantic tests of the Thumb interpreter: arithmetic flags, memory,
// control flow, the M0+ cycle model and the call ABI. Every case runs
// on each engine: per-step and predecode retire each instruction
// through Cpu::exec, threaded inside fused blocks wherever the code
// fuses.
#include "armvm/cpu.h"

#include <gtest/gtest.h>

#include "armvm/asm.h"
#include "armvm/dispatch.h"

namespace eccm0::armvm {
namespace {

struct Machine {
  Machine(const std::string& src, Cpu::DecodeMode mode,
          std::size_t ram = 1 << 16)
      : program(assemble(src)), mem(ram), cpu(program, mem, mode) {}
  ProgramRef program;
  Memory mem;
  Cpu cpu;
};

class CpuTest : public ::testing::TestWithParam<Cpu::DecodeMode> {};

INSTANTIATE_TEST_SUITE_P(
    Engines, CpuTest,
    ::testing::Values(Cpu::DecodeMode::kPerStep, Cpu::DecodeMode::kPredecode,
                      Cpu::DecodeMode::kThreaded),
    [](const ::testing::TestParamInfo<Cpu::DecodeMode>& info) {
      return std::string(decode_mode_name(info.param));
    });

TEST_P(CpuTest, ReturnsFromCall) {
  Machine m(R"(
fn: movs r0, #7
    bx lr
)", GetParam());
  const RunStats s = m.cpu.call(m.program->entry("fn"), {});
  EXPECT_EQ(m.cpu.reg(0), 7u);
  EXPECT_EQ(s.instructions, 2u);
  EXPECT_EQ(s.cycles, 1u + 2u);  // movs 1 + bx 2
}

// set_arch_state() sets registers and flags only: the retired-work
// counters stay this core's own execution history.
TEST_P(CpuTest, SetArchStateLeavesRetiredWorkCountersAlone) {
  Machine m(R"(
fn: movs r0, #7
    bx lr
)", GetParam());
  ArchState s = m.cpu.arch_state();
  m.cpu.call(m.program->entry("fn"), {});
  const RunStats ran = m.cpu.stats();
  s.r[0] = 9;
  s.c = true;
  m.cpu.set_arch_state(s);
  EXPECT_EQ(m.cpu.reg(0), 9u);
  EXPECT_TRUE(m.cpu.flag_c());
  EXPECT_TRUE(m.cpu.stats() == ran);
  EXPECT_EQ(m.cpu.arch_state().instructions, 2u);
}

// A transient fetch fault: the flipped halfword is what the one step
// decodes and what its own code-space loads read; the next fetch of the
// slot is pristine again, and an undecodable flip faults at the slot.
TEST_P(CpuTest, StepCorruptedFlipsOneFetch) {
  Machine m(R"(
fn: movs r2, #0
    ldrh r0, [r1, #0]
    bx lr
)", GetParam());
  const std::uint16_t ldrh = m.program->code()[1];
  m.cpu.set_reg(kPC, 2);
  m.cpu.set_reg(1, 2);  // the ldrh's own address
  ASSERT_TRUE(m.cpu.step_corrupted(0x0001));  // ldrh r1, [r1, #0]
  EXPECT_EQ(m.cpu.reg(1), ldrh ^ 1u);
  EXPECT_EQ(m.cpu.reg(0), 0u);
  EXPECT_EQ(m.cpu.reg(kPC), 4u);
  EXPECT_EQ(m.cpu.stats().instructions, 1u);
  EXPECT_EQ(m.cpu.stats().cycles, 2u);

  m.cpu.set_reg(kPC, 2);
  m.cpu.set_reg(1, 2);
  ASSERT_TRUE(m.cpu.step());
  EXPECT_EQ(m.cpu.reg(0), ldrh);

  m.cpu.set_reg(kPC, 2);
  try {
    m.cpu.step_corrupted(0x6000);  // 0xE8xx: a 32-bit prefix
    FAIL() << "no decode fault";
  } catch (const DecodeFault& f) {
    EXPECT_EQ(f.address(), 2u);
    EXPECT_EQ(f.state().r[kPC], 2u);
  }
}

TEST_P(CpuTest, AddSubFlags) {
  Machine m(R"(
fn: movs r0, #0
    subs r0, #1       ; 0 - 1 = 0xFFFFFFFF, N=1 C=0 (borrow)
    bx lr
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {});
  EXPECT_EQ(m.cpu.reg(0), 0xFFFFFFFFu);
  EXPECT_TRUE(m.cpu.flag_n());
  EXPECT_FALSE(m.cpu.flag_c());
  EXPECT_FALSE(m.cpu.flag_z());
}

TEST_P(CpuTest, AdcChainAdds64Bit) {
  // 64-bit add: (r0,r1) + (r2,r3) -> (r0,r1).
  Machine m(R"(
fn: adds r0, r0, r2
    adcs r1, r3
    bx lr
)", GetParam());
  m.cpu.set_reg(0, 0xFFFFFFFF);
  m.cpu.set_reg(1, 0x1);
  m.cpu.set_reg(2, 0x2);
  m.cpu.set_reg(3, 0x10);
  m.cpu.set_reg(15, m.program->entry("fn"));
  m.cpu.set_reg(14, kReturnSentinel);
  while (m.cpu.step()) {
  }
  EXPECT_EQ(m.cpu.reg(0), 0x1u);         // 0xFFFFFFFF + 2 = 0x1_00000001
  EXPECT_EQ(m.cpu.reg(1), 0x12u);        // 1 + 0x10 + carry
}

TEST_P(CpuTest, OverflowFlag) {
  Machine m(R"(
fn: movs r0, #1
    lsls r0, r0, #31   ; r0 = 0x80000000
    subs r0, #1        ; 0x80000000 - 1 overflows (min-int - 1)
    bx lr
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {});
  EXPECT_TRUE(m.cpu.flag_v());
  EXPECT_EQ(m.cpu.reg(0), 0x7FFFFFFFu);
}

TEST_P(CpuTest, ShiftCarrySemantics) {
  Machine m(R"(
fn: movs r0, #3
    lsrs r0, r0, #1    ; r0 = 1, C = 1
    bx lr
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {});
  EXPECT_EQ(m.cpu.reg(0), 1u);
  EXPECT_TRUE(m.cpu.flag_c());
}

TEST_P(CpuTest, MulAndLogic) {
  Machine m(R"(
fn: muls r0, r1
    eors r0, r2
    bx lr
)", GetParam());
  const RunStats s = m.cpu.call(m.program->entry("fn"), {6, 7, 0xFF});
  EXPECT_EQ(m.cpu.reg(0), (6u * 7u) ^ 0xFFu);
  EXPECT_EQ(s.cycles, 1u + 1u + 2u);
}

TEST_P(CpuTest, MemoryLoadStore) {
  Machine m(R"(
fn: str r1, [r0]
    ldr r2, [r0, #0]
    adds r2, #1
    str r2, [r0, #4]
    bx lr
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {kRamBase + 0x100, 41});
  EXPECT_EQ(m.mem.load32(kRamBase + 0x100), 41u);
  EXPECT_EQ(m.mem.load32(kRamBase + 0x104), 42u);
}

TEST_P(CpuTest, ByteAndHalfAccess) {
  Machine m(R"(
fn: strb r1, [r0]
    strb r1, [r0, #1]
    ldrh r2, [r0]
    bx lr
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {kRamBase + 0x40, 0xAB});
  EXPECT_EQ(m.cpu.reg(2), 0xABABu);
}

TEST_P(CpuTest, SignedLoads) {
  Machine m(R"(
fn: movs r2, #0
    ldrsb r1, [r0, r2]
    movs r3, #2
    ldrsh r4, [r0, r3]
    bx lr
)", GetParam());
  m.mem.store8(kRamBase + 0, 0x80);        // -128 as signed byte
  m.mem.store16(kRamBase + 2, 0xFFFE);     // -2 as signed halfword
  m.cpu.call(m.program->entry("fn"), {kRamBase});
  EXPECT_EQ(m.cpu.reg(1), static_cast<std::uint32_t>(-128));
  EXPECT_EQ(m.cpu.reg(4), static_cast<std::uint32_t>(-2));
}

TEST_P(CpuTest, LoopWithBranches) {
  // sum 1..10
  Machine m(R"(
fn:   movs r1, #0
      movs r2, #10
loop: adds r1, r1, r2
      subs r2, #1
      bne loop
      movs r0, r1
      bx lr
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {});
  EXPECT_EQ(m.cpu.reg(0), 55u);
}

TEST_P(CpuTest, BranchCycleCost) {
  // Taken branch = 2 cycles, not taken = 1.
  Machine m(R"(
fn:  cmp r0, #0
     beq skip
     movs r1, #1
skip: bx lr
)", GetParam());
  const RunStats taken = m.cpu.call(m.program->entry("fn"), {0});
  // cmp 1 + beq taken 2 + bx 2 = 5
  EXPECT_EQ(taken.cycles, 5u);
  const RunStats not_taken = m.cpu.call(m.program->entry("fn"), {1});
  // cmp 1 + beq not-taken 1 + movs 1 + bx 2 = 5
  EXPECT_EQ(not_taken.cycles, 5u);
  EXPECT_EQ(not_taken.instructions, 4u);
}

TEST_P(CpuTest, LoadStoreCycleCost) {
  Machine m(R"(
fn: ldr r1, [r0]
    str r1, [r0, #4]
    bx lr
)", GetParam());
  const RunStats s = m.cpu.call(m.program->entry("fn"), {kRamBase});
  EXPECT_EQ(s.cycles, 2u + 2u + 2u);
}

TEST_P(CpuTest, LdmStmCostAndWriteback) {
  Machine m(R"(
fn: ldmia r0!, {r1, r2, r3}
    stmia r4!, {r1, r2, r3}
    bx lr
)", GetParam());
  m.mem.write_words(kRamBase, std::array<std::uint32_t, 3>{10, 20, 30});
  m.cpu.set_reg(4, kRamBase + 0x100);
  const RunStats s = m.cpu.call(m.program->entry("fn"), {kRamBase});
  EXPECT_EQ(m.cpu.reg(0), kRamBase + 12);
  EXPECT_EQ(m.cpu.reg(4), kRamBase + 0x100 + 12);
  EXPECT_EQ(m.mem.load32(kRamBase + 0x104), 20u);
  EXPECT_EQ(s.cycles, (1u + 3u) * 2 + 2u);  // two 1+N transfers + bx
}

TEST_P(CpuTest, PushPopRoundTrip) {
  Machine m(R"(
fn: push {r4, r5, lr}
    movs r4, #1
    movs r5, #2
    pop {r4, r5, pc}
)", GetParam());
  m.cpu.set_reg(4, 0xAAAA);
  m.cpu.set_reg(5, 0xBBBB);
  const RunStats s = m.cpu.call(m.program->entry("fn"), {});
  EXPECT_EQ(m.cpu.reg(4), 0xAAAAu);  // restored
  EXPECT_EQ(m.cpu.reg(5), 0xBBBBu);
  // push 1+N, two movs, pop {..., pc} 3+N.
  EXPECT_EQ(s.cycles, (1u + 3u) + 2u + (3u + 3u));
}

TEST_P(CpuTest, BlAndNestedCall) {
  Machine m(R"(
main: push {lr}
      bl helper
      adds r0, #1
      pop {pc}
helper: movs r0, #10
      bx lr
)", GetParam());
  m.cpu.call(m.program->entry("main"), {});
  EXPECT_EQ(m.cpu.reg(0), 11u);
}

TEST_P(CpuTest, HiRegisterMovAdd) {
  Machine m(R"(
fn: mov r8, r0
    mov r1, r8
    add r1, r8
    bx lr
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {21});
  EXPECT_EQ(m.cpu.reg(1), 42u);
}

TEST_P(CpuTest, HiRegisterWritesToPcBranch) {
  Machine m(R"(
fn: movs r1, #2
    add pc, r1         ; pc+4 + 2 skips the next two instructions
    movs r0, #1
    movs r0, #3
    movs r0, #7
    mov pc, lr
)", GetParam());
  const RunStats s = m.cpu.call(m.program->entry("fn"), {});
  EXPECT_EQ(m.cpu.reg(0), 7u);
  EXPECT_EQ(s.instructions, 4u);
  EXPECT_EQ(s.cycles, 1u + 2u + 1u + 2u);  // a write to PC costs 2
}

TEST_P(CpuTest, LiteralPoolLoad) {
  Machine m(R"(
fn: ldr r0, =0xDEADBEEF
    ldr r1, =0x12345678
    bx lr
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {});
  EXPECT_EQ(m.cpu.reg(0), 0xDEADBEEFu);
  EXPECT_EQ(m.cpu.reg(1), 0x12345678u);
}

TEST_P(CpuTest, EnergyHistogramAccumulates) {
  Machine m(R"(
fn: ldr r1, [r0]
    eors r1, r1
    lsls r1, r1, #1
    adds r1, #1
    muls r1, r1
    str r1, [r0]
    bx lr
)", GetParam());
  const RunStats s = m.cpu.call(m.program->entry("fn"), {kRamBase});
  using costmodel::InstrClass;
  auto cy = [&](InstrClass c) {
    return s.histogram.cycles[static_cast<int>(c)];
  };
  EXPECT_EQ(cy(InstrClass::kLdr), 2u);
  EXPECT_EQ(cy(InstrClass::kStr), 2u);
  EXPECT_EQ(cy(InstrClass::kEor), 1u);
  EXPECT_EQ(cy(InstrClass::kLsl), 1u);
  EXPECT_EQ(cy(InstrClass::kAdd), 1u);
  EXPECT_EQ(cy(InstrClass::kMul), 1u);
  EXPECT_EQ(cy(InstrClass::kBranch), 2u);
  const auto e = s.energy();
  EXPECT_GT(e.energy_pj, 0.0);
  EXPECT_EQ(e.cycles, s.cycles);
}

TEST_P(CpuTest, InstructionBudgetGuard) {
  Machine m(R"(
fn: b fn
)", GetParam());
  EXPECT_THROW(m.cpu.call(m.program->entry("fn"), {}, 1000),
               std::runtime_error);
}

TEST_P(CpuTest, UnalignedAccessFaults) {
  Machine m(R"(
fn: ldr r1, [r0]
    bx lr
)", GetParam());
  EXPECT_THROW(m.cpu.call(m.program->entry("fn"), {kRamBase + 2}),
               std::runtime_error);
}

TEST_P(CpuTest, OutOfRangeAccessFaults) {
  Machine m(R"(
fn: str r1, [r0]
    bx lr
)",
            GetParam(), 256);
  EXPECT_THROW(m.cpu.call(m.program->entry("fn"), {kRamBase + 512}),
               std::out_of_range);
}

TEST_P(CpuTest, BkptHalts) {
  Machine m(R"(
fn: movs r0, #5
    bkpt
    movs r0, #9
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {});
  EXPECT_EQ(m.cpu.reg(0), 5u);
  EXPECT_TRUE(m.cpu.halted());
  EXPECT_FALSE(m.cpu.step());  // latched: nothing more retires
  EXPECT_EQ(m.cpu.stats().instructions, 2u);
}

TEST_P(CpuTest, RsbNegates) {
  Machine m(R"(
fn: rsbs r0, r0, #0
    bx lr
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {5});
  EXPECT_EQ(m.cpu.reg(0), static_cast<std::uint32_t>(-5));
}

TEST_P(CpuTest, RegisterShifts) {
  Machine m(R"(
fn: lsls r0, r1
    lsrs r2, r3
    bx lr
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {1, 4, 0x100, 4});
  EXPECT_EQ(m.cpu.reg(0), 16u);
  EXPECT_EQ(m.cpu.reg(2), 0x10u);
}

TEST_P(CpuTest, ComparisonBranchesSignedUnsigned) {
  // blt is signed, blo (bcc) unsigned.
  Machine m(R"(
fn:  cmp r0, r1
     blt less
     movs r2, #0
     bx lr
less: movs r2, #1
     bx lr
)", GetParam());
  m.cpu.call(m.program->entry("fn"), {static_cast<std::uint32_t>(-1), 1});
  EXPECT_EQ(m.cpu.reg(2), 1u);  // -1 < 1 signed
  m.cpu.call(m.program->entry("fn"), {0xFFFFFFFF, 1});
  EXPECT_EQ(m.cpu.reg(2), 1u);  // same bits
}

}  // namespace
}  // namespace eccm0::armvm
