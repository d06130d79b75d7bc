// Direct unit tests of armvm::Memory: the out-of-line slow paths the
// inline fast paths hide (misalignment, boundaries), and the
// protection-codec layer (parity detect-only, SECDED correct-1/detect-2,
// wait-state accounting, scrubbing, and a core load correcting a latent
// flip on every engine).
#include <gtest/gtest.h>

#include <stdexcept>

#include "armvm/asm.h"
#include "armvm/cpu.h"
#include "armvm/dispatch.h"
#include "armvm/fault.h"
#include "armvm/memmodel.h"

namespace eccm0::armvm {
namespace {

constexpr std::size_t kSize = 0x100;

// ---- Raw slow paths -------------------------------------------------

TEST(MemorySlowPath, MisalignedAccessesFault) {
  Memory mem(kSize);
  EXPECT_THROW((void)mem.load16(kRamBase + 1), AlignmentFault);
  EXPECT_THROW((void)mem.load32(kRamBase + 2), AlignmentFault);
  EXPECT_THROW(mem.store16(kRamBase + 3, 1), AlignmentFault);
  EXPECT_THROW(mem.store32(kRamBase + 1, 1), AlignmentFault);
}

TEST(MemorySlowPath, BoundaryAccessesAreExact) {
  Memory mem(kSize);
  // off + width == size is the last legal access ...
  mem.store32(kRamBase + kSize - 4, 0xA1B2C3D4u);
  EXPECT_EQ(mem.load32(kRamBase + kSize - 4), 0xA1B2C3D4u);
  mem.store16(kRamBase + kSize - 2, 0xBEEF);
  EXPECT_EQ(mem.load16(kRamBase + kSize - 2), 0xBEEF);
  mem.store8(kRamBase + kSize - 1, 0x7E);
  EXPECT_EQ(mem.load8(kRamBase + kSize - 1), 0x7E);
  // ... and one word later it is a BusFault, not a wrap or a crash.
  EXPECT_THROW((void)mem.load32(kRamBase + kSize), BusFault);
  EXPECT_THROW(mem.store32(kRamBase + kSize, 1), BusFault);
  EXPECT_THROW((void)mem.load16(kRamBase + kSize), BusFault);
  EXPECT_THROW((void)mem.load8(kRamBase + kSize), BusFault);
  // Below RAM base is out of range too.
  EXPECT_THROW((void)mem.load32(kRamBase - 4), BusFault);
}

// ---- Constructor validation ----------------------------------------

TEST(MemoryModelCfg, RawConfigDegeneratesToRawMemory) {
  Memory mem(kSize, MemModelConfig::raw());
  EXPECT_FALSE(mem.is_protected());
  EXPECT_EQ(mem.storage_bits_per_word(), 32u);
  mem.store32(kRamBase, 42);
  EXPECT_EQ(mem.load32(kRamBase), 42u);
  EXPECT_EQ(mem.take_pending_wait_cycles(), 0u);
}

TEST(MemoryModelCfg, ProtectedSizeMustBeWordMultiple) {
  EXPECT_THROW(Memory(kSize + 2, MemModelConfig::secded()),
               std::invalid_argument);
  EXPECT_THROW(Memory(kSize + 1, MemModelConfig::parity()),
               std::invalid_argument);
}

TEST(MemoryModelCfg, OnlySecdedAcceptsScrubInterval) {
  MemModelConfig raw_scrub = MemModelConfig::raw();
  raw_scrub.scrub_interval = 64;
  EXPECT_THROW(Memory(kSize, raw_scrub), std::invalid_argument);
  MemModelConfig parity_scrub = MemModelConfig::parity();
  parity_scrub.scrub_interval = 64;
  EXPECT_THROW(Memory(kSize, parity_scrub), std::invalid_argument);
  EXPECT_NO_THROW(Memory(kSize, MemModelConfig::secded(2, 64)));
}

TEST(MemoryModelCfg, NameRoundTripAndRejection) {
  EXPECT_EQ(mem_model_from_name("raw"), MemModelKind::kRaw);
  EXPECT_EQ(mem_model_from_name("parity"), MemModelKind::kParity);
  EXPECT_EQ(mem_model_from_name("secded"), MemModelKind::kSecded);
  EXPECT_THROW(mem_model_from_name("ecc"), std::invalid_argument);
}

// ---- Parity: detect-only --------------------------------------------

TEST(MemoryParity, SingleBitFlipDetected) {
  Memory mem(kSize, MemModelConfig::parity());
  EXPECT_TRUE(mem.is_protected());
  EXPECT_EQ(mem.storage_bits_per_word(), 33u);
  mem.poke32(kRamBase + 8, 0xDEADBEEFu);
  mem.flip_storage_bit(2, 7);
  try {
    (void)mem.load32(kRamBase + 8);
    FAIL() << "expected MemoryIntegrityFault";
  } catch (const MemoryIntegrityFault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kMemoryIntegrity);
    EXPECT_EQ(f.address(), kRamBase + 8);
  }
  // Still catchable by the legacy std type.
  EXPECT_THROW((void)mem.peek32(kRamBase + 8), std::runtime_error);
}

TEST(MemoryParity, FlippedParityBitDetectedAndDoubleFlipEscapes) {
  Memory mem(kSize, MemModelConfig::parity());
  mem.poke32(kRamBase, 0x12345678u);
  mem.flip_storage_bit(0, 32);  // the parity bit itself
  EXPECT_THROW((void)mem.load32(kRamBase), MemoryIntegrityFault);
  mem.poke32(kRamBase, 0x12345678u);  // re-encode clean
  // An even number of flips keeps parity: the model's documented miss.
  mem.flip_storage_bit(0, 3);
  mem.flip_storage_bit(0, 17);
  EXPECT_EQ(mem.load32(kRamBase), 0x12345678u ^ (1u << 3) ^ (1u << 17));
}

// ---- SECDED: correct one, detect two --------------------------------

TEST(MemorySecded, EverySingleBitFlipIsCorrected) {
  Memory mem(kSize, MemModelConfig::secded());
  EXPECT_EQ(mem.storage_bits_per_word(), 39u);
  const std::uint32_t v = 0xC0FFEE42u;
  // All 39 storage positions: data bits 0..31, check bits 32..38.
  for (unsigned bit = 0; bit < 39; ++bit) {
    mem.poke32(kRamBase + 4, v);
    mem.flip_storage_bit(1, bit);
    EXPECT_EQ(mem.load32(kRamBase + 4), v) << "bit " << bit;
  }
  EXPECT_EQ(mem.corrections(), 39u);
}

TEST(MemorySecded, LoadsDoNotRepairStorage) {
  // Correction happens on the fly; the stored codeword stays rotten
  // until a store or a scrub rewrites it. That is what makes the scrub
  // interval an observable parameter.
  Memory mem(kSize, MemModelConfig::secded());
  mem.poke32(kRamBase, 7);
  mem.flip_storage_bit(0, 5);
  EXPECT_EQ(mem.peek32(kRamBase), 7u);
  EXPECT_EQ(mem.peek32(kRamBase), 7u);
  EXPECT_EQ(mem.corrections(), 2u);  // corrected twice = not written back
  mem.scrub();
  EXPECT_EQ(mem.scrub_corrections(), 1u);
  (void)mem.peek32(kRamBase);
  EXPECT_EQ(mem.corrections(), 2u);  // clean after the scrub
}

TEST(MemorySecded, DoubleBitFlipFaults) {
  Memory mem(kSize, MemModelConfig::secded());
  mem.poke32(kRamBase + 12, 0xFFFFFFFFu);
  mem.flip_storage_bit(3, 1);
  mem.flip_storage_bit(3, 30);
  try {
    (void)mem.load32(kRamBase + 12);
    FAIL() << "expected MemoryIntegrityFault";
  } catch (const MemoryIntegrityFault& f) {
    EXPECT_EQ(f.kind(), FaultKind::kMemoryIntegrity);
    EXPECT_EQ(f.address(), kRamBase + 12);
  }
}

TEST(MemorySecded, SubWordStoreIsReadModifyWrite) {
  Memory mem(kSize, MemModelConfig::secded());
  mem.poke32(kRamBase, 0x11223344u);
  mem.flip_storage_bit(0, 9);
  // A byte store decodes (correcting the flip), merges, re-encodes: the
  // whole word is clean afterwards.
  mem.store8(kRamBase + 1, 0xAB);
  EXPECT_EQ(mem.corrections(), 1u);
  EXPECT_EQ(mem.load32(kRamBase), 0x1122AB44u);
  EXPECT_EQ(mem.corrections(), 1u);  // no second correction needed
  // On a rotten word the RMW faults rather than merging garbage.
  mem.poke32(kRamBase + 4, 0);
  mem.flip_storage_bit(1, 2);
  mem.flip_storage_bit(1, 3);
  EXPECT_THROW(mem.store16(kRamBase + 4, 0xF00D), MemoryIntegrityFault);
}

TEST(MemorySecded, AlignmentAndRangeOutrankIntegrity) {
  Memory mem(kSize, MemModelConfig::secded());
  mem.poke32(kRamBase, 1);
  mem.flip_storage_bit(0, 0);
  mem.flip_storage_bit(0, 1);
  // The rotten word is never consulted for a misaligned or out-of-range
  // address: fault precedence is alignment, then range, then integrity.
  EXPECT_THROW((void)mem.load32(kRamBase + 2), AlignmentFault);
  EXPECT_THROW((void)mem.load32(kRamBase + kSize), BusFault);
}

TEST(MemorySecded, FlipStorageBitRejectsOutOfRange) {
  Memory mem(kSize, MemModelConfig::secded());
  EXPECT_THROW(mem.flip_storage_bit(0, 39), std::out_of_range);
  EXPECT_THROW(mem.flip_storage_bit(kSize / 4, 0), std::out_of_range);
  Memory raw(kSize);
  EXPECT_THROW(raw.flip_storage_bit(0, 32), std::out_of_range);
}

// ---- Wait states and scrubbing --------------------------------------

TEST(MemorySecded, AccessesChargeWaitStatesPokesDoNot) {
  Memory mem(kSize, MemModelConfig::secded(2));
  mem.poke32(kRamBase, 5);  // harness poke: free
  EXPECT_EQ(mem.take_pending_wait_cycles(), 0u);
  (void)mem.load32(kRamBase);
  mem.store8(kRamBase + 1, 2);
  EXPECT_EQ(mem.protected_accesses(), 2u);
  EXPECT_EQ(mem.take_pending_wait_cycles(), 4u);
  EXPECT_EQ(mem.take_pending_wait_cycles(), 0u);  // drained
  (void)mem.peek32(kRamBase);  // harness peek: free
  EXPECT_EQ(mem.take_pending_wait_cycles(), 0u);
}

TEST(MemorySecded, AutoScrubFiresEveryInterval) {
  Memory mem(kSize, MemModelConfig::secded(1, 4));
  mem.poke32(kRamBase, 9);
  mem.flip_storage_bit(0, 11);
  for (int i = 0; i < 4; ++i) (void)mem.load32(kRamBase + 8);
  EXPECT_EQ(mem.scrub_passes(), 1u);
  EXPECT_EQ(mem.scrub_corrections(), 1u);
  EXPECT_EQ(mem.accesses_since_scrub(), 0u);
  // The pass swept every word at wait_states cycles each, on top of the
  // four access charges.
  EXPECT_EQ(mem.take_pending_wait_cycles(), 4u + kSize / 4);
}

TEST(MemorySecded, ScrubFaultsOnUncorrectableWord) {
  Memory mem(kSize, MemModelConfig::secded());
  mem.poke32(kRamBase + 20, 3);
  mem.flip_storage_bit(5, 4);
  mem.flip_storage_bit(5, 33);
  EXPECT_THROW(mem.scrub(), MemoryIntegrityFault);
}

// ---- The core's own loads go through the codec -----------------------

TEST(MemorySecded, CoreLoadCorrectsLatentFlipOnEveryEngine) {
  // A latent single-bit error in storage: an `ldr` the core retires
  // returns the corrected word and counts one correction, whichever
  // engine runs it.
  const ProgramRef prog = assemble(R"(
entry: movs r1, #1
       lsls r1, r1, #29   ; RAM base
       ldr r0, [r1]
       bx lr
)");
  for (const Cpu::DecodeMode mode :
       {Cpu::DecodeMode::kPerStep, Cpu::DecodeMode::kPredecode,
        Cpu::DecodeMode::kThreaded}) {
    SCOPED_TRACE(decode_mode_name(mode));
    Memory mem(1 << 12, MemModelConfig::secded(2));
    Cpu cpu(prog, mem, mode);
    mem.poke32(kRamBase, 0x5EEDBEEFu);
    mem.flip_storage_bit(0, 13);
    cpu.call(prog->entry("entry"), {});
    EXPECT_EQ(cpu.reg(0), 0x5EEDBEEFu);
    EXPECT_EQ(mem.corrections(), 1u);
  }
}

}  // namespace
}  // namespace eccm0::armvm
