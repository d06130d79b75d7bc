// The fault-injection engine: deterministic seeded injection on the
// armvm core, and the kP campaign's classification invariants.
#include <gtest/gtest.h>

#include <array>
#include <string>

#include "armvm/asm.h"
#include "asmkernels/gen.h"
#include "ec/protect.h"
#include "ec/scalarmul.h"
#include "ecp/ops.h"
#include "faultsim/biterr.h"
#include "faultsim/campaign.h"
#include "faultsim/inject.h"
#include "gf2/k233.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

namespace eccm0::faultsim {
namespace {

constexpr std::size_t kRamSize = 0x800;

armvm::ProgramRef mul_program() {
  return armvm::assemble(asmkernels::gen_mul_fixed(true));
}

void write_operands(armvm::Memory& mem) {
  gf2::k233::Fe x{}, y{};
  Rng rng(0xFEED);
  for (auto& w : x) w = rng.next_word();
  for (auto& w : y) w = rng.next_word();
  x[7] &= 0x1FF;
  y[7] &= 0x1FF;
  mem.write_words(armvm::kRamBase + asmkernels::kXOff,
                  std::span<const std::uint32_t>(x.data(), x.size()));
  mem.write_words(armvm::kRamBase + asmkernels::kYOff,
                  std::span<const std::uint32_t>(y.data(), y.size()));
}

TEST(Inject, NoFaultWhenIndexBeyondRetirement) {
  const armvm::ProgramRef prog = mul_program();
  armvm::Memory mem(kRamSize);
  write_operands(mem);
  FaultSpec never;
  never.index = ~std::uint64_t{0};
  const InjectedRun run = run_with_fault(prog, mem, never);
  EXPECT_EQ(run.outcome, RunOutcome::kCompleted);
  EXPECT_FALSE(run.injected);
  EXPECT_GT(run.instructions, 100u);
}

TEST(Inject, SameSpecSameOutcomeBitForBit) {
  const armvm::ProgramRef prog = mul_program();
  auto run_once = [&](const FaultSpec& spec) {
    armvm::Memory mem(kRamSize);
    write_operands(mem);
    const InjectedRun run = run_with_fault(prog, mem, spec);
    // Fold the result words in so value corruption is part of the
    // fingerprint, not just control flow.
    std::string fp = std::to_string(static_cast<int>(run.outcome)) + ":" +
                     std::to_string(run.instructions) + ":" +
                     std::to_string(run.cycles) + ":" + run.fault_message;
    if (run.outcome == RunOutcome::kCompleted) {
      for (std::uint32_t w :
           mem.read_words(armvm::kRamBase + asmkernels::kVOff, 8)) {
        fp += "," + std::to_string(w);
      }
    }
    return fp;
  };
  Rng rng(123);
  for (const FaultModel m :
       {FaultModel::kRegisterFlip, FaultModel::kRamFlip,
        FaultModel::kInstructionSkip, FaultModel::kOpcodeFlip}) {
    for (int i = 0; i < 10; ++i) {
      const FaultSpec spec = sample_spec(rng, m, 1500, 0xA0);
      EXPECT_EQ(run_once(spec), run_once(spec))
          << fault_model_name(m) << " spec not deterministic";
    }
  }
}

/// Kernel RAM under `model` holding the standard operands of the kernel
/// `info` describes (`mul` or a prime `-mont`).
armvm::Memory standard_ram(const workloads::KernelInfo& info,
                           const armvm::MemModelConfig& model) {
  armvm::Memory mem(kRamSize, model);
  if (info.binary_field) {
    const workloads::KernelOperands& od = workloads::KernelOperands::standard();
    workloads::load_mul_inputs(mem, od.x, od.y);
  } else {
    const workloads::CurveRef& curve = workloads::curve_from_name(info.curve);
    const workloads::PrimeOperands& od =
        workloads::PrimeOperands::standard(curve);
    workloads::load_prime_modulus(mem, curve);
    workloads::load_prime_mul_inputs(mem, od.x, od.y);
  }
  return mem;
}

/// One engine's run: the InjectedRun plus the whole RAM storage after
/// it (data and check bytes), which holds the product words.
struct EngineRun {
  InjectedRun run;
  std::vector<std::uint8_t> ram;
  std::vector<std::uint8_t> check;
};

// The injector runs the instructions around the fault point in bulk on
// the configured engine; the per-step engine is its reference. Every
// field of the result and the RAM it leaves must agree.
TEST(Inject, EveryEngineGivesTheSameRun) {
  const armvm::Cpu::DecodeMode engines[] = {
      armvm::Cpu::DecodeMode::kPerStep, armvm::Cpu::DecodeMode::kPredecode,
      armvm::Cpu::DecodeMode::kThreaded};
  for (const char* kernel : {"mul", "p192-mont"}) {
    const armvm::ProgramRef prog = workloads::kernel(kernel);
    const workloads::KernelInfo info =
        workloads::KernelRegistry::instance().info(kernel);
    // Each case: a memory model, a fault spec, and a BER of load-time
    // bit errors (drawn from `seed`) applied before the run.
    auto run_case = [&](const armvm::MemModelConfig& model,
                        const FaultSpec& spec, double ber,
                        std::uint64_t seed, armvm::Cpu::DecodeMode engine) {
      armvm::Memory mem = standard_ram(info, model);
      if (ber > 0) {
        Rng rng(seed);
        inject_bit_errors(mem, ber, rng);
      }
      EngineRun r;
      r.run = run_with_fault(prog, mem, spec, 20'000, engine);
      r.ram.assign(mem.bytes().begin(), mem.bytes().end());
      r.check.assign(mem.check_bytes().begin(), mem.check_bytes().end());
      return r;
    };
    auto expect_engines_agree = [&](const armvm::MemModelConfig& model,
                                    const FaultSpec& spec, double ber,
                                    std::uint64_t seed) {
      const EngineRun ref = run_case(model, spec, ber, seed, engines[0]);
      for (std::size_t e = 1; e < std::size(engines); ++e) {
        const EngineRun got = run_case(model, spec, ber, seed, engines[e]);
        const std::string where =
            std::string(kernel) + " " + fault_model_name(spec.model) +
            " index " + std::to_string(spec.index) + " seed " +
            std::to_string(seed) + " engine " + std::to_string(e);
        EXPECT_TRUE(got.run == ref.run) << where;
        EXPECT_EQ(got.run.fault_message, ref.run.fault_message) << where;
        EXPECT_TRUE(got.ram == ref.ram) << where;
        EXPECT_TRUE(got.check == ref.check) << where;
      }
      return ref.run;
    };

    Rng rng(0xE16);
    const std::uint64_t retires =
        run_case(armvm::MemModelConfig::raw(), FaultSpec{.index = ~0ull}, 0,
                 0, engines[0])
            .run.instructions;
    unsigned crashed = 0;
    for (const FaultModel m :
         {FaultModel::kRegisterFlip, FaultModel::kRamFlip,
          FaultModel::kInstructionSkip, FaultModel::kOpcodeFlip}) {
      for (int i = 0; i < 60; ++i) {
        const FaultSpec spec = sample_spec(rng, m, retires, kRamSize / 4);
        const InjectedRun run =
            expect_engines_agree(armvm::MemModelConfig::raw(), spec, 0, 0);
        if (run.outcome == RunOutcome::kCrashed) ++crashed;
      }
    }
    EXPECT_GT(crashed, 0u) << kernel;
    // Load-time bit errors under the protected models: wait states,
    // corrections, scrubbing and integrity faults on every engine.
    for (const armvm::MemModelKind kind :
         {armvm::MemModelKind::kParity, armvm::MemModelKind::kSecded}) {
      const armvm::MemModelConfig model = armvm::MemModelConfig::for_kind(
          kind, kind == armvm::MemModelKind::kSecded ? 64 : 0);
      for (std::uint64_t seed = 0; seed < 24; ++seed) {
        expect_engines_agree(model, FaultSpec{.index = ~0ull}, 2e-3, seed);
      }
    }
  }
}

// The watchdog trips once max_instructions + 1 have retired, on every
// engine, even when that point falls inside a fusable block.
TEST(Inject, WatchdogTripsAtTheSamePointOnEveryEngine) {
  const armvm::ProgramRef prog = armvm::assemble(R"(
entry: adds r0, #1
    adds r1, #1
    adds r2, #1
    b entry
)");
  for (const armvm::Cpu::DecodeMode engine :
       {armvm::Cpu::DecodeMode::kPerStep, armvm::Cpu::DecodeMode::kPredecode,
        armvm::Cpu::DecodeMode::kThreaded}) {
    armvm::Memory mem(kRamSize);
    FaultSpec spec;
    spec.index = 5;
    spec.reg = 3;
    const InjectedRun run = run_with_fault(prog, mem, spec, 1001, engine);
    ASSERT_EQ(run.outcome, RunOutcome::kCrashed);
    EXPECT_TRUE(run.injected);
    EXPECT_EQ(run.fault_kind, armvm::FaultKind::kBudgetExhausted);
    EXPECT_EQ(run.instructions, 1002u);
    EXPECT_EQ(run.fault_state.instructions, 1002u);
    EXPECT_EQ(run.fault_state.r[0], 251u);  // 1002 = 250 loops + 2
  }
}

TEST(Inject, SampleSpecIsSeedDeterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 50; ++i) {
    const FaultSpec sa = sample_spec(a, FaultModel::kRamFlip, 1000, 160);
    const FaultSpec sb = sample_spec(b, FaultModel::kRamFlip, 1000, 160);
    EXPECT_EQ(sa.index, sb.index);
    EXPECT_EQ(sa.ram_word, sb.ram_word);
    EXPECT_EQ(sa.bit, sb.bit);
    EXPECT_LT(sa.index, 1000u);
    EXPECT_LT(sa.ram_word, 160u);
    EXPECT_LT(sa.bit, 32u);
  }
}

TEST(Inject, RegisterFlipOfPcCrashesWithTypedFault) {
  const armvm::ProgramRef prog = mul_program();
  armvm::Memory mem(kRamSize);
  write_operands(mem);
  FaultSpec spec;
  spec.model = FaultModel::kRegisterFlip;
  spec.index = 10;
  spec.reg = 15;  // PC
  spec.bit = 0;   // odd PC => alignment fault
  const InjectedRun run = run_with_fault(prog, mem, spec);
  ASSERT_EQ(run.outcome, RunOutcome::kCrashed);
  EXPECT_TRUE(run.injected);
  EXPECT_EQ(run.fault_kind, armvm::FaultKind::kAlignmentFault);
  EXPECT_EQ(run.fault_message, "Cpu: odd PC");
}

TEST(Campaign, ThreadCountDoesNotChangeTheTally) {
  CampaignConfig cfg;
  cfg.seed = 0x7E57;
  cfg.runs_per_model = 8;
  cfg.threads = 1;
  const CampaignResult serial = run_kp_campaign(cfg);
  for (unsigned threads : {2u, 8u}) {
    cfg.threads = threads;
    const CampaignResult par = run_kp_campaign(cfg);
    for (unsigned m = 0; m < kNumFaultModels; ++m) {
      EXPECT_EQ(par.models[m].injected, serial.models[m].injected)
          << threads << " threads";
      for (unsigned p = 0; p < kNumProfiles; ++p) {
        const OutcomeTally& ts = serial.models[m].per_profile[p];
        const OutcomeTally& tp = par.models[m].per_profile[p];
        EXPECT_EQ(tp.correct, ts.correct);
        EXPECT_EQ(tp.detected, ts.detected);
        EXPECT_EQ(tp.crashed, ts.crashed);
        EXPECT_EQ(tp.silent, ts.silent);
      }
    }
  }
}

TEST(Campaign, DeterministicAcrossRuns) {
  CampaignConfig cfg;
  cfg.seed = 0xD5EED;
  cfg.runs_per_model = 12;
  const CampaignResult a = run_kp_campaign(cfg);
  const CampaignResult b = run_kp_campaign(cfg);
  for (unsigned m = 0; m < kNumFaultModels; ++m) {
    EXPECT_EQ(a.models[m].injected, b.models[m].injected);
    for (unsigned p = 0; p < kNumProfiles; ++p) {
      const OutcomeTally& ta = a.models[m].per_profile[p];
      const OutcomeTally& tb = b.models[m].per_profile[p];
      EXPECT_EQ(ta.correct, tb.correct);
      EXPECT_EQ(ta.detected, tb.detected);
      EXPECT_EQ(ta.crashed, tb.crashed);
      EXPECT_EQ(ta.silent, tb.silent);
    }
  }
}

TEST(Campaign, ProtectionEliminatesSilentCorruption) {
  CampaignConfig cfg;
  cfg.runs_per_model = 20;
  const CampaignResult res = run_kp_campaign(cfg);
  bool saw_silent_unprotected = false;
  for (unsigned m = 0; m < kNumFaultModels; ++m) {
    const auto& profiles = res.models[m].per_profile;
    // Every run lands in exactly one bucket, for every profile.
    for (unsigned p = 0; p < kNumProfiles; ++p) {
      EXPECT_EQ(profiles[p].total(), res.models[m].runs);
    }
    // Crash/correct classification is profile-independent.
    for (unsigned p = 1; p < kNumProfiles; ++p) {
      EXPECT_EQ(profiles[p].crashed, profiles[0].crashed);
      EXPECT_EQ(profiles[p].correct, profiles[0].correct);
    }
    if (profiles[0].silent > 0) saw_silent_unprotected = true;
    // Full protection: nothing silent.
    EXPECT_EQ(profiles[kNumProfiles - 1].silent, 0u)
        << fault_model_name(res.models[m].model);
  }
  EXPECT_TRUE(saw_silent_unprotected);
}

TEST(BitErrors, InjectionIsSeedDeterministic) {
  auto storage_fingerprint = [](const armvm::Memory& mem) {
    std::string fp;
    for (std::uint8_t b : mem.bytes()) fp += static_cast<char>(b);
    for (std::uint8_t b : mem.check_bytes()) fp += static_cast<char>(b);
    return fp;
  };
  for (const auto kind : {armvm::MemModelKind::kRaw,
                          armvm::MemModelKind::kParity,
                          armvm::MemModelKind::kSecded}) {
    armvm::Memory a(kRamSize, armvm::MemModelConfig::for_kind(kind));
    armvm::Memory b(kRamSize, armvm::MemModelConfig::for_kind(kind));
    write_operands(a);
    write_operands(b);
    Rng ra(0xB17E44), rb(0xB17E44);
    const BitErrorStats sa = inject_bit_errors(a, 1e-3, ra);
    const BitErrorStats sb = inject_bit_errors(b, 1e-3, rb);
    EXPECT_EQ(sa.flipped_bits, sb.flipped_bits);
    EXPECT_EQ(sa.words_touched, sb.words_touched);
    EXPECT_EQ(storage_fingerprint(a), storage_fingerprint(b))
        << armvm::mem_model_name(kind);
    // The injector sees the model's physical storage width.
    EXPECT_EQ(sa.storage_bits,
              (kRamSize / 4) * a.storage_bits_per_word());
    EXPECT_GT(sa.flipped_bits, 0u);
  }
  // Every storage bit is an independent draw, so the seed consumption
  // is fixed: two different BERs flip different bits but leave the RNG
  // at the same position.
  Rng r1(7), r2(7);
  armvm::Memory m1(kRamSize, armvm::MemModelConfig::secded());
  armvm::Memory m2(kRamSize, armvm::MemModelConfig::secded());
  (void)inject_bit_errors(m1, 1e-5, r1);
  (void)inject_bit_errors(m2, 1e-2, r2);
  EXPECT_EQ(r1.next_u64(), r2.next_u64());
}

TEST(MemCampaign, ThreadCountDoesNotChangeTheTally) {
  // Both field families: the binary sweep and the prime (Montgomery
  // kernel in a Jacobian wNAF kP) sweep share one determinism contract.
  for (const char* curve : {"sect233k1", "secp192r1"}) {
    MemCampaignConfig cfg;
    cfg.curve = curve;
    cfg.seed = 0x5EC0;
    cfg.runs_per_cell = 6;
    cfg.bers = {1e-4, 1e-3};
    cfg.scrub_interval = 64;
    cfg.threads = 1;
    const MemCampaignResult serial = run_mem_campaign(cfg);
    cfg.threads = 3;
    const MemCampaignResult par = run_mem_campaign(cfg);
    ASSERT_EQ(serial.models.size(), par.models.size()) << curve;
    for (std::size_t m = 0; m < serial.models.size(); ++m) {
      const MemModelReport& s = serial.models[m];
      const MemModelReport& p = par.models[m];
      EXPECT_EQ(s.clean_cycles, p.clean_cycles) << curve;
      ASSERT_EQ(s.cells.size(), p.cells.size()) << curve;
      for (std::size_t c = 0; c < s.cells.size(); ++c) {
        EXPECT_EQ(s.cells[c].flipped_bits, p.cells[c].flipped_bits) << curve;
        EXPECT_EQ(s.cells[c].hw_corrections, p.cells[c].hw_corrections)
            << curve;
        EXPECT_EQ(s.cells[c].scrub_corrections, p.cells[c].scrub_corrections)
            << curve;
        EXPECT_EQ(s.cells[c].per_profile, p.cells[c].per_profile) << curve;
      }
    }
  }
}

TEST(MemCampaign, ClassificationInvariants) {
  MemCampaignConfig cfg;
  cfg.runs_per_cell = 12;
  cfg.bers = {1e-4, 1e-3};
  cfg.scrub_interval = 1024;
  const MemCampaignResult res = run_mem_campaign(cfg);
  ASSERT_EQ(res.models.size(), 3u);
  const MemModelReport& raw = res.models[0];
  const MemModelReport& parity = res.models[1];
  const MemModelReport& secded = res.models[2];

  for (const MemModelReport& rep : res.models) {
    for (const MemCell& cell : rep.cells) {
      for (unsigned p = 0; p < kNumProfiles; ++p) {
        // Every run lands in exactly one bucket, for every profile.
        EXPECT_EQ(cell.per_profile[p].total(), cfg.runs_per_cell);
        // Stronger software profiles never increase silent corruption.
        if (p > 0) {
          EXPECT_LE(cell.per_profile[p].silent, cell.per_profile[0].silent);
        }
      }
    }
  }
  // Raw storage cannot correct or hardware-detect anything.
  for (const MemCell& cell : raw.cells) {
    EXPECT_EQ(cell.hw_corrections, 0u);
    EXPECT_EQ(cell.scrub_corrections, 0u);
    EXPECT_EQ(cell.per_profile[0].corrected, 0u);
  }
  // Parity detects but never repairs.
  for (const MemCell& cell : parity.cells) {
    EXPECT_EQ(cell.hw_corrections, 0u);
    EXPECT_EQ(cell.per_profile[0].corrected, 0u);
  }
  // SECDED at these BERs: corrections happen, nothing slips through
  // silently even with no software countermeasures.
  std::uint64_t secded_fixes = 0;
  for (const MemCell& cell : secded.cells) {
    secded_fixes += cell.hw_corrections + cell.scrub_corrections;
    EXPECT_EQ(cell.per_profile[0].silent, 0u);
  }
  EXPECT_GT(secded_fixes, 0u);
  // The codeword overhead is real and ordered raw < parity < secded.
  EXPECT_LT(raw.clean_cycles, parity.clean_cycles);
  EXPECT_LT(parity.clean_cycles, secded.clean_cycles);
}

TEST(Campaign, PrimeCurveCampaignClassifiesAndIsThreadInvariant) {
  // The same campaign machinery on a prime-curve kP workload (Jacobian
  // wNAF on secp192r1, the VM Montgomery multiplier spliced in): every
  // run classified, tallies thread-count invariant, injections firing.
  CampaignConfig cfg;
  cfg.curve = "secp192r1";
  cfg.seed = 0x7E57;
  cfg.runs_per_model = 4;
  cfg.threads = 1;
  const CampaignResult serial = run_kp_campaign(cfg);
  std::uint64_t injected = 0;
  for (unsigned m = 0; m < kNumFaultModels; ++m) {
    injected += serial.models[m].injected;
    for (unsigned p = 0; p < kNumProfiles; ++p) {
      EXPECT_EQ(serial.models[m].per_profile[p].total(),
                serial.models[m].runs);
    }
  }
  EXPECT_GT(injected, 0u);
  // The profile-overhead column is priced with the prime cost model.
  EXPECT_GT(serial.costs[0].cycles, 0u);
  EXPECT_GT(serial.costs[kNumProfiles - 1].cycles, serial.costs[0].cycles);

  cfg.threads = 4;
  const CampaignResult par = run_kp_campaign(cfg);
  for (unsigned m = 0; m < kNumFaultModels; ++m) {
    EXPECT_EQ(par.models[m].injected, serial.models[m].injected);
    for (unsigned p = 0; p < kNumProfiles; ++p) {
      const OutcomeTally& ts = serial.models[m].per_profile[p];
      const OutcomeTally& tp = par.models[m].per_profile[p];
      EXPECT_EQ(tp.correct, ts.correct);
      EXPECT_EQ(tp.detected, ts.detected);
      EXPECT_EQ(tp.crashed, ts.crashed);
      EXPECT_EQ(tp.silent, ts.silent);
    }
  }
}

TEST(Campaign, UnknownCurveThrows) {
  CampaignConfig cfg;
  cfg.curve = "secp521r1";
  cfg.runs_per_model = 1;
  EXPECT_THROW(run_kp_campaign(cfg), std::invalid_argument);
  MemCampaignConfig mcfg;
  mcfg.curve = "sect571k1";
  EXPECT_THROW(run_mem_campaign(mcfg), std::invalid_argument);
}

TEST(MemCampaign, PrimeCurveSweepClassifiesEveryRun) {
  MemCampaignConfig cfg;
  cfg.curve = "secp192r1";
  cfg.runs_per_cell = 3;
  cfg.bers = {1e-4};
  cfg.models = {armvm::MemModelKind::kRaw, armvm::MemModelKind::kParity,
                armvm::MemModelKind::kSecded};
  const MemCampaignResult res = run_mem_campaign(cfg);
  ASSERT_EQ(res.models.size(), 3u);
  for (const MemModelReport& rep : res.models) {
    EXPECT_GT(rep.clean_cycles, 0u);
    ASSERT_EQ(rep.cells.size(), 1u);
    for (unsigned p = 0; p < kNumProfiles; ++p) {
      EXPECT_EQ(rep.cells[0].per_profile[p].total(), cfg.runs_per_cell);
    }
  }
  // The clean cost is the kernel's alone: operands go in through the
  // harness path, so parity adds exactly 1 and SECDED 2 wait cycles per
  // kernel access over raw, and nothing for loading the 6-limb operands.
  EXPECT_EQ(res.models[0].clean_cycles, 4244u);
  EXPECT_EQ(res.models[1].clean_cycles, 4523u);
  EXPECT_EQ(res.models[2].clean_cycles, 4802u);
}

/// One model's tally as "injected|c,d,x,s|..." (correct, detected,
/// crashed, silent per profile).
std::string tally_string(const ModelResult& m) {
  std::string s = std::to_string(m.injected);
  for (const OutcomeTally& t : m.per_profile) {
    s += "|" + std::to_string(t.correct) + "," + std::to_string(t.detected) +
         "," + std::to_string(t.crashed) + "," + std::to_string(t.silent);
  }
  return s;
}

// Small campaigns on every curve, pinned to the tallies of the
// whole-kP runs they were first drawn from: a run resumed at a golden
// Horner step must classify exactly as the whole kP did. The prime
// curves have no other committed tally (secp224r1 is the 7-limb 32-bit
// Montgomery path).
TEST(Campaign, SmallCampaignTalliesArePinned) {
  struct Pinned {
    const char* curve;
    std::array<const char*, kNumFaultModels> models;
  };
  const Pinned pinned[] = {
      {"sect233k1",
       {"16|2,0,5,9|2,0,5,9|2,9,5,0|2,9,5,0",
        "16|12,0,0,4|12,0,0,4|12,4,0,0|12,4,0,0",
        "16|1,0,0,15|1,0,0,15|1,15,0,0|1,15,0,0",
        "16|2,0,3,11|2,0,3,11|2,11,3,0|2,11,3,0"}},
      {"secp192r1",
       {"16|10,0,4,2|10,0,4,2|10,2,4,0|10,2,4,0",
        "16|15,0,0,1|15,0,0,1|15,1,0,0|15,1,0,0",
        "16|2,0,2,12|2,0,2,12|2,12,2,0|2,12,2,0",
        "16|2,0,4,10|2,0,4,10|2,10,4,0|2,10,4,0"}},
      {"secp224r1",
       {"16|7,0,4,5|7,0,4,5|7,5,4,0|7,5,4,0",
        "16|15,0,0,1|15,0,0,1|15,1,0,0|15,1,0,0",
        "16|8,0,2,6|8,0,2,6|8,6,2,0|8,6,2,0",
        "16|4,0,3,9|4,0,3,9|4,9,3,0|4,9,3,0"}},
      {"secp256r1",
       {"16|4,0,4,8|4,0,4,8|4,8,4,0|4,8,4,0",
        "16|15,0,0,1|15,0,0,1|15,1,0,0|15,1,0,0",
        "16|6,0,2,8|6,0,2,8|6,8,2,0|6,8,2,0",
        "16|2,0,2,12|2,0,2,12|2,12,2,0|2,12,2,0"}},
  };
  for (const Pinned& want : pinned) {
    CampaignConfig cfg;
    cfg.curve = want.curve;
    cfg.seed = 0x91A5;
    cfg.runs_per_model = 16;
    cfg.threads = 4;
    const CampaignResult res = run_kp_campaign(cfg);
    for (unsigned m = 0; m < kNumFaultModels; ++m) {
      EXPECT_EQ(tally_string(res.models[m]), want.models[m])
          << want.curve << " " << fault_model_name(res.models[m].model);
    }
  }
}

/// The seed-derived (P, k) of a campaign, drawn as the campaign draws
/// them.
mpint::UInt nonzero_below(Rng& rng, const mpint::UInt& order) {
  mpint::UInt v;
  do {
    v = mpint::UInt::random_below(rng, order);
  } while (v.is_zero());
  return v;
}

/// A profile's clean-run counts the way a protected kP spends them:
/// ec::scalarmul_protected on sect233k1, its checks around mul_wnaf_p on
/// a prime curve.
ec::FieldOpCounts protected_run_counts(const std::string& curve,
                                       std::uint64_t seed,
                                       const ec::ProtectOpts& o) {
  const workloads::CurveRef& ref = workloads::curve_from_name(curve);
  Rng rng(seed);
  if (ref.binary_field) {
    const ec::BinaryCurve& c = ec::BinaryCurve::sect233k1();
    ec::CurveOps setup(c);
    const ec::AffinePoint p =
        ec::mul_wtnaf(setup, ec::AffinePoint::make(c.gx, c.gy),
                      nonzero_below(rng, c.order), 4);
    const mpint::UInt k = nonzero_below(rng, c.order);
    ec::CurveOps ops(c);
    (void)ec::scalarmul_protected(ops, p, k, 4, o);
    return ops.counts();
  }
  const ecp::PrimeCurve& c = workloads::prime_curve(ref);
  ecp::PrimeCurveOps setup(c);
  const ecp::AffinePointP p =
      ecp::mul_wnaf_p(setup, setup.generator(), nonzero_below(rng, c.order), 4);
  const mpint::UInt k = nonzero_below(rng, c.order);
  ecp::PrimeCurveOps ops(c);
  if (o.validate_input) (void)ops.on_curve(p);
  const ecp::AffinePointP q = ecp::mul_wnaf_p(ops, p, k, 4);
  if (o.recheck_result) (void)ops.on_curve(q);
  if (o.order_check) (void)ecp::mul_wnaf_p(ops, q, c.order, 4);
  const ecp::PrimeOpCounts& n = ops.counts();
  return {n.mul, n.sqr, n.inv, n.add};
}

// The overhead column sums stage counts (the golden kP, then each check
// a profile enables); it must equal running each profile's protected kP
// on fresh ops.
TEST(Campaign, StageSummedCostsEqualProtectedRuns) {
  const auto& profiles = protection_profiles();
  for (const char* curve :
       {"sect233k1", "secp192r1", "secp224r1", "secp256r1"}) {
    for (const std::uint64_t seed : {7ull, 0x91A5ull, 0xC057ull}) {
      const KpFaultCampaign campaign(seed, armvm::Cpu::kDefaultEngine, curve);
      const auto costs = campaign.profile_costs(ec::FieldCostTable{});
      for (unsigned p = 0; p < kNumProfiles; ++p) {
        EXPECT_EQ(costs[p].ops,
                  protected_run_counts(curve, seed, profiles[p].opts))
            << curve << " seed " << seed << " " << profiles[p].name;
      }
    }
  }
}

TEST(Campaign, ProfileCostsAreMonotone) {
  CampaignConfig cfg;
  cfg.runs_per_model = 1;
  const CampaignResult res = run_kp_campaign(cfg);
  for (unsigned p = 1; p < kNumProfiles; ++p) {
    EXPECT_GE(res.costs[p].cycles, res.costs[p - 1].cycles);
    EXPECT_GE(res.costs[p].energy_uj, res.costs[p - 1].energy_uj);
  }
  // The order check costs a second scalar multiplication, clearly more
  // than the polynomial-evaluation rechecks.
  EXPECT_GT(res.costs[3].cycles, res.costs[2].cycles);
  EXPECT_GT(res.costs[0].cycles, 1'000'000u);  // a real kP, not a stub
}

}  // namespace
}  // namespace eccm0::faultsim
