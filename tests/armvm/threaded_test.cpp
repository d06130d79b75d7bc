// Three-way differential test of the token-threaded superinstruction
// engine (DecodeMode::kThreaded) against the per-step oracle and the
// predecoded engine: over every registry kernel, all three must retire
// the same instruction stream — identical cycle counts, histograms,
// energy, registers, RAM and (traced) rich event streams — and agree
// bit-for-bit on the awkward paths: snapshot/restore into the middle of
// a fused block, a fault at a retirement index interior to a
// superinstruction, and the instruction-budget trip point — on the
// looping kernels, where blocks chain across their closing branches, at
// every early budget and at chain boundaries too.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "armvm/asm.h"
#include "armvm/cpu.h"
#include "armvm/dispatch.h"
#include "armvm/superinst.h"
#include "asmkernels/gen.h"
#include "common/rng.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

namespace eccm0::armvm {
namespace {

using workloads::KernelMachine;
using workloads::KernelOperands;
using workloads::KernelRegistry;

constexpr std::size_t kRamSize = workloads::kKernelRamSize;

constexpr Cpu::DecodeMode kAllModes[] = {
    Cpu::DecodeMode::kPerStep,
    Cpu::DecodeMode::kPredecode,
    Cpu::DecodeMode::kThreaded,
};

struct RecordingSink final : TraceSink {
  std::vector<TraceEvent> events;
  void on_retire(const TraceEvent& ev) override { events.push_back(ev); }
};

void expect_stats_identical(const RunStats& a, const RunStats& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.cycles, b.cycles);
  for (int i = 0; i < static_cast<int>(costmodel::InstrClass::kCount); ++i) {
    EXPECT_EQ(a.histogram.cycles[i], b.histogram.cycles[i])
        << "histogram class " << i;
  }
  EXPECT_EQ(a.energy().energy_uj(), b.energy().energy_uj());
}

/// Deterministic operand recipe covering every registry kernel,
/// including the K-163 family the sca loader has no recipe for.
void load_operands(const std::string& name, Memory& mem) {
  const KernelOperands& ops = KernelOperands::standard();
  const workloads::KernelInfo info = KernelRegistry::instance().info(name);
  if (!info.binary_field) {
    const workloads::CurveRef& curve = workloads::curve_from_name(info.curve);
    const workloads::PrimeOperands& pod =
        workloads::PrimeOperands::standard(curve);
    workloads::load_prime_modulus(mem, curve);
    if (name.ends_with("-mul") || name.ends_with("-mont") ||
        name.ends_with("-sqr")) {
      workloads::load_prime_mul_inputs(mem, pod.x, pod.y);
    } else if (name.ends_with("-redc")) {
      workloads::load_prime_wide_input(mem, pod.wide);
    } else if (name.ends_with("-inv")) {
      workloads::load_prime_inv_input(mem, pod.a);
    } else {
      ADD_FAILURE() << "no operand recipe for prime kernel " << name;
    }
    return;
  }
  if (name.rfind("mul163", 0) == 0) {
    Rng rng(0x163F00D);
    std::uint32_t x[6], y[6];
    for (auto& w : x) w = static_cast<std::uint32_t>(rng.next_u64());
    for (auto& w : y) w = static_cast<std::uint32_t>(rng.next_u64());
    x[5] &= 0x7;  // 163-bit field elements
    y[5] &= 0x7;
    for (int w = 0; w < 6; ++w) {
      mem.store32(kRamBase + asmkernels::kXOff + 4u * w, x[w]);
      mem.store32(kRamBase + asmkernels::kYOff + 4u * w, y[w]);
    }
  } else if (name.rfind("mul", 0) == 0) {
    workloads::load_mul_inputs(mem, ops.x, ops.y);
  } else if (name == "sqr") {
    workloads::load_sqr_table(mem);
    workloads::load_sqr_input(mem, ops.a);
  } else if (name == "lut") {
    std::uint32_t zero[8] = {};
    workloads::load_mul_inputs(mem, zero, ops.y);
  } else if (name == "inv") {
    workloads::load_inv_input(mem, ops.a);
  } else if (name == "reduce") {
    Rng rng(0x2EDDCE);
    std::uint32_t wide[16];
    for (auto& w : wide) w = static_cast<std::uint32_t>(rng.next_u64());
    workloads::load_reduce_input(mem, wide);
  } else {
    ADD_FAILURE() << "no operand recipe for kernel " << name;
  }
}

/// Full observable machine state after a run.
struct Observed {
  RunStats stats;
  std::array<std::uint32_t, 13> regs{};
  std::array<bool, 4> flags{};
  std::vector<std::uint32_t> ram;
};

Observed observe(KernelMachine& m) {
  Observed o;
  o.stats = m.cpu().stats();
  for (unsigned r = 0; r < 13; ++r) o.regs[r] = m.cpu().reg(r);
  o.flags = {m.cpu().flag_n(), m.cpu().flag_z(), m.cpu().flag_c(),
             m.cpu().flag_v()};
  o.ram = m.mem().read_words(kRamBase, kRamSize / 4);
  return o;
}

TEST(Threaded, AllRegistryKernelsIdenticalAcrossThreeEngines) {
  std::uint64_t total_fused = 0;
  const auto names = KernelRegistry::instance().names();
  ASSERT_GE(names.size(), 27u);  // 12 gf2 + 15 prime built-ins
  for (const std::string& name : names) {
    std::vector<Observed> results;
    std::uint64_t fused_threaded = 0;
    for (const Cpu::DecodeMode mode : kAllModes) {
      KernelMachine m(name, mode);
      load_operands(name, m.mem());
      // Two back-to-back calls: crosses a call boundary with persistent
      // state, like the bench workloads do.
      m.call();
      // EEA scratch / in-place REDC: these consume their input state.
      if (name == "inv" || name.ends_with("-redc")) {
        load_operands(name, m.mem());
      }
      m.call();
      results.push_back(observe(m));
      if (mode == Cpu::DecodeMode::kThreaded) {
        fused_threaded = m.cpu().fused_retired();
        EXPECT_GT(m.cpu().fused_blocks_entered(), 0u) << name;
      } else {
        EXPECT_EQ(m.cpu().fused_retired(), 0u) << name;
      }
    }
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t e = 1; e < results.size(); ++e) {
      SCOPED_TRACE(name + " engine#" + std::to_string(e));
      expect_stats_identical(results[0].stats, results[e].stats);
      EXPECT_EQ(results[0].regs, results[e].regs);
      EXPECT_EQ(results[0].flags, results[e].flags);
      EXPECT_EQ(results[0].ram, results[e].ram);
    }
    EXPECT_GT(results[0].stats.instructions, 100u) << name;
    total_fused += fused_threaded;
    // The straight-line K-233 kernels must spend nearly all retirement
    // inside fused blocks.
    if (name == "mul" || name == "sqr" || name == "reduce") {
      EXPECT_GT(fused_threaded * 10, results[0].stats.instructions * 9)
          << name << " fused coverage too low: " << fused_threaded << "/"
          << results[0].stats.instructions;
    }
  }
  EXPECT_GT(total_fused, 100000u);
}

TEST(Threaded, ProtocolWorkloadsIdenticalAcrossThreeEngines) {
  // Whole protocol transactions (a complete ECDH agreement, an ECDSA
  // sign+verify) replayed as single VM runs, on both field families:
  // the three engines must agree on every stat and on the output digest.
  const std::pair<const char*, const char*> workloads[] = {
      {"ecdh", "secp192r1"},
      {"ecdsa", "sect233k1"},
      {"kp", "secp256r1"},
  };
  for (const auto& [tx, curve] : workloads) {
    SCOPED_TRACE(std::string(tx) + "-" + curve);
    const workloads::WorkloadSpec spec = workloads::make_workload(tx, curve);
    EXPECT_GT(spec.ops.mul, 100u);
    std::vector<workloads::ReplayResult> results;
    for (const Cpu::DecodeMode mode : kAllModes) {
      results.push_back(workloads::replay(spec, mode));
    }
    ASSERT_EQ(results.size(), 3u);
    EXPECT_NE(results[0].output_digest, 0u);
    for (std::size_t e = 1; e < results.size(); ++e) {
      SCOPED_TRACE("engine#" + std::to_string(e));
      expect_stats_identical(results[0].stats, results[e].stats);
      EXPECT_EQ(results[0].output_digest, results[e].output_digest);
    }
    EXPECT_EQ(results[0].fused_retired, 0u);
    EXPECT_EQ(results[1].fused_retired, 0u);
    EXPECT_GT(results[2].fused_retired, 0u);  // threaded
  }
}

TEST(Threaded, TracedStreamsIdenticalAcrossThreeEngines) {
  // With a sink attached the threaded engine must produce the same rich
  // per-instruction TraceEvent stream as both oracles (it falls back to
  // the traced per-instruction loop — fusion never changes what a
  // profiler or leakage digest observes).
  for (const std::string name : {"mul", "sqr", "inv"}) {
    std::vector<std::vector<TraceEvent>> streams;
    for (const Cpu::DecodeMode mode : kAllModes) {
      KernelMachine m(name, mode);
      RecordingSink sink;
      m.cpu().set_trace_sink(&sink);
      load_operands(name, m.mem());
      m.call();
      streams.push_back(std::move(sink.events));
    }
    ASSERT_FALSE(streams[0].empty());
    EXPECT_EQ(streams[0], streams[1]) << name;
    EXPECT_EQ(streams[0], streams[2]) << name;
  }
}

TEST(Threaded, MemoryModelsIdenticalAcrossThreeEngines) {
  // One kernel under each RAM protection model: the three engines must
  // agree bit-for-bit including the wait-state cycles (the threaded
  // engine's fused blocks cannot batch protected accesses, so it
  // delegates; the totals still have to match the per-step oracle).
  const MemModelConfig configs[] = {
      MemModelConfig::raw(),
      MemModelConfig::parity(),
      MemModelConfig::secded(2, 64),  // with live auto-scrubbing
  };
  std::array<std::uint64_t, 3> model_cycles{};
  for (std::size_t c = 0; c < 3; ++c) {
    SCOPED_TRACE(mem_model_name(configs[c].kind));
    std::vector<Observed> results;
    std::uint64_t accesses = 0, scrub_passes = 0;
    for (const Cpu::DecodeMode mode : kAllModes) {
      KernelMachine m("mul", mode, configs[c]);
      load_operands("mul", m.mem());
      m.call();
      m.call();
      results.push_back(observe(m));
      accesses = m.mem().protected_accesses();
      scrub_passes = m.mem().scrub_passes();
    }
    ASSERT_EQ(results.size(), 3u);
    for (std::size_t e = 1; e < results.size(); ++e) {
      SCOPED_TRACE("engine#" + std::to_string(e));
      expect_stats_identical(results[0].stats, results[e].stats);
      EXPECT_EQ(results[0].regs, results[e].regs);
      EXPECT_EQ(results[0].flags, results[e].flags);
      EXPECT_EQ(results[0].ram, results[e].ram);
    }
    model_cycles[c] = results[0].stats.cycles;
    // The protection overhead is exactly accounted: every protected
    // access charges wait_states cycles and every scrub pass sweeps the
    // whole RAM, all booked under the kMemWait histogram class.
    const std::uint64_t wait_cycles =
        results[0].stats.histogram.cycles[static_cast<int>(
            costmodel::InstrClass::kMemWait)];
    if (configs[c].kind == MemModelKind::kRaw) {
      EXPECT_EQ(wait_cycles, 0u);
      EXPECT_EQ(accesses, 0u);
    } else {
      EXPECT_GT(accesses, 0u);
      EXPECT_EQ(wait_cycles,
                configs[c].wait_states * (accesses + scrub_passes * 512));
      EXPECT_EQ(model_cycles[0] + wait_cycles, model_cycles[c]);
    }
    if (configs[c].kind == MemModelKind::kSecded) {
      EXPECT_GT(scrub_passes, 0u);
    }
  }
  EXPECT_LT(model_cycles[0], model_cycles[1]);
  EXPECT_LT(model_cycles[1], model_cycles[2]);
}

TEST(Threaded, TracedStreamsIdenticalUnderProtectedMemory) {
  // A profiler attached to a SECDED machine sees one stream, whatever
  // the engine — and that stream carries the kMemWait charges.
  std::vector<std::vector<TraceEvent>> streams;
  for (const Cpu::DecodeMode mode : kAllModes) {
    KernelMachine m("mul", mode, MemModelConfig::secded(2, 64));
    RecordingSink sink;
    m.cpu().set_trace_sink(&sink);
    load_operands("mul", m.mem());
    m.call();
    streams.push_back(std::move(sink.events));
  }
  ASSERT_FALSE(streams[0].empty());
  EXPECT_EQ(streams[0], streams[1]);
  EXPECT_EQ(streams[0], streams[2]);
  bool saw_wait = false;
  for (const TraceEvent& ev : streams[0]) {
    for (unsigned i = 0; i < ev.num_costs; ++i) {
      if (ev.costs[i].cls == costmodel::InstrClass::kMemWait) saw_wait = true;
    }
  }
  EXPECT_TRUE(saw_wait);
}

/// Step a per-step context to the first retirement index >= min_index
/// at which the PC sits strictly inside a fused block of `image`.
/// Returns the snapshot there and the retirement index.
std::pair<MachineSnapshot, std::uint64_t> snapshot_inside_block(
    const ProgramRef& prog, const ThreadedImage& image, Memory& mem,
    std::uint64_t min_index) {
  Cpu cpu(prog, mem, Cpu::DecodeMode::kPerStep);
  cpu.set_reg(kLR, kReturnSentinel);
  cpu.set_reg(kPC, prog->entry("entry"));
  while (cpu.step()) {
    if (cpu.stats().instructions < min_index) continue;
    const std::uint32_t pc = cpu.reg(kPC);
    if (pc != kReturnSentinel && pc % 2 == 0 &&
        is_block_interior(image, pc / 2)) {
      return {cpu.snapshot(), cpu.stats().instructions};
    }
  }
  ADD_FAILURE() << "no interior-of-block PC reached";
  return {cpu.snapshot(), cpu.stats().instructions};
}

TEST(Threaded, SnapshotRestoreMidFusedBlockResumesIdentically) {
  const ProgramRef prog = workloads::kernel("mul");
  const ThreadedImage& image = prog->threaded();
  ASSERT_FALSE(image.blocks.empty());

  Memory scout_mem(kRamSize);
  load_operands("mul", scout_mem);
  const auto [snap, index] =
      snapshot_inside_block(prog, image, scout_mem, 500);
  ASSERT_GE(index, 500u);
  ASSERT_TRUE(is_block_interior(image, snap.arch.r[kPC] / 2));

  // Fork the checkpoint into one context per engine and run each to
  // completion: the threaded engine enters the block interior
  // per-instruction, then picks up fusion at the next head.
  std::vector<Observed> results;
  for (const Cpu::DecodeMode mode : kAllModes) {
    KernelMachine m(prog, mode);
    m.cpu().restore(snap);
    const RunStats delta = m.cpu().run();
    EXPECT_GT(delta.instructions, 0u);
    results.push_back(observe(m));
  }
  for (std::size_t e = 1; e < results.size(); ++e) {
    SCOPED_TRACE("engine#" + std::to_string(e));
    expect_stats_identical(results[0].stats, results[e].stats);
    EXPECT_EQ(results[0].regs, results[e].regs);
    EXPECT_EQ(results[0].flags, results[e].flags);
    EXPECT_EQ(results[0].ram, results[e].ram);
  }
}

TEST(Threaded, MemoryFaultInteriorToSuperinstructionIdentical) {
  // The STR below faults at retirement index 6 — interior to the single
  // fused block this straight-line body forms — so the threaded engine
  // must unwind mid-block: partial accounting replayed, flags synced,
  // PC at the faulting instruction's fallthrough, identical ArchState.
  const ProgramRef prog = assemble(R"(
entry:
    movs r0, #1
    movs r1, #2
    adds r2, r0, r1
    ldr r3, =0x30000000
    movs r4, #5
    adds r5, r4, r4
    str r4, [r3]
    adds r6, r5, r5
    eors r7, r7
    bx lr
)");
  ASSERT_TRUE(is_block_interior(prog->threaded(), prog->entry("entry") / 2 + 6))
      << "test premise: the faulting STR must sit inside a fused block";
  std::vector<std::tuple<std::string, std::uint32_t, ArchState>> faults;
  std::vector<RunStats> stats;
  for (const Cpu::DecodeMode mode : kAllModes) {
    Memory mem(kRamSize);
    Cpu cpu(prog, mem, mode);
    try {
      cpu.call(prog->entry("entry"), {});
      ADD_FAILURE() << "no fault raised";
    } catch (const BusFault& f) {
      EXPECT_TRUE(f.has_state());
      faults.emplace_back(f.message(), f.address(), f.state());
    }
    stats.push_back(cpu.stats());
  }
  ASSERT_EQ(faults.size(), 3u);
  for (std::size_t e = 1; e < faults.size(); ++e) {
    SCOPED_TRACE("engine#" + std::to_string(e));
    EXPECT_EQ(std::get<0>(faults[0]), std::get<0>(faults[e]));
    EXPECT_EQ(std::get<1>(faults[0]), std::get<1>(faults[e]));
    EXPECT_EQ(std::get<2>(faults[0]), std::get<2>(faults[e]));
    expect_stats_identical(stats[0], stats[e]);
  }
  EXPECT_EQ(std::get<1>(faults[0]), 0x30000000u);
  EXPECT_EQ(std::get<2>(faults[0]).instructions, 6u);  // STR retired nothing
  EXPECT_EQ(std::get<2>(faults[0]).r[5], 10u);         // prior work landed
}

TEST(Threaded, RegisterFlipFaultAtInteriorIndexIdentical) {
  // Snapshot the mul kernel at a retirement index whose PC is interior
  // to a superinstruction, flip an address-register bit there (the
  // faultsim register-flip model), and resume under each engine. The
  // corrupted pointer sends a later store outside the 2 KiB RAM, so
  // every engine must raise the same BusFault — message, faulting
  // address, ArchState and accounting bit-identical even though the
  // threaded engine hits it inside a fused block reached from an
  // interior (mid-block) restore point.
  const ProgramRef prog = workloads::kernel("mul");
  Memory scout_mem(kRamSize);
  load_operands("mul", scout_mem);
  const auto [snap, index] =
      snapshot_inside_block(prog, prog->threaded(), scout_mem, 200);
  ASSERT_TRUE(is_block_interior(prog->threaded(), snap.arch.r[kPC] / 2));

  std::vector<std::tuple<std::string, std::uint32_t, ArchState>> faults;
  std::vector<Observed> results;
  for (const Cpu::DecodeMode mode : kAllModes) {
    KernelMachine m(prog, mode);
    m.cpu().restore(snap);
    m.cpu().set_reg(3, m.cpu().reg(3) ^ (1u << 17));  // the injected fault
    try {
      m.cpu().run();
      ADD_FAILURE() << "corrupted pointer did not fault";
    } catch (const Fault& f) {
      ASSERT_TRUE(f.has_state());
      faults.emplace_back(f.message(), f.address(), f.state());
    }
    results.push_back(observe(m));
  }
  ASSERT_EQ(faults.size(), 3u);
  for (std::size_t e = 1; e < results.size(); ++e) {
    SCOPED_TRACE("engine#" + std::to_string(e));
    EXPECT_EQ(std::get<0>(faults[0]), std::get<0>(faults[e]));
    EXPECT_EQ(std::get<1>(faults[0]), std::get<1>(faults[e]));
    EXPECT_EQ(std::get<2>(faults[0]), std::get<2>(faults[e]));
    expect_stats_identical(results[0].stats, results[e].stats);
    EXPECT_EQ(results[0].regs, results[e].regs);
    EXPECT_EQ(results[0].ram, results[e].ram);
  }
}

TEST(Threaded, InstructionBudgetTripsIdenticallyMidBlock) {
  // A budget that expires deep inside the straight-line mul kernel —
  // i.e. at a point interior to some fused block — must trip at exactly
  // budget + 1 retirements under every engine, because the threaded
  // engine refuses to enter a block that would overrun the budget.
  const ProgramRef prog = workloads::kernel("mul");
  constexpr std::uint64_t kBudget = 1000;
  std::vector<RunStats> stats;
  std::vector<ArchState> states;
  for (const Cpu::DecodeMode mode : kAllModes) {
    KernelMachine m(prog, mode);
    load_operands("mul", m.mem());
    try {
      m.cpu().call(prog->entry("entry"), {}, kBudget);
      ADD_FAILURE() << "budget did not trip";
    } catch (const BudgetFault& f) {
      ASSERT_TRUE(f.has_state());
      states.push_back(f.state());
    }
    stats.push_back(m.cpu().stats());
  }
  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(stats[0].instructions, kBudget + 1);
  for (std::size_t e = 1; e < stats.size(); ++e) {
    SCOPED_TRACE("engine#" + std::to_string(e));
    expect_stats_identical(stats[0], stats[e]);
    EXPECT_EQ(states[0], states[e]);
  }
}

/// The token of a block's exit entry: kEndOfBlockToken, a closing
/// B/BL/BX's Op byte, or a closing BCond's condition token.
std::uint8_t exit_token(const SuperBlock& blk) {
  return static_cast<std::uint8_t>(blk.code.back().ins.op);
}

bool exit_is(const SuperBlock& blk, Op op) {
  return exit_token(blk) == static_cast<std::uint8_t>(op);
}

bool exits_on_bl(const SuperBlock& blk) { return exit_is(blk, Op::kBl); }

bool exits_on_bcond(const SuperBlock& blk) {
  return exit_token(blk) >= kBCondToken &&
         exit_token(blk) < kBCondToken + kNumConds;
}

TEST(Threaded, FusionDiscoveryInvariants) {
  std::size_t closing_bl = 0, closing_bcond = 0, closing_bx = 0;
  for (const std::string name : {"mul", "sqr", "inv", "reduce", "p192-mont",
                                 "p192-sqr", "p192-inv", "p192-redc",
                                 "p256-mont", "p256-inv"}) {
    const ProgramRef prog = workloads::kernel(name);
    const ThreadedImage& image = prog->threaded();
    const std::vector<PredecodedSlot>& cache = prog->cache();
    const std::size_t n = cache.size();
    SCOPED_TRACE(name);
    ASSERT_FALSE(image.blocks.empty());
    ASSERT_EQ(image.block_at.size(), n);
    EXPECT_GT(image.valid_slots, 0u);
    EXPECT_LE(image.fused_slots, image.valid_slots);
    std::uint64_t fused = 0;
    for (std::size_t b = 0; b < image.blocks.size(); ++b) {
      const SuperBlock& blk = image.blocks[b];
      SCOPED_TRACE("block at halfword " + std::to_string(blk.head_idx));
      ASSERT_GE(blk.count, 1u);
      EXPECT_EQ(image.block_at[blk.head_idx], static_cast<std::int32_t>(b));
      fused += blk.count;
      const bool closed = exit_token(blk) != kEndOfBlockToken;
      // A terminator only ever comes last: every entry before the exit
      // is a straight-line 1-halfword instruction at consecutive slots.
      const std::size_t body = closed ? blk.count - 1 : blk.count;
      ASSERT_EQ(blk.code.size(), body + 1);
      for (std::size_t i = 0; i < body; ++i) {
        const FusedInstr& f = blk.code[i];
        const PredecodedSlot& slot = cache[blk.head_idx + i];
        EXPECT_TRUE(fusable(f.ins, 1));
        EXPECT_EQ(slot.halfwords, 1u);
        EXPECT_EQ(f.ins, slot.ins);
        EXPECT_EQ(f.pc4, 2 * (blk.head_idx + i) + 4);
      }
      const std::size_t exit_idx = blk.head_idx + body;
      std::uint64_t cycles = 0;
      for (const FusedInstr& f : blk.code) {
        for (unsigned c = 0; c < f.num_costs; ++c) cycles += f.costs[c].cycles;
      }
      if (!closed) {
        // An unclosed run must be worth a block on its own.
        EXPECT_GE(blk.count, kMinFuseLength);
        EXPECT_EQ(blk.code.back().num_costs, 0u);
        EXPECT_EQ(blk.end_pc, 2 * exit_idx);
        EXPECT_EQ(blk.next_taken, -1);
      } else {
        const Instr& branch = cache[exit_idx].ins;
        const FusedInstr& f = blk.code.back();
        EXPECT_TRUE(closes_block(branch));
        EXPECT_EQ(blk.end_pc, 2 * (exit_idx + cache[exit_idx].halfwords));
        EXPECT_EQ(f.pc4, 2 * exit_idx + 4);
        // The closing branch's batched cost is its static cost, BCond at
        // the not-taken cost (the dispatcher adds the taken cycle).
        ASSERT_EQ(f.num_costs, 1u);
        EXPECT_EQ(f.costs[0].cls, costmodel::InstrClass::kBranch);
        unsigned static_cycles = 0;
        switch (branch.op) {
          case Op::kBCond:
            // One token per condition.
            EXPECT_EQ(exit_token(blk), bcond_token(branch.cond));
            static_cycles = 1;
            ++closing_bcond;
            break;
          case Op::kB:
            EXPECT_TRUE(exit_is(blk, Op::kB));
            static_cycles = 2;
            break;
          case Op::kBl:
            EXPECT_TRUE(exit_is(blk, Op::kBl));
            static_cycles = 3;
            ++closing_bl;
            // A 2-halfword BL: its second halfword is interior, its
            // return site is not.
            EXPECT_TRUE(is_block_interior(image, exit_idx + 1));
            EXPECT_EQ(is_block_interior(image, exit_idx),
                      exit_idx != blk.head_idx);
            EXPECT_FALSE(is_block_interior(image, exit_idx + 2));
            break;
          case Op::kBx:
            EXPECT_TRUE(exit_is(blk, Op::kBx));
            EXPECT_NE(branch.rm, kPC);
            static_cycles = 2;
            ++closing_bx;
            break;
          default:
            ADD_FAILURE() << "closing op " << op_name(branch.op);
        }
        EXPECT_EQ(f.costs[0].cycles, static_cycles);
        if (branch.op == Op::kBx) {
          EXPECT_EQ(blk.next_taken, -1);
        } else {
          EXPECT_EQ(blk.taken_pc, static_cast<std::uint32_t>(
                                      2 * exit_idx + 4 + branch.imm));
          ASSERT_LT(blk.taken_pc / 2, n);
          EXPECT_EQ(blk.next_taken, image.block_at[blk.taken_pc / 2]);
        }
      }
      // Successors are block_at of the fall-through and of the target.
      EXPECT_EQ(blk.next_fall,
                blk.end_pc / 2 < n ? image.block_at[blk.end_pc / 2] : -1);
      // The per-instruction static costs and the batched block delta
      // are the same numbers.
      EXPECT_EQ(cycles, blk.cycles);
      std::uint64_t hist_cycles = 0;
      for (const auto& [cls, cyc] : blk.hist) hist_cycles += cyc;
      EXPECT_EQ(hist_cycles, blk.cycles);
      for (std::size_t h = blk.head_idx + 1; 2 * h < blk.end_pc; ++h) {
        EXPECT_TRUE(is_block_interior(image, h));
        EXPECT_EQ(image.block_at[h], -1);
      }
    }
    EXPECT_EQ(fused, image.fused_slots);
    // No label (= potential branch/call target) is interior to a block;
    // loop heads re-enter fused bodies at block heads only.
    for (const auto& [label, addr] : prog->symbols()) {
      EXPECT_FALSE(is_block_interior(image, addr / 2))
          << "label " << label << " interior to a fused block";
    }
    // Every kernel now fuses nearly everything, loops and calls
    // included.
    EXPECT_GT(image.fused_slots * 10, image.valid_slots * 9);
  }
  // The prime kernels exercise every closing-branch kind.
  EXPECT_GT(closing_bl, 0u);
  EXPECT_GT(closing_bcond, 0u);
  EXPECT_GT(closing_bx, 0u);
}

// ---- Chained dispatch -------------------------------------------------
//
// The threaded engine runs from block to block without returning to its
// chunk runner: through closing BCond/B loops, BL calls and BX returns.
// The loop kernels below (the prime Montgomery multiply and binary-EEA
// inversion, the K-233 EEA inversion) are where chains are long, so
// every budget, snapshot and fault path is checked on them.

constexpr const char* kChainKernels[] = {"p192-mont", "p192-inv", "inv"};

/// Everything a run can leave behind.
struct Machine {
  ArchState arch;
  RunStats stats;
  bool halted = false;
  std::vector<std::uint32_t> ram;

  friend bool operator==(const Machine&, const Machine&) = default;
};

Machine machine_of(KernelMachine& m) {
  return {m.cpu().arch_state(), m.cpu().stats(), m.cpu().halted(),
          m.mem().read_words(kRamBase, kRamSize / 4)};
}

/// A fresh machine for `name` with its operands loaded and the calling
/// convention of call() set up, without running anything.
void arm_call(KernelMachine& m, const std::string& name) {
  load_operands(name, m.mem());
  m.cpu().set_reg(kLR, kReturnSentinel);
  m.cpu().set_reg(kPC, m.prog().entry("entry"));
}

/// Instructions one call of `name` retires.
std::uint64_t call_length(const std::string& name) {
  KernelMachine m(name, Cpu::DecodeMode::kPerStep);
  load_operands(name, m.mem());
  return m.call().instructions;
}

/// Budgets 0..dense-1 plus `sampled` seeded draws up to the call length.
std::vector<std::uint64_t> budgets_for(std::uint64_t length,
                                       std::uint64_t dense,
                                       unsigned sampled) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t n = 0; n < dense && n <= length; ++n) out.push_back(n);
  Rng rng(0xC4A1B5 + length);
  for (unsigned i = 0; i < sampled; ++i) {
    out.push_back(dense + rng.next_u64() % (length + 2 - dense));
  }
  return out;
}

void expect_machines_identical(const std::vector<Machine>& runs,
                               const std::string& what) {
  ASSERT_EQ(runs.size(), 3u);
  for (std::size_t e = 1; e < runs.size(); ++e) {
    SCOPED_TRACE(what + " engine#" + std::to_string(e));
    EXPECT_EQ(runs[0].arch, runs[e].arch);
    expect_stats_identical(runs[0].stats, runs[e].stats);
    EXPECT_EQ(runs[0].halted, runs[e].halted);
    EXPECT_EQ(runs[0].ram, runs[e].ram);
  }
}

TEST(ThreadedChain, RunForStopsOnTheSameInstructionEverywhere) {
  for (const std::string name : kChainKernels) {
    SCOPED_TRACE(name);
    const std::uint64_t length = call_length(name);
    ASSERT_GT(length, 600u);
    std::uint64_t chained = 0;
    for (const std::uint64_t n : budgets_for(length, 600, 24)) {
      std::vector<Machine> runs;
      for (const Cpu::DecodeMode mode : kAllModes) {
        KernelMachine m(name, mode);
        arm_call(m, name);
        EXPECT_EQ(m.cpu().run_for(n), std::min(n, length));
        runs.push_back(machine_of(m));
        if (mode == Cpu::DecodeMode::kThreaded) {
          chained = std::max(chained, m.cpu().fused_blocks_entered());
        }
      }
      expect_machines_identical(runs, "run_for(" + std::to_string(n) + ")");
      if (HasFailure()) return;
    }
    EXPECT_GT(chained, 1u);
  }
}

TEST(ThreadedChain, CallBudgetTripsOnTheSameInstructionEverywhere) {
  for (const std::string name : kChainKernels) {
    SCOPED_TRACE(name);
    const std::uint64_t length = call_length(name);
    for (const std::uint64_t n : budgets_for(length, 600, 24)) {
      std::vector<Machine> runs;
      std::vector<std::string> outcomes;
      for (const Cpu::DecodeMode mode : kAllModes) {
        KernelMachine m(name, mode);
        load_operands(name, m.mem());
        try {
          m.cpu().call(m.prog().entry("entry"), {}, n);
          outcomes.push_back("completed");
        } catch (const BudgetFault& f) {
          ASSERT_TRUE(f.has_state());
          EXPECT_EQ(f.state(), m.cpu().arch_state());
          outcomes.push_back("budget");
        }
        runs.push_back(machine_of(m));
      }
      EXPECT_EQ(outcomes[0], outcomes[1]);
      EXPECT_EQ(outcomes[0], outcomes[2]);
      // The budget trips after exactly n + 1 retirements, or the call
      // completes when it fits.
      EXPECT_EQ(outcomes[0], n >= length ? "completed" : "budget");
      EXPECT_EQ(runs[0].stats.instructions, std::min(n + 1, length));
      expect_machines_identical(runs, "budget " + std::to_string(n));
      if (HasFailure()) return;
    }
  }
}

/// Per-step scout: the first retirement index at or after `min_index`
/// whose PC is interior to a block that `pick` accepts.
template <typename Pick>
std::pair<MachineSnapshot, std::uint64_t> snapshot_inside(
    const std::string& name, std::uint64_t min_index, Pick pick) {
  KernelMachine m(name, Cpu::DecodeMode::kPerStep);
  arm_call(m, name);
  const ThreadedImage& image = m.prog().threaded();
  while (m.cpu().step()) {
    if (m.cpu().stats().instructions < min_index) continue;
    const std::uint32_t idx = m.cpu().reg(kPC) / 2;
    for (const SuperBlock& blk : image.blocks) {
      if (idx > blk.head_idx && 2 * idx < blk.end_pc && pick(blk)) {
        return {m.cpu().snapshot(), m.cpu().stats().instructions};
      }
    }
  }
  ADD_FAILURE() << "no PC inside an accepted block reached";
  return {m.cpu().snapshot(), m.cpu().stats().instructions};
}

TEST(ThreadedChain, SnapshotInsideBlocksClosedByBlOrBcondResumesIdentically) {
  struct Case {
    const char* kernel;
    const char* exit;
    bool (*pick)(const SuperBlock&);
  };
  const Case cases[] = {
      {"p192-mont", "BL", exits_on_bl},
      {"p192-mont", "BCond", exits_on_bcond},
      {"p192-inv", "BL", exits_on_bl},
      {"inv", "BCond", exits_on_bcond},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.kernel) + " inside a block closed by " + c.exit);
    const auto [snap, index] = snapshot_inside(c.kernel, 100, c.pick);
    ASSERT_GE(index, 100u);
    std::vector<Machine> runs;
    for (const Cpu::DecodeMode mode : kAllModes) {
      KernelMachine m(c.kernel, mode);
      m.cpu().restore(snap);
      EXPECT_GT(m.cpu().run().instructions, 0u);
      EXPECT_TRUE(m.cpu().halted());
      runs.push_back(machine_of(m));
    }
    expect_machines_identical(runs, "resume");
  }
}

TEST(ThreadedChain, RegisterFlipAtAChainBoundaryIdentical) {
  // Stop every engine exactly where the threaded engine commits one
  // block of a chain and would have jumped into the next, flip a
  // register there, and resume: each engine must take the corrupted
  // run to the same end — the same typed fault or the same (wrong)
  // result.
  for (const std::string name : kChainKernels) {
    SCOPED_TRACE(name);
    // Per-step scout that follows the threaded engine's segmentation of
    // the stream (a block wherever the PC sits on a head, one
    // instruction elsewhere) and records, about every 1000
    // retirements, a point where a branch-closed block ends on the head
    // of the next: the threaded engine chains across exactly there.
    std::vector<std::uint64_t> boundaries;
    {
      KernelMachine m(name, Cpu::DecodeMode::kPerStep);
      arm_call(m, name);
      const ThreadedImage& image = m.prog().threaded();
      std::uint64_t next_pick = 300;
      while (boundaries.size() < 4 && m.cpu().reg(kPC) != kReturnSentinel) {
        const std::int32_t blk = image.block_at[m.cpu().reg(kPC) / 2];
        if (blk < 0) {
          m.cpu().step();
          continue;
        }
        const SuperBlock& b = image.blocks[blk];
        for (std::uint32_t i = 0; i < b.count; ++i) m.cpu().step();
        const std::uint32_t landed = m.cpu().reg(kPC);
        const std::uint64_t at = m.cpu().stats().instructions;
        if (exit_token(b) != kEndOfBlockToken && at >= next_pick &&
            landed != kReturnSentinel && image.block_at[landed / 2] >= 0) {
          boundaries.push_back(at);
          next_pick = at + 1000;
        }
      }
    }
    ASSERT_FALSE(boundaries.empty());
    for (const std::uint64_t at : boundaries) {
      for (const unsigned reg : {0u, 3u, 6u}) {
        std::vector<Machine> runs;
        std::vector<std::string> outcomes;
        for (const Cpu::DecodeMode mode : kAllModes) {
          KernelMachine m(name, mode);
          arm_call(m, name);
          ASSERT_EQ(m.cpu().run_for(at), at);
          m.cpu().set_reg(reg, m.cpu().reg(reg) ^ 0x00010004u);
          try {
            m.cpu().run(1'000'000);
            outcomes.push_back("completed");
          } catch (const Fault& f) {
            ASSERT_TRUE(f.has_state());
            outcomes.push_back(f.message());
          }
          runs.push_back(machine_of(m));
        }
        EXPECT_EQ(outcomes[0], outcomes[1]);
        EXPECT_EQ(outcomes[0], outcomes[2]);
        expect_machines_identical(runs, "flip r" + std::to_string(reg) +
                                            " at " + std::to_string(at));
      }
    }
  }
}

TEST(Threaded, EngineNameHelpersRoundTrip) {
  EXPECT_EQ(decode_mode_from_name("perstep"), Cpu::DecodeMode::kPerStep);
  EXPECT_EQ(decode_mode_from_name("threaded"), Cpu::DecodeMode::kThreaded);
  for (const Cpu::DecodeMode mode :
       {Cpu::DecodeMode::kPerStep, Cpu::DecodeMode::kThreaded}) {
    EXPECT_EQ(decode_mode_from_name(decode_mode_name(mode)), mode);
  }
  // kPredecode is a library mode with a report name, not a flag value.
  EXPECT_STREQ(decode_mode_name(Cpu::DecodeMode::kPredecode), "predecode");
  EXPECT_THROW(decode_mode_from_name("predecode"), std::invalid_argument);
  EXPECT_THROW(decode_mode_from_name("jit"), std::invalid_argument);
}

}  // namespace
}  // namespace eccm0::armvm
