// Cortex-M0+ style execution core: Thumb-1 interpreter with the M0+
// cycle model (loads/stores 2 cycles, taken branches 2, LDM/STM 1+N,
// single-cycle multiplier) and per-instruction-class energy accounting
// against the paper's Table 3. The cycle model is one table,
// `static_costs` (superinst.h), and each instruction's semantics are
// written once, in ops.inc, which both Cpu::exec and the fused
// dispatcher (dispatch.cpp) compile.
//
// Execution engine: the Thumb image is decoded ONCE at Cpu construction
// into a flat cache indexed by halfword (`codec.h::predecode`), and
// `step()`/`call()` execute straight out of that cache — the interpreter
// never re-decodes a retired instruction. Slots that do not decode (data
// words, literal pools, BL low halfwords) trap to a fresh `decode()` when
// the PC actually lands on them, so error behavior is identical to
// decoding per step. `DecodeMode::kPerStep` keeps the original
// decode-every-instruction path alive as the reference engine for
// differential tests (`tests/armvm/predecode_test.cpp`) and the
// `bench_vm_throughput` speedup baseline; both modes retire the same
// instruction stream and produce bit-identical cycle counts, histograms
// and energy reports.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <vector>

#include "armvm/codec.h"
#include "armvm/fault.h"
#include "armvm/memmodel.h"
#include "armvm/program.h"
#include "costmodel/energy.h"

namespace eccm0::armvm {

/// Code lives at 0x0 (read-only), RAM at 0x20000000 — the Cortex-M0+
/// flash/SRAM split.
inline constexpr std::uint32_t kRamBase = 0x20000000u;
/// Writing this to PC (via BX LR) ends a `call`.
inline constexpr std::uint32_t kReturnSentinel = 0xFFFFFFFEu;

class Memory {
 public:
  /// Raw SRAM: every access completes in the base cycle model.
  explicit Memory(std::size_t size) : bytes_(size, 0), fast_size_(size) {}
  /// SRAM behind a protection codec (see armvm/memmodel.h). A kRaw
  /// config degenerates to the raw constructor. Protected sizes must be
  /// word multiples (the codecs operate on 32-bit words), and only the
  /// SECDED model accepts a scrub interval — scrubbing repairs words,
  /// which detect-only models cannot; std::invalid_argument otherwise.
  Memory(std::size_t size, const MemModelConfig& config);

  std::size_t size() const { return bytes_.size(); }
  bool is_protected() const { return model_ != nullptr; }
  const MemModelConfig& model_config() const { return config_; }
  MemModelKind model_kind() const { return config_.kind; }

  // Aligned, in-range accesses on *raw* memory take the inline fast
  // path below: one range/alignment test and a direct load/store at a
  // precomputed RAM-base offset, no per-access byte switch. Anything
  // else — misaligned, out of range, or any access on a protected
  // model — falls through to the out-of-line slow path, which raises
  // the typed armvm::Fault matching the condition (BusFault for
  // out-of-range, AlignmentFault for misaligned, MemoryIntegrityFault
  // for an uncorrectable codeword) with the pre-typed what() text.
  //
  // The gate is `fast_size_`, which equals bytes_.size() for raw memory
  // and 0 when a protection model is attached: the raw hot path is
  // exactly the seed comparison sequence (zero extra instructions), and
  // protected memory diverts every access to the codec without a
  // second branch.
  std::uint8_t load8(std::uint32_t addr) const {
    const std::uint32_t off = addr - kRamBase;
    if (addr >= kRamBase && off < fast_size_) [[likely]] {
      return bytes_[off];
    }
    return load8_slow(addr);
  }
  std::uint16_t load16(std::uint32_t addr) const {
    const std::uint32_t off = addr - kRamBase;
    if (addr >= kRamBase && (addr & 1) == 0 && off + 2 <= fast_size_)
        [[likely]] {
      return le16(&bytes_[off]);
    }
    return load16_slow(addr);
  }
  std::uint32_t load32(std::uint32_t addr) const {
    const std::uint32_t off = addr - kRamBase;
    if (addr >= kRamBase && (addr & 3) == 0 && off + 4 <= fast_size_)
        [[likely]] {
      return le32(&bytes_[off]);
    }
    return load32_slow(addr);
  }
  void store8(std::uint32_t addr, std::uint8_t v) {
    const std::uint32_t off = addr - kRamBase;
    if (addr >= kRamBase && off < fast_size_) [[likely]] {
      bytes_[off] = v;
      return;
    }
    store8_slow(addr, v);
  }
  void store16(std::uint32_t addr, std::uint16_t v) {
    const std::uint32_t off = addr - kRamBase;
    if (addr >= kRamBase && (addr & 1) == 0 && off + 2 <= fast_size_)
        [[likely]] {
      put_le16(&bytes_[off], v);
      return;
    }
    store16_slow(addr, v);
  }
  void store32(std::uint32_t addr, std::uint32_t v) {
    const std::uint32_t off = addr - kRamBase;
    if (addr >= kRamBase && (addr & 3) == 0 && off + 4 <= fast_size_)
        [[likely]] {
      put_le32(&bytes_[off], v);
      return;
    }
    store32_slow(addr, v);
  }

  // ---- Harness access (operand loading, result readout) --------------
  //
  // Full codec semantics — a peek decodes (and can raise
  // MemoryIntegrityFault), a poke re-encodes fresh check bits — but no
  // wait-state cycles are charged and the scrub clock does not advance:
  // the test bench talking to the SRAM is not the core paying bus
  // cycles.
  std::uint32_t peek32(std::uint32_t addr) const;
  void poke32(std::uint32_t addr, std::uint32_t v);
  void poke16(std::uint32_t addr, std::uint16_t v);

  /// Bulk helpers for test/benchmark harnesses; peek/poke semantics.
  void write_words(std::uint32_t addr, std::span<const std::uint32_t> w);
  std::vector<std::uint32_t> read_words(std::uint32_t addr,
                                        std::size_t count) const;

  /// Whole-RAM access for machine snapshots.
  std::span<const std::uint8_t> bytes() const { return bytes_; }
  /// Overwrite the full RAM image (size must match exactly; throws
  /// std::invalid_argument otherwise). Used by Cpu::restore(). On
  /// protected memory the image is treated as the *logical* content:
  /// every check byte is recomputed, i.e. the storage is clean
  /// afterwards. Restoring corrupted-storage state exactly additionally
  /// needs restore_protection() with the snapshot's check bits.
  void set_bytes(std::span<const std::uint8_t> image);

  // ---- Protection metadata, reliability counters, injection ----------

  /// The per-word check-byte sidecar (empty for raw memory).
  std::span<const std::uint8_t> check_bytes() const { return check_; }
  /// Restore the exact protection state a snapshot captured: the check
  /// bytes verbatim (overriding set_bytes' recomputation — this is what
  /// keeps deliberately-corrupt storage corrupt across a
  /// snapshot/restore round trip) and the scrub-clock phase. Raw memory
  /// accepts only an empty sidecar.
  void restore_protection(std::span<const std::uint8_t> check,
                          std::uint64_t accesses_since_scrub);

  /// Physical storage bits per word as the bit-error injector sees
  /// them: 32 data bits plus the model's check bits (32/33/39).
  unsigned storage_bits_per_word() const {
    return 32 + (model_ ? model_->check_bits() : 0);
  }
  /// Flip one physical storage bit: bits 0..31 are the data word,
  /// 32.. index into the check byte. Throws std::out_of_range outside
  /// [0, storage_bits_per_word()) or past the last word.
  void flip_storage_bit(std::uint32_t word, unsigned bit);

  /// Immediate scrubbing pass: decode every word, rewrite correctable
  /// ones with repaired data + fresh check bits, raise
  /// MemoryIntegrityFault on an uncorrectable word. Charges wait_states
  /// cycles per word swept. Also runs automatically every
  /// `scrub_interval` protected accesses. No-op on raw memory.
  void scrub();

  std::uint64_t protected_accesses() const { return protected_accesses_; }
  std::uint64_t accesses_since_scrub() const { return accesses_since_scrub_; }
  /// Single-bit errors repaired while serving accesses (SECDED decode).
  std::uint64_t corrections() const { return corrections_; }
  std::uint64_t scrub_passes() const { return scrub_passes_; }
  /// Words rewritten clean by scrubbing passes.
  std::uint64_t scrub_corrections() const { return scrub_corrections_; }

  /// Wait-state cycles accrued since the last drain. The Cpu drains
  /// this once per retired instruction into the kMemWait histogram
  /// class; harnesses never need to call it (peek/poke charge nothing).
  std::uint32_t take_pending_wait_cycles() {
    const std::uint32_t w = pending_wait_cycles_;
    pending_wait_cycles_ = 0;
    return w;
  }

 private:
  static std::uint16_t le16(const std::uint8_t* p) {
    if constexpr (std::endian::native == std::endian::little) {
      std::uint16_t v;
      std::memcpy(&v, p, 2);
      return v;
    } else {
      return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
    }
  }
  static std::uint32_t le32(const std::uint8_t* p) {
    if constexpr (std::endian::native == std::endian::little) {
      std::uint32_t v;
      std::memcpy(&v, p, 4);
      return v;
    } else {
      return static_cast<std::uint32_t>(p[0]) | (p[1] << 8u) | (p[2] << 16u) |
             (static_cast<std::uint32_t>(p[3]) << 24u);
    }
  }
  static void put_le16(std::uint8_t* p, std::uint16_t v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &v, 2);
    } else {
      p[0] = static_cast<std::uint8_t>(v);
      p[1] = static_cast<std::uint8_t>(v >> 8);
    }
  }
  static void put_le32(std::uint8_t* p, std::uint32_t v) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(p, &v, 4);
    } else {
      p[0] = static_cast<std::uint8_t>(v);
      p[1] = static_cast<std::uint8_t>(v >> 8);
      p[2] = static_cast<std::uint8_t>(v >> 16);
      p[3] = static_cast<std::uint8_t>(v >> 24);
    }
  }

  /// The fused-block dispatcher hoists the RAM view into locals so the
  /// compiler can keep it in registers across byte stores (which may
  /// alias anything, including this vector's own bookkeeping).
  friend class Cpu;

  std::uint8_t load8_slow(std::uint32_t addr) const;
  std::uint16_t load16_slow(std::uint32_t addr) const;
  std::uint32_t load32_slow(std::uint32_t addr) const;
  void store8_slow(std::uint32_t addr, std::uint8_t v);
  void store16_slow(std::uint32_t addr, std::uint16_t v);
  void store32_slow(std::uint32_t addr, std::uint32_t v);
  std::size_t index(std::uint32_t addr, std::size_t bytes) const;

  // Protected-path helpers (model_ != nullptr). decode_word serves the
  // corrected value of word `word` (raising MemoryIntegrityFault at
  // `addr` when the codeword is rotten); loads deliberately do NOT
  // write the correction back — repair is the scrubbing pass's job,
  // which is what gives the scrub interval observable meaning.
  // charge_access accrues wait-states and ticks the scrub clock; it is
  // const because load paths are const, and the counters it touches are
  // logically non-observable (mutable).
  std::uint32_t decode_word(std::size_t word, std::uint32_t addr) const;
  void encode_word(std::size_t word, std::uint32_t data);
  void charge_access() const;

  std::vector<std::uint8_t> bytes_;
  /// bytes_.size() for raw memory, 0 when protected — the single gate
  /// that keeps the inline fast paths raw-only (see comment above).
  std::size_t fast_size_ = 0;
  MemModelConfig config_{};
  std::unique_ptr<MemoryModel> model_;
  std::vector<std::uint8_t> check_;  ///< one check byte per word

  mutable std::uint32_t pending_wait_cycles_ = 0;
  mutable std::uint64_t protected_accesses_ = 0;
  mutable std::uint64_t accesses_since_scrub_ = 0;
  mutable std::uint64_t corrections_ = 0;
  std::uint64_t scrub_passes_ = 0;
  std::uint64_t scrub_corrections_ = 0;
};

struct RunStats {
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  costmodel::CycleHistogram histogram;

  costmodel::EnergyReport energy(const costmodel::InstructionEnergyTable& t =
                                     costmodel::kM0PlusEnergy) const {
    return costmodel::energy_of(histogram, t);
  }

  friend bool operator==(const RunStats&, const RunStats&) = default;
};

/// Complete checkpoint of one execution context: architectural state
/// (registers + flags, with the retired-work counters mirrored in
/// `arch`), the full RunStats including the cycle histogram, the halted
/// latch, and the entire RAM image. `Cpu::snapshot()` at an injection
/// point plus `Cpu::restore()` on any context over the same Program
/// forks the run instead of replaying it from reset — the continuation
/// is bit-identical to a straight-through execution.
struct MachineSnapshot {
  ArchState arch;
  RunStats stats;
  bool halted = false;
  std::vector<std::uint8_t> ram;
  /// Protection sidecar of a protected Memory (empty for raw): restored
  /// verbatim, so storage that held a latent (even deliberately
  /// injected) bit error stays bit-for-bit rotten across the round trip
  /// instead of being silently re-encoded clean.
  std::vector<std::uint8_t> check;
  /// Scrub-clock phase (accesses since the last scrubbing pass).
  std::uint64_t mem_accesses = 0;

  friend bool operator==(const MachineSnapshot&,
                         const MachineSnapshot&) = default;
};

/// One memory access performed by a retired instruction.
struct MemAccess {
  std::uint32_t addr = 0;
  std::uint8_t width = 0;  ///< bytes transferred: 1, 2 or 4
  bool store = false;

  friend bool operator==(const MemAccess&, const MemAccess&) = default;
};

/// Rich retired-instruction event: where the instruction was (PC), what
/// it was (decoded form), what it cost (the same cost pairs the cycle
/// histogram receives — LDM/STM/PUSH/POP carry two: transfer + overhead)
/// and which memory words it touched. `cycle` is the simulated clock at
/// issue, so a sink can reconstruct the full timeline; `next_pc` is the
/// PC after retirement (branch target, fallthrough, or the return
/// sentinel), which is what lets a profiler follow BL/BX control flow
/// without re-decoding anything.
struct TraceEvent {
  std::uint64_t cycle = 0;  ///< simulated clock when the instruction issued
  std::uint32_t pc = 0;      ///< address of the retired instruction
  std::uint32_t next_pc = 0; ///< PC after retirement
  Instr ins;

  struct Cost {
    costmodel::InstrClass cls{};
    /// 32-bit: a protected-memory instruction's kMemWait entry can carry
    /// a whole scrubbing pass (wait_states x every word in RAM).
    std::uint32_t cycles = 0;

    friend bool operator==(const Cost&, const Cost&) = default;
  };
  std::uint8_t num_costs = 0;
  std::uint8_t num_accesses = 0;
  /// At most three: transfer + overhead (LDM/STM/PUSH/POP) + one batched
  /// kMemWait entry when the memory model charges wait-states.
  Cost costs[3];
  /// LDM/STM/PUSH/POP transfer at most 8 lo registers + LR/PC.
  MemAccess accesses[9];

  unsigned cycles() const {
    unsigned t = 0;
    for (unsigned i = 0; i < num_costs; ++i) t += costs[i].cycles;
    return t;
  }

  /// Streams compare equal when every *populated* field matches (the
  /// scratch event is reused across instructions, so entries past the
  /// counts are stale).
  friend bool operator==(const TraceEvent& a, const TraceEvent& b) {
    if (a.cycle != b.cycle || a.pc != b.pc || a.next_pc != b.next_pc ||
        !(a.ins == b.ins) || a.num_costs != b.num_costs ||
        a.num_accesses != b.num_accesses) {
      return false;
    }
    for (unsigned i = 0; i < a.num_costs; ++i) {
      if (!(a.costs[i] == b.costs[i])) return false;
    }
    for (unsigned i = 0; i < a.num_accesses; ++i) {
      if (!(a.accesses[i] == b.accesses[i])) return false;
    }
    return true;
  }
};

/// Observer of the retired instruction stream (power-trace simulators,
/// profilers, memory heatmaps). The interpreter is stamped out twice:
/// untraced runs execute a loop with NO tracing code in it at all (the
/// single `trace_` null-check selects the loop variant outside the hot
/// path), so attaching a sink costs the untraced path nothing.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  /// One retired instruction with its full cost and memory detail.
  virtual void on_retire(const TraceEvent& ev) = 0;
};

/// Fans one retired-instruction stream out to several sinks (e.g.
/// Profiler + PowerRig + MemHeatmap on the same run). Borrowed pointers,
/// like Cpu's sink: every registered sink must outlive the traced run.
class TeeSink final : public TraceSink {
 public:
  TeeSink() = default;
  explicit TeeSink(std::vector<TraceSink*> sinks) : sinks_(std::move(sinks)) {}

  void add(TraceSink* s) { sinks_.push_back(s); }

  void on_retire(const TraceEvent& ev) override {
    for (TraceSink* s : sinks_) s->on_retire(ev);
  }

 private:
  std::vector<TraceSink*> sinks_;
};

class Cpu {
 public:
  /// How the execution engine obtains decoded instructions.
  enum class DecodeMode {
    kPredecode,  ///< execute from the construction-time decode cache
    kPerStep,    ///< reference engine: fresh decode() every instruction
    kThreaded,   ///< token-threaded dispatch over the predecode cache,
                 ///< with fused basic-block superinstructions that may
                 ///< end in their closing branch, batched accounting,
                 ///< and block-to-block chaining across those branches
                 ///< (see armvm/superinst.h). Falls back to
                 ///< per-instruction execution when the budget would
                 ///< expire inside a block or when the PC enters a block
                 ///< anywhere but its head, and to the predecoded loop
                 ///< when a TraceSink is attached or the RAM is
                 ///< protected. Bit-identical to the other engines.
  };
  /// The engine every config, campaign and harness runs unless told
  /// otherwise — the one place the default is spelled.
  static constexpr DecodeMode kDefaultEngine = DecodeMode::kThreaded;

  /// A Cpu is a cheap per-run execution context over a shared immutable
  /// `Program` (code at address 0, predecode cache, symbols); `ram` is
  /// the SRAM. Any number of contexts — including on different threads —
  /// can execute the same ProgramRef concurrently, each with its own
  /// Memory.
  Cpu(ProgramRef prog, Memory& ram, DecodeMode mode = kDefaultEngine);
  /// Convenience: wrap raw halfwords into a fresh single-use Program.
  Cpu(std::vector<std::uint16_t> code, Memory& ram,
      DecodeMode mode = kDefaultEngine);

  const Program& program() const { return *prog_; }

  std::uint32_t reg(unsigned r) const { return r_[r]; }
  void set_reg(unsigned r, std::uint32_t v) { r_[r] = v; }
  bool flag_n() const { return n_; }
  bool flag_z() const { return z_; }
  bool flag_c() const { return c_; }
  bool flag_v() const { return v_; }

  /// Execute one instruction at PC. Returns false when halted (BKPT or
  /// return-sentinel reached). Architectural errors surface as typed
  /// armvm::Fault exceptions annotated with the state at the fault.
  bool step();

  /// Retire exactly `n` instructions through this core's engine, or
  /// fewer when it halts first; returns how many retired. No budget
  /// (the caller bounds n) and faults surface as from step(). The
  /// threaded engine enters or chains into a fused block only when the
  /// whole block fits in what is left of n, so every engine stops on
  /// the same instruction as n single steps would.
  std::uint64_t run_for(std::uint64_t n);

  /// step() with one transient fetch fault: for this instruction only,
  /// the halfword at PC reads as its value XOR `flip`, both when it is
  /// decoded and in any code-space load it makes (the step runs over a
  /// private copy of the image). Only the fetched halfword(s) are
  /// decoded; the shared Program and its predecode cache are untouched.
  /// A PC that is no instruction slot (odd, outside the code, the return
  /// sentinel) has nothing to corrupt: plain step().
  bool step_corrupted(std::uint16_t flip);

  /// Standard AAPCS-ish call: r0..r3 = args, lr = sentinel, runs to
  /// completion (throws armvm::BudgetFault after `max_instructions`).
  RunStats call(std::uint32_t entry, std::initializer_list<std::uint32_t> args,
                std::uint64_t max_instructions = 100'000'000);

  /// Resume execution from the current architectural state (PC, flags,
  /// halted latch as-is) until the core halts — what `call()` does after
  /// setting up the calling convention. Lets a restored snapshot or a
  /// mid-run fault handoff continue under any engine; the PC may point
  /// anywhere, including into the middle of a fused block (the threaded
  /// engine then executes per-instruction until the next block head).
  /// Returns the stats delta of this resume.
  RunStats run(std::uint64_t max_instructions = 100'000'000);

  /// Snapshot of registers, flags and retired-work counters — the same
  /// structure a Fault carries. Used by fault-injection harnesses to
  /// hand execution between cores and by tests to compare engines.
  ArchState arch_state() const;
  /// Restore registers and flags from a snapshot. Deliberately
  /// asymmetric with arch_state(): the retired-work counters and the
  /// halted latch are NOT restored — they belong to this core's own
  /// execution history. `reset_stats()` + `set_arch_state()` (plus
  /// `clear_halted()` if the core already ran to completion) therefore
  /// give a clean re-run from the restored architectural state.
  void set_arch_state(const ArchState& s);

  /// Full machine checkpoint: architectural state, RunStats (histogram
  /// included), halted latch and the complete RAM image.
  MachineSnapshot snapshot() const;
  /// Restore every field a snapshot() captured — counters, latch and
  /// RAM included — so execution resumes bit-identically from the
  /// checkpoint. The snapshot's RAM size must match this context's RAM.
  void restore(const MachineSnapshot& s);

  /// True once a run ended (BKPT or return sentinel). `call()` clears
  /// the latch itself; `clear_halted()` re-arms a stepped or restored
  /// context so it can resume.
  bool halted() const { return halted_; }
  void clear_halted() { halted_ = false; }

  const RunStats& stats() const { return stats_; }
  void reset_stats() {
    stats_ = {};
    fused_retired_ = 0;
    fused_blocks_entered_ = 0;
  }

  /// Diagnostics of the threaded engine (fusion report): instructions
  /// retired inside fused superblocks, and blocks entered. Not part of
  /// RunStats or snapshots — purely observability, zero for the other
  /// engines.
  std::uint64_t fused_retired() const { return fused_retired_; }
  std::uint64_t fused_blocks_entered() const { return fused_blocks_entered_; }

  /// Attach an observer of retired cost events (nullptr detaches). The
  /// sink is borrowed, not owned; it must outlive the traced run.
  void set_trace_sink(TraceSink* sink) { trace_ = sink; }

 private:
  /// The NZCV flags as the instruction bodies (armvm/ops.inc) update
  /// them: references to the members in exec(), to register-resident
  /// locals in the fused dispatcher. Its add-with-carry, NZ and
  /// condition helpers are the only ones either interpreter has.
  struct FlagRefs {
    bool& n;
    bool& z;
    bool& c;
    bool& v;

    [[gnu::always_inline]] void set_nz(std::uint32_t x) const {
      n = (x >> 31) != 0;
      z = x == 0;
    }
    /// ARMv6-M AddWithCarry, setting all four flags.
    [[gnu::always_inline]] std::uint32_t adc(std::uint32_t a, std::uint32_t b,
                                             bool carry_in) const {
      const std::uint64_t wide =
          static_cast<std::uint64_t>(a) + b + (carry_in ? 1 : 0);
      const auto result = static_cast<std::uint32_t>(wide);
      set_nz(result);
      c = (wide >> 32) != 0;
      v = (~(a ^ b) & (a ^ result) & 0x80000000u) != 0;
      return result;
    }
    /// Whether a BCond on `cond` is taken.
    [[gnu::always_inline]] bool holds(Cond cond) const {
      switch (cond) {
#define ECCM0_COND_CASE(name, taken) \
  case Cond::k##name:                \
    return taken;
        ECCM0_FOR_EACH_COND(ECCM0_COND_CASE)
#undef ECCM0_COND_CASE
      }
      return false;
    }
  };

  bool step_impl();
  /// The per-instruction interpreter core: the instruction bodies of
  /// armvm/ops.inc plus the branches, each charging its static_costs.
  /// Stamped out twice: the untraced instantiation has no event
  /// assembly and no extra branches anywhere inside the flattened loop;
  /// the traced one records cost pairs and memory accesses into the
  /// scratch event.
  template <bool kTraced>
  void exec(const Instr& ins, unsigned halfwords);
  // Defined inline below so both interpreter translation units (cpu.cpp
  // and the threaded dispatcher in dispatch.cpp) flatten the memory
  // fast paths into their hot loops.
  template <bool kTraced>
  std::uint32_t read_mem(std::uint32_t addr, unsigned bytes);
  template <bool kTraced>
  void write_mem(std::uint32_t addr, std::uint32_t v, unsigned bytes);
  template <bool kTraced>
  void account(costmodel::InstrClass cls, unsigned cycles) {
    stats_.histogram.add(cls, cycles);
    stats_.cycles += cycles;
    if constexpr (kTraced) {
      ev_.costs[ev_.num_costs].cls = cls;
      ev_.costs[ev_.num_costs].cycles = cycles;
      ++ev_.num_costs;
    }
  }
  /// Account the static_costs of a retired `op`. exec passes each
  /// case's constant Op, so the table folds to immediates.
  template <bool kTraced>
  [[gnu::always_inline]] void charge(Op op, const Instr& ins) {
    InstrCost costs[2];
    const unsigned n = static_costs(op, ins, costs);
    for (unsigned k = 0; k < n; ++k) {
      account<kTraced>(costs[k].cls, costs[k].cycles);
    }
  }
  void note_access(std::uint32_t addr, unsigned bytes, bool store) {
    if (ev_.num_accesses < 9) {
      ev_.accesses[ev_.num_accesses] = {addr, static_cast<std::uint8_t>(bytes),
                                        store};
      ++ev_.num_accesses;
    }
  }
  /// Traced retirement: assemble the rich event around exec<true>() and
  /// deliver it to the sink.
  void exec_traced(std::uint32_t pc, const Instr& ins, unsigned halfwords);
  [[noreturn]] void trap_undecodable(std::size_t idx) const;
  std::uint64_t run_predecoded(std::uint64_t limit);
  /// kProt selects the protected-memory variant, which drains the
  /// Memory's pending wait-state cycles into the kMemWait class after
  /// every retired instruction. The untraced/raw instantiation stays
  /// bit-for-bit the seed hot path.
  template <bool kTraced, bool kProt>
  std::uint64_t run_predecoded_impl(std::uint64_t limit);
  /// Threaded-engine chunk runner (dispatch.cpp). Falls back to the
  /// traced predecoded loop when a sink is attached or the RAM is
  /// protected (fused blocks precompute cycle deltas and bypass the
  /// Memory accessors entirely, so they cannot see wait-states).
  std::uint64_t run_threaded(std::uint64_t limit);
  /// Retire the fused block `first` (PC is at its head), then keep
  /// chaining into each successor block whose whole retirement fits in
  /// what is left of `room` instructions; returns how many retired. On
  /// a Fault, replays the accounting of the instructions that retired
  /// before the faulting one and leaves the exact per-step
  /// architectural state.
  std::uint64_t run_fused_block(const SuperBlock& first, std::uint64_t room);

  /// The shared immutable image, plus raw views into it so the hot loop
  /// pays no shared_ptr indirection.
  ProgramRef prog_;
  const std::uint16_t* code_ = nullptr;
  std::size_t code_size_ = 0;
  const PredecodedSlot* cache_ = nullptr;
  Memory& ram_;
  DecodeMode mode_;
  std::uint32_t r_[16] = {};
  bool n_ = false, z_ = false, c_ = false, v_ = false;
  bool halted_ = false;
  RunStats stats_;
  std::uint64_t fused_retired_ = 0;
  std::uint64_t fused_blocks_entered_ = 0;
  TraceSink* trace_ = nullptr;
  TraceEvent ev_;  ///< scratch event, populated only while trace_ is set
};

template <bool kTraced>
inline std::uint32_t Cpu::read_mem(std::uint32_t addr, unsigned bytes) {
  if constexpr (kTraced) note_access(addr, bytes, false);
  if (addr < kRamBase) {
    // Read-only code / literal-pool space.
    std::uint32_t v = 0;
    for (unsigned i = 0; i < bytes; ++i) {
      const std::uint32_t byte_addr = addr + i;
      const std::size_t hw = byte_addr / 2;
      if (hw >= code_size_) {
        throw BusFault("Cpu: code-space read out of range", byte_addr);
      }
      const std::uint8_t byte =
          static_cast<std::uint8_t>(code_[hw] >> (8 * (byte_addr % 2)));
      v |= static_cast<std::uint32_t>(byte) << (8 * i);
    }
    return v;
  }
  switch (bytes) {
    case 1: return ram_.load8(addr);
    case 2: return ram_.load16(addr);
    default: return ram_.load32(addr);
  }
}

template <bool kTraced>
inline void Cpu::write_mem(std::uint32_t addr, std::uint32_t v,
                           unsigned bytes) {
  if constexpr (kTraced) note_access(addr, bytes, true);
  switch (bytes) {
    case 1: ram_.store8(addr, static_cast<std::uint8_t>(v)); break;
    case 2: ram_.store16(addr, static_cast<std::uint16_t>(v)); break;
    default: ram_.store32(addr, v); break;
  }
}

}  // namespace eccm0::armvm
