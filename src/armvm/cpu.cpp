#include "armvm/cpu.h"

#include <algorithm>
#include <stdexcept>

#include "armvm/codec.h"
#include "armvm/isa.h"

// Force full inlining of the interpreter hot loop (exec + memory fast
// paths collapse into run_predecoded): ~20% more simulated MIPS on GCC.
#if defined(__GNUC__) || defined(__clang__)
#define ECCM0_FLATTEN __attribute__((flatten))
#else
#define ECCM0_FLATTEN
#endif

namespace eccm0::armvm {

using costmodel::InstrClass;

Memory::Memory(std::size_t size, const MemModelConfig& config)
    : bytes_(size, 0), config_(config) {
  if (config.kind == MemModelKind::kRaw) {
    if (config.scrub_interval != 0) {
      throw std::invalid_argument(
          "Memory: scrub interval requires the SECDED model (raw memory has "
          "nothing to scrub)");
    }
    config_.wait_states = 0;
    fast_size_ = size;
    return;
  }
  if (config.kind != MemModelKind::kSecded && config.scrub_interval != 0) {
    throw std::invalid_argument(
        "Memory: scrub interval requires the SECDED model (detect-only "
        "models cannot repair words)");
  }
  if (size % 4 != 0) {
    throw std::invalid_argument(
        "Memory: protected RAM size must be a multiple of 4");
  }
  model_ = make_memory_model(config.kind);
  check_.assign(size / 4, model_->encode(0));
  fast_size_ = 0;  // every access goes through the codec slow path
}

// Slow paths: reached for unaligned or out-of-range addresses, and for
// EVERY access on protected memory (fast_size_ == 0 diverts the inline
// fast paths here). They keep the original check order so the raised
// fault is unchanged: alignment faults on an in-principle-unaligned
// address are reported before range, and both before any codeword
// decode (the bus rejects the access before the SRAM array is read).
std::size_t Memory::index(std::uint32_t addr, std::size_t bytes) const {
  if (addr < kRamBase || addr - kRamBase + bytes > bytes_.size()) {
    throw BusFault("Memory: access outside RAM at " + std::to_string(addr),
                   addr);
  }
  return addr - kRamBase;
}

std::uint32_t Memory::decode_word(std::size_t word, std::uint32_t addr) const {
  const MemoryModel::Decoded d =
      model_->decode(le32(&bytes_[4 * word]), check_[word]);
  if (d.uncorrectable) {
    throw MemoryIntegrityFault(
        std::string(model_->error_text()) + " at " + std::to_string(addr),
        addr);
  }
  if (d.corrected) ++corrections_;
  return d.data;
}

void Memory::encode_word(std::size_t word, std::uint32_t data) {
  put_le32(&bytes_[4 * word], data);
  check_[word] = model_->encode(data);
}

void Memory::charge_access() const {
  pending_wait_cycles_ += config_.wait_states;
  ++protected_accesses_;
  if (config_.scrub_interval != 0 &&
      ++accesses_since_scrub_ >= config_.scrub_interval) {
    accesses_since_scrub_ = 0;
    // Logically const: scrubbing repairs the *storage representation* of
    // words without changing any value a load can observe (uncorrectable
    // words throw, from scrub and from direct access alike).
    const_cast<Memory*>(this)->scrub();
  }
}

void Memory::scrub() {
  if (model_ == nullptr) return;
  const std::size_t words = bytes_.size() / 4;
  for (std::size_t w = 0; w < words; ++w) {
    const MemoryModel::Decoded d =
        model_->decode(le32(&bytes_[4 * w]), check_[w]);
    if (d.uncorrectable) {
      const auto addr = kRamBase + static_cast<std::uint32_t>(4 * w);
      throw MemoryIntegrityFault(std::string(model_->error_text()) +
                                     " at " + std::to_string(addr) +
                                     " (scrub)",
                                 addr);
    }
    if (d.corrected) {
      encode_word(w, d.data);
      ++scrub_corrections_;
    }
  }
  ++scrub_passes_;
  accesses_since_scrub_ = 0;
  pending_wait_cycles_ += config_.wait_states * static_cast<std::uint32_t>(words);
}

std::uint8_t Memory::load8_slow(std::uint32_t addr) const {
  const std::size_t i = index(addr, 1);
  if (model_ == nullptr) return bytes_[i];
  const std::uint32_t w = decode_word(i / 4, addr);
  charge_access();
  return static_cast<std::uint8_t>(w >> (8 * (i % 4)));
}

std::uint16_t Memory::load16_slow(std::uint32_t addr) const {
  if (addr & 1) throw AlignmentFault("Memory: unaligned halfword load", addr);
  const std::size_t i = index(addr, 2);
  if (model_ == nullptr) {
    return static_cast<std::uint16_t>(bytes_[i] | (bytes_[i + 1] << 8));
  }
  const std::uint32_t w = decode_word(i / 4, addr);
  charge_access();
  return static_cast<std::uint16_t>(w >> (8 * (i % 4)));
}

std::uint32_t Memory::load32_slow(std::uint32_t addr) const {
  if (addr & 3) throw AlignmentFault("Memory: unaligned word load", addr);
  const std::size_t i = index(addr, 4);
  if (model_ == nullptr) {
    return static_cast<std::uint32_t>(bytes_[i]) |
           (static_cast<std::uint32_t>(bytes_[i + 1]) << 8) |
           (static_cast<std::uint32_t>(bytes_[i + 2]) << 16) |
           (static_cast<std::uint32_t>(bytes_[i + 3]) << 24);
  }
  const std::uint32_t w = decode_word(i / 4, addr);
  charge_access();
  return w;
}

void Memory::store8_slow(std::uint32_t addr, std::uint8_t v) {
  const std::size_t i = index(addr, 1);
  if (model_ == nullptr) {
    bytes_[i] = v;
    return;
  }
  // Sub-word store = read-modify-write of the codeword; decoding first
  // means a store into a rotten word faults rather than laundering it.
  const std::uint32_t shift = 8 * static_cast<std::uint32_t>(i % 4);
  const std::uint32_t old = decode_word(i / 4, addr);
  encode_word(i / 4,
              (old & ~(0xFFu << shift)) | (std::uint32_t{v} << shift));
  charge_access();
}

void Memory::store16_slow(std::uint32_t addr, std::uint16_t v) {
  if (addr & 1) throw AlignmentFault("Memory: unaligned halfword store", addr);
  const std::size_t i = index(addr, 2);
  if (model_ == nullptr) {
    bytes_[i] = static_cast<std::uint8_t>(v);
    bytes_[i + 1] = static_cast<std::uint8_t>(v >> 8);
    return;
  }
  const std::uint32_t shift = 8 * static_cast<std::uint32_t>(i % 4);
  const std::uint32_t old = decode_word(i / 4, addr);
  encode_word(i / 4,
              (old & ~(0xFFFFu << shift)) | (std::uint32_t{v} << shift));
  charge_access();
}

void Memory::store32_slow(std::uint32_t addr, std::uint32_t v) {
  if (addr & 3) throw AlignmentFault("Memory: unaligned word store", addr);
  const std::size_t i = index(addr, 4);
  if (model_ == nullptr) {
    bytes_[i] = static_cast<std::uint8_t>(v);
    bytes_[i + 1] = static_cast<std::uint8_t>(v >> 8);
    bytes_[i + 2] = static_cast<std::uint8_t>(v >> 16);
    bytes_[i + 3] = static_cast<std::uint8_t>(v >> 24);
    return;
  }
  // Full-word overwrite: fresh codeword, the stale one is irrelevant.
  encode_word(i / 4, v);
  charge_access();
}

std::uint32_t Memory::peek32(std::uint32_t addr) const {
  if (addr & 3) throw AlignmentFault("Memory: unaligned word load", addr);
  const std::size_t i = index(addr, 4);
  if (model_ == nullptr) return le32(&bytes_[i]);
  return decode_word(i / 4, addr);
}

void Memory::poke32(std::uint32_t addr, std::uint32_t v) {
  if (addr & 3) throw AlignmentFault("Memory: unaligned word store", addr);
  const std::size_t i = index(addr, 4);
  if (model_ == nullptr) {
    put_le32(&bytes_[i], v);
    return;
  }
  encode_word(i / 4, v);
}

void Memory::poke16(std::uint32_t addr, std::uint16_t v) {
  if (addr & 1) throw AlignmentFault("Memory: unaligned halfword store", addr);
  const std::size_t i = index(addr, 2);
  if (model_ == nullptr) {
    put_le16(&bytes_[i], v);
    return;
  }
  const std::uint32_t shift = 8 * static_cast<std::uint32_t>(i % 4);
  const std::uint32_t old = decode_word(i / 4, addr);
  encode_word(i / 4,
              (old & ~(0xFFFFu << shift)) | (std::uint32_t{v} << shift));
}

void Memory::set_bytes(std::span<const std::uint8_t> image) {
  if (image.size() != bytes_.size()) {
    throw std::invalid_argument("Memory::set_bytes: size mismatch");
  }
  std::copy(image.begin(), image.end(), bytes_.begin());
  if (model_ != nullptr) {
    // The image is the logical content; re-encode clean check bits.
    for (std::size_t w = 0; w < check_.size(); ++w) {
      check_[w] = model_->encode(le32(&bytes_[4 * w]));
    }
  }
}

void Memory::restore_protection(std::span<const std::uint8_t> check,
                                std::uint64_t accesses_since_scrub) {
  if (model_ == nullptr) {
    if (!check.empty()) {
      throw std::invalid_argument(
          "Memory::restore_protection: raw memory has no check bits");
    }
    return;
  }
  if (check.size() != check_.size()) {
    throw std::invalid_argument(
        "Memory::restore_protection: check-bit size mismatch");
  }
  std::copy(check.begin(), check.end(), check_.begin());
  accesses_since_scrub_ = accesses_since_scrub;
  pending_wait_cycles_ = 0;  // never nonzero at a legal snapshot point
}

void Memory::flip_storage_bit(std::uint32_t word, unsigned bit) {
  if (word >= bytes_.size() / 4) {
    throw std::out_of_range("Memory::flip_storage_bit: word out of range");
  }
  if (bit < 32) {
    bytes_[4 * word + bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    return;
  }
  if (model_ == nullptr || bit >= storage_bits_per_word()) {
    throw std::out_of_range("Memory::flip_storage_bit: bit out of range");
  }
  check_[word] ^= static_cast<std::uint8_t>(1u << (bit - 32));
}

void Memory::write_words(std::uint32_t addr,
                         std::span<const std::uint32_t> w) {
  for (std::size_t i = 0; i < w.size(); ++i) {
    poke32(addr + static_cast<std::uint32_t>(4 * i), w[i]);
  }
}

std::vector<std::uint32_t> Memory::read_words(std::uint32_t addr,
                                              std::size_t count) const {
  std::vector<std::uint32_t> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = peek32(addr + static_cast<std::uint32_t>(4 * i));
  }
  return out;
}

Cpu::Cpu(ProgramRef prog, Memory& ram, DecodeMode mode)
    : prog_(std::move(prog)),
      code_(prog_->code().data()),
      code_size_(prog_->code().size()),
      cache_(prog_->cache().data()),
      ram_(ram),
      mode_(mode) {
  r_[kSP] = kRamBase + static_cast<std::uint32_t>(ram_.size());
}

Cpu::Cpu(std::vector<std::uint16_t> code, Memory& ram, DecodeMode mode)
    : Cpu(make_program(std::move(code)), ram, mode) {}

void Cpu::trap_undecodable(std::size_t idx) const {
  // Re-run the fresh decoder so the caller sees the exact error a
  // per-step interpreter would have raised at this PC.
  (void)decode(prog_->code(), idx);
  throw std::logic_error("Cpu: predecode-invalid slot decoded cleanly");
}

ArchState Cpu::arch_state() const {
  ArchState s;
  for (unsigned i = 0; i < kNumRegs; ++i) s.r[i] = r_[i];
  s.n = n_;
  s.z = z_;
  s.c = c_;
  s.v = v_;
  s.instructions = stats_.instructions;
  s.cycles = stats_.cycles;
  return s;
}

void Cpu::set_arch_state(const ArchState& s) {
  for (unsigned i = 0; i < kNumRegs; ++i) r_[i] = s.r[i];
  n_ = s.n;
  z_ = s.z;
  c_ = s.c;
  v_ = s.v;
}

MachineSnapshot Cpu::snapshot() const {
  MachineSnapshot s;
  s.arch = arch_state();
  s.stats = stats_;
  s.halted = halted_;
  const auto ram = ram_.bytes();
  s.ram.assign(ram.begin(), ram.end());
  const auto check = ram_.check_bytes();
  s.check.assign(check.begin(), check.end());
  s.mem_accesses = ram_.accesses_since_scrub();
  return s;
}

void Cpu::restore(const MachineSnapshot& s) {
  set_arch_state(s.arch);
  stats_ = s.stats;
  halted_ = s.halted;
  // set_bytes re-encodes clean check bits from the logical image;
  // restore_protection then overlays the snapshot's exact sidecar, so a
  // word that held a latent bit error at snapshot time is restored
  // rotten, not spuriously "corrected".
  ram_.set_bytes(s.ram);
  ram_.restore_protection(s.check, s.mem_accesses);
}

void Cpu::exec_traced(std::uint32_t pc, const Instr& ins, unsigned halfwords) {
  ev_.cycle = stats_.cycles;
  ev_.pc = pc;
  ev_.ins = ins;
  ev_.num_costs = 0;
  ev_.num_accesses = 0;
  exec<true>(ins, halfwords);
  // Drain the wait-states this instruction's protected accesses accrued
  // as one batched kMemWait cost entry, INSIDE the event: traced streams
  // stay bit-identical across engines, and ev_.cycles() still equals the
  // instruction's true cycle cost.
  if (const std::uint32_t w = ram_.take_pending_wait_cycles(); w != 0) {
    account<true>(InstrClass::kMemWait, w);
  }
  ev_.next_pc = r_[kPC];
  trace_->on_retire(ev_);
}

bool Cpu::step() {
  try {
    return step_impl();
  } catch (Fault& f) {
    f.attach_state(arch_state());
    throw;
  }
}

bool Cpu::step_impl() {
  if (halted_) return false;
  const std::uint32_t pc = r_[kPC];
  if (pc == kReturnSentinel) {
    halted_ = true;
    return false;
  }
  if (pc % 2 != 0) throw AlignmentFault("Cpu: odd PC", pc);
  const std::size_t idx = pc / 2;
  if (idx >= code_size_) throw BusFault("Cpu: PC outside code", pc);
  // kThreaded steps exactly like kPredecode: fusion only kicks in inside
  // the bulk runner, single-stepping is always per-instruction.
  if (mode_ != DecodeMode::kPerStep) [[likely]] {
    const PredecodedSlot& s = cache_[idx];
    if (!s.valid) [[unlikely]] trap_undecodable(idx);
    r_[kPC] = pc + 2u * s.halfwords;  // default fallthrough
    if (trace_ == nullptr) [[likely]] {
      exec<false>(s.ins, s.halfwords);
    } else {
      exec_traced(pc, s.ins, s.halfwords);
    }
  } else {
    const Decoded d = decode(prog_->code(), idx);
    r_[kPC] = pc + 2 * d.halfwords;  // default fallthrough
    if (trace_ == nullptr) [[likely]] {
      exec<false>(d.ins, d.halfwords);
    } else {
      exec_traced(pc, d.ins, d.halfwords);
    }
  }
  // Untraced protected memory drains its wait-states here (traced runs
  // already drained inside exec_traced, so this reads zero). Raw memory
  // never accrues any: the load folds to a compare against 0.
  if (const std::uint32_t w = ram_.take_pending_wait_cycles(); w != 0)
      [[unlikely]] {
    account<false>(InstrClass::kMemWait, w);
  }
  ++stats_.instructions;
  return !halted_;
}

bool Cpu::step_corrupted(std::uint16_t flip) {
  const std::uint32_t pc = r_[kPC];
  const std::size_t idx = pc / 2;
  if (halted_ || pc % 2 != 0 || idx >= code_size_) return step();
  // The step's view of code space: the image with the one halfword
  // flipped, until the step ends, however it ends.
  std::vector<std::uint16_t> image(code_, code_ + code_size_);
  image[idx] ^= flip;
  struct CodeView {
    Cpu& cpu;
    const std::uint16_t* pristine;
    ~CodeView() { cpu.code_ = pristine; }
  } view{*this, code_};
  code_ = image.data();
  try {
    // step_impl's retirement, on the corrupted decode.
    const Decoded d = decode(image, idx);
    r_[kPC] = pc + 2 * d.halfwords;
    if (trace_ == nullptr) {
      exec<false>(d.ins, d.halfwords);
    } else {
      exec_traced(pc, d.ins, d.halfwords);
    }
    if (const std::uint32_t w = ram_.take_pending_wait_cycles(); w != 0) {
      account<false>(InstrClass::kMemWait, w);
    }
    ++stats_.instructions;
    return !halted_;
  } catch (Fault& f) {
    f.attach_state(arch_state());
    throw;
  }
}

std::uint64_t Cpu::run_for(std::uint64_t n) {
  const std::uint64_t before = stats_.instructions;
  switch (mode_) {
    case DecodeMode::kPredecode:
      run_predecoded(n);
      break;
    case DecodeMode::kThreaded:
      run_threaded(n);
      break;
    case DecodeMode::kPerStep:
      for (std::uint64_t i = 0; i < n && step(); ++i) {
      }
      break;
  }
  return stats_.instructions - before;
}

std::uint64_t Cpu::run_predecoded(std::uint64_t limit) {
  // Select the loop instantiation ONCE per chunk: the untraced/raw
  // variant contains no tracing or wait-state code at all, so an idle
  // sink pointer or an unprotected Memory costs the hot path nothing.
  // (Traced runs drain wait-states inside exec_traced, so the traced
  // loop needs no kProt variant.)
  if (trace_ != nullptr) return run_predecoded_impl<true, false>(limit);
  return ram_.is_protected() ? run_predecoded_impl<false, true>(limit)
                             : run_predecoded_impl<false, false>(limit);
}

template <bool kTraced, bool kProt>
ECCM0_FLATTEN std::uint64_t Cpu::run_predecoded_impl(std::uint64_t limit) {
  // Tight inner loop of the pre-decoded engine: no decode, no budget
  // check, and the retired-instruction counter is carried in a register
  // and flushed once per chunk (also on the exception path, so stats_
  // reflect exactly the instructions that retired before a fault — the
  // same state a step-at-a-time loop leaves behind).
  const PredecodedSlot* const cache = cache_;
  const std::size_t code_halfwords = code_size_;
  std::uint64_t done = 0;
  try {
    while (done < limit && !halted_) {
      const std::uint32_t pc = r_[kPC];
      if (pc == kReturnSentinel) {
        halted_ = true;
        break;
      }
      if (pc % 2 != 0) throw AlignmentFault("Cpu: odd PC", pc);
      const std::size_t idx = pc / 2;
      if (idx >= code_halfwords) {
        throw BusFault("Cpu: PC outside code", pc);
      }
      const PredecodedSlot& s = cache[idx];
      if (!s.valid) [[unlikely]] trap_undecodable(idx);
      r_[kPC] = pc + 2u * s.halfwords;  // default fallthrough
      if constexpr (kTraced) {
        exec_traced(pc, s.ins, s.halfwords);
      } else {
        exec<false>(s.ins, s.halfwords);
        if constexpr (kProt) {
          if (const std::uint32_t w = ram_.take_pending_wait_cycles(); w != 0) {
            account<false>(InstrClass::kMemWait, w);
          }
        }
      }
      ++done;
    }
  } catch (Fault& f) {
    // Flush the retired-count first so the state snapshot matches what a
    // step-at-a-time loop would have left behind at the same fault.
    stats_.instructions += done;
    f.attach_state(arch_state());
    throw;
  } catch (...) {
    stats_.instructions += done;
    throw;
  }
  stats_.instructions += done;
  return done;
}

RunStats Cpu::call(std::uint32_t entry,
                   std::initializer_list<std::uint32_t> args,
                   std::uint64_t max_instructions) {
  unsigned n = 0;
  for (std::uint32_t a : args) {
    if (n > 3) throw std::invalid_argument("Cpu::call: more than 4 args");
    r_[n++] = a;
  }
  r_[kLR] = kReturnSentinel;
  r_[kPC] = entry;
  halted_ = false;
  return run(max_instructions);
}

RunStats Cpu::run(std::uint64_t max_instructions) {
  const RunStats before = stats_;
  // Run in chunks: the instruction-budget check is hoisted out of the
  // per-instruction path and re-established every chunk. Chunks are
  // sized so that exactly max_instructions + 1 instructions can retire
  // before the budget trips — the same point at which a
  // check-every-step loop would have thrown. The threaded engine
  // additionally never enters or chains into a fused block whose
  // retirement count would overrun the chunk, so the trip point is
  // engine-independent.
  constexpr std::uint64_t kBudgetCheckInterval = 16 * 1024;
  while (!halted_) {
    const std::uint64_t executed = stats_.instructions - before.instructions;
    if (executed > max_instructions) {
      BudgetFault f("Cpu::call: instruction budget exceeded", r_[kPC]);
      f.attach_state(arch_state());
      throw f;
    }
    std::uint64_t chunk = max_instructions - executed + 1;
    if (chunk > kBudgetCheckInterval) chunk = kBudgetCheckInterval;
    switch (mode_) {
      case DecodeMode::kPredecode:
        run_predecoded(chunk);
        break;
      case DecodeMode::kThreaded:
        run_threaded(chunk);
        break;
      case DecodeMode::kPerStep:
        for (std::uint64_t i = 0; i < chunk && step(); ++i) {
        }
        break;
    }
  }
  RunStats delta;
  delta.instructions = stats_.instructions - before.instructions;
  delta.cycles = stats_.cycles - before.cycles;
  delta.histogram = stats_.histogram;
  for (int i = 0; i < static_cast<int>(InstrClass::kCount); ++i) {
    delta.histogram.cycles[i] -= before.histogram.cycles[i];
  }
  return delta;
}

template <bool kTraced>
void Cpu::exec(const Instr& I, unsigned halfwords) {
  const std::uint32_t PC4 =
      r_[kPC] - 2 * halfwords + 4;  // instruction address + 4
  std::uint32_t* const r = r_;
  const FlagRefs fl{n_, z_, c_, v_};
  const auto branch_to = [&](std::uint32_t target)
                             __attribute__((always_inline)) {
    if (target == kReturnSentinel) {
      halted_ = true;
      r_[kPC] = kReturnSentinel;
      return;
    }
    r_[kPC] = target & ~1u;
  };
  const auto mem_read = [&](std::uint32_t addr, unsigned bytes)
                            __attribute__((always_inline)) {
    return read_mem<kTraced>(addr, bytes);
  };
  const auto mem_write = [&](std::uint32_t addr, std::uint32_t value,
                             unsigned bytes) __attribute__((always_inline)) {
    write_mem<kTraced>(addr, value, bytes);
  };

  switch (I.op) {
#define ECCM0_OP(name)   \
  case Op::k##name: {    \
    constexpr Op kOp = Op::k##name;
#define ECCM0_OP_END        \
  charge<kTraced>(kOp, I);  \
  break;                    \
  }
#define ECCM0_WRITE_PC(target) branch_to(target)
#include "armvm/ops.inc"
#undef ECCM0_OP
#undef ECCM0_OP_END
#undef ECCM0_WRITE_PC
    case Op::kBCond:
      if (fl.holds(I.cond)) {
        branch_to(PC4 + static_cast<std::uint32_t>(I.imm));
        // Taken: one more cycle than static_costs, charged as one pair.
        account<kTraced>(InstrClass::kBranch, 2);
        break;
      }
      charge<kTraced>(Op::kBCond, I);
      break;
    case Op::kB:
      branch_to(PC4 + static_cast<std::uint32_t>(I.imm));
      charge<kTraced>(Op::kB, I);
      break;
    case Op::kBl:
      r[kLR] = r[kPC] | 1u;  // return address (past both halfwords)
      branch_to(PC4 + static_cast<std::uint32_t>(I.imm));
      charge<kTraced>(Op::kBl, I);
      break;
    case Op::kBx:
      branch_to(r[I.rm]);
      charge<kTraced>(Op::kBx, I);
      break;
    case Op::kBlx: {
      const std::uint32_t target = r[I.rm];
      r[kLR] = r[kPC] | 1u;  // next instruction
      branch_to(target);
      charge<kTraced>(Op::kBlx, I);
      break;
    }
    case Op::kBkpt:
      halted_ = true;
      charge<kTraced>(Op::kBkpt, I);
      break;
  }
}

// The threaded dispatcher (dispatch.cpp) executes unfused slots through
// the same untraced exec; give it an out-of-line instantiation to link
// against.
template void Cpu::exec<false>(const Instr&, unsigned);

}  // namespace eccm0::armvm
