// The token-threaded execution engine (DecodeMode::kThreaded).
//
// Two layers:
//   Cpu::run_threaded   — the chunk runner. Same PC-validation contract
//     as the predecoded loop; additionally consults the Program's
//     ThreadedImage and, when the PC sits on a fused-block head and the
//     whole block fits in the remaining instruction budget, hands over
//     to the block dispatcher. Everything else (interior entry after a
//     snapshot restore, budget boundary, undecodable slot, control flow
//     no block closes with) executes per-instruction from the predecode
//     cache; traced runs and protected memory delegate wholesale to the
//     predecoded loop, so the rich TraceEvent stream and the wait-state
//     accounting are bit-identical by construction.
//   Cpu::run_fused_block — the superblock dispatcher. Executes fused
//     instructions against local flag copies with NO per-instruction
//     accounting. Each block's exit entry (fall-through, or its closing
//     B/BCond/BL/BX) sets PC and names the successor block; one shared
//     commit site applies the block's precomputed cycle/histogram delta
//     and, when the successor is a block head that fits the remaining
//     budget, jumps straight to its first token — so a loop or a call
//     chain runs block to block without returning to the chunk runner.
//     On a Fault it replays the static cost pairs of the instructions
//     that retired before the faulting one so the architectural state
//     (PC, flags, stats) is exactly what the per-step oracle leaves.
//
// Dispatch form: computed goto (&&label, the classic token-threading
// idiom; the tree builds only with GCC or Clang). The straight-line
// handlers are the instruction bodies of ops.inc, the same ones
// Cpu::exec compiles, so each instruction's semantics are written once.
// GCC compiles this file with -fno-crossjumping (CMakeLists.txt): left
// to itself it merges the handlers' identical `goto *token_targets[..]`
// tails into a few shared indirect jumps, which costs the straight-line
// kernels their per-handler branch prediction.
#include "armvm/dispatch.h"

#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <string>

#include "armvm/superinst.h"

namespace eccm0::armvm {

Cpu::DecodeMode decode_mode_from_name(std::string_view name) {
  if (name == "perstep") return Cpu::DecodeMode::kPerStep;
  if (name == "threaded") return Cpu::DecodeMode::kThreaded;
  throw std::invalid_argument("unknown engine '" + std::string(name) +
                              "' (expected " + kEngineFlagValues + ")");
}

const char* decode_mode_name(Cpu::DecodeMode mode) {
  switch (mode) {
    case Cpu::DecodeMode::kPerStep: return "perstep";
    case Cpu::DecodeMode::kPredecode: return "predecode";
    case Cpu::DecodeMode::kThreaded: return "threaded";
  }
  return "?";
}

// Every Op in isa.h declaration order — the token table of the
// computed-goto dispatcher is built from this list and isa.h's
// ECCM0_FOR_EACH_COND, and the static_asserts below pin both against
// their enums so a reordered or added Op or Cond fails the build here
// instead of mis-dispatching.
#define ECCM0_FOR_EACH_OP(X)                                                  \
  X(LslImm) X(LsrImm) X(AsrImm)                                               \
  X(LslReg) X(LsrReg) X(AsrReg) X(RorReg)                                     \
  X(AddReg) X(SubReg) X(AddImm3) X(SubImm3)                                   \
  X(MovImm) X(CmpImm) X(AddImm8) X(SubImm8)                                   \
  X(And) X(Eor) X(Adc) X(Sbc) X(Tst) X(Rsb) X(CmpReg) X(Cmn) X(Orr) X(Mul)   \
  X(Bic) X(Mvn)                                                               \
  X(AddHi) X(CmpHi) X(MovHi) X(Bx) X(Blx)                                     \
  X(LdrLit) X(LdrImm) X(StrImm) X(LdrbImm) X(StrbImm) X(LdrhImm) X(StrhImm)   \
  X(LdrReg) X(StrReg) X(LdrbReg) X(StrbReg) X(LdrhReg) X(StrhReg)             \
  X(LdrsbReg) X(LdrshReg) X(LdrSp) X(StrSp) X(AddSpImm7) X(SubSpImm7)         \
  X(AddRdSp) X(Adr) X(Push) X(Pop) X(Ldm) X(Stm)                              \
  X(BCond) X(B) X(Bl)                                                         \
  X(Sxth) X(Sxtb) X(Uxth) X(Uxtb) X(Rev) X(Rev16) X(Revsh) X(Nop) X(Bkpt)

namespace {

#define ECCM0_OP_ENTRY(name) Op::k##name,
constexpr Op kOpOrder[] = {ECCM0_FOR_EACH_OP(ECCM0_OP_ENTRY)};
#undef ECCM0_OP_ENTRY
#define ECCM0_COND_ENTRY(name, taken) Cond::k##name,
constexpr Cond kCondOrder[] = {ECCM0_FOR_EACH_COND(ECCM0_COND_ENTRY)};
#undef ECCM0_COND_ENTRY

constexpr bool op_order_consistent() {
  for (std::size_t i = 0; i < std::size(kOpOrder); ++i) {
    if (static_cast<std::size_t>(kOpOrder[i]) != i) return false;
  }
  return true;
}
constexpr bool cond_order_consistent() {
  for (std::size_t i = 0; i < std::size(kCondOrder); ++i) {
    if (static_cast<std::size_t>(kCondOrder[i]) != i) return false;
  }
  return true;
}
static_assert(std::size(kOpOrder) == kNumOps,
              "ECCM0_FOR_EACH_OP out of sync with the Op enum");
static_assert(op_order_consistent(),
              "ECCM0_FOR_EACH_OP order out of sync with the Op enum");
static_assert(std::size(kCondOrder) == kNumConds,
              "ECCM0_FOR_EACH_COND out of sync with the Cond enum");
static_assert(cond_order_consistent(),
              "ECCM0_FOR_EACH_COND order out of sync with the Cond enum");
static_assert(kNumTokens <= 256, "tokens must fit the Op byte");

[[noreturn]] void bad_fused_token() {
  throw std::logic_error("Cpu: invalid token inside a fused block");
}

}  // namespace

std::uint64_t Cpu::run_fused_block(const SuperBlock& first,
                                   std::uint64_t room) {
  const ThreadedImage& image = prog_->threaded();
  const SuperBlock* const blocks = image.blocks.data();
  const std::int32_t* const block_at = image.block_at.data();
  const std::size_t code_halfwords = code_size_;
  std::uint32_t* const r = r_;
  // The RAM view is hoisted into locals for the whole chain. Inside
  // Memory's own fast path every byte store forces the compiler to
  // reload the vector's data pointer and size (a std::uint8_t store may
  // legally alias anything, including the vector's bookkeeping); these
  // locals never have their address taken, so they stay in registers
  // across stores. Anything off the fast path — code/literal-pool
  // reads, out-of-range or misaligned accesses — falls back to the
  // canonical Cpu accessors, which raise the same typed Faults as the
  // per-step engine.
  std::uint8_t* const ram = ram_.bytes_.data();
  const std::size_t ram_size = ram_.bytes_.size();
  const auto mem_read = [&](std::uint32_t addr,
                            unsigned nbytes) -> std::uint32_t {
    const std::uint32_t off = addr - kRamBase;
    if (addr >= kRamBase && (nbytes == 1 || (addr & (nbytes - 1)) == 0) &&
        off + nbytes <= ram_size) [[likely]] {
      switch (nbytes) {
        case 1: return ram[off];
        case 2: return Memory::le16(ram + off);
        default: return Memory::le32(ram + off);
      }
    }
    return read_mem<false>(addr, nbytes);
  };
  const auto mem_write = [&](std::uint32_t addr, std::uint32_t v,
                             unsigned nbytes) {
    const std::uint32_t off = addr - kRamBase;
    if (addr >= kRamBase && (nbytes == 1 || (addr & (nbytes - 1)) == 0) &&
        off + nbytes <= ram_size) [[likely]] {
      switch (nbytes) {
        case 1: ram[off] = static_cast<std::uint8_t>(v); return;
        case 2: Memory::put_le16(ram + off, static_cast<std::uint16_t>(v));
                return;
        default: Memory::put_le32(ram + off, v); return;
      }
    }
    write_mem<false>(addr, v, nbytes);
  };
  // Flags live in locals for the whole chain; written back on every
  // exit path (handlers never touch n_/z_/c_/v_ directly).
  bool ln = n_, lz = z_, lc = c_, lv = v_;
  const FlagRefs fl{ln, lz, lc, lv};
  // The running block and the cursor into its code are the
  // dispatcher's only loop state: each handler bumps the cursor and
  // dispatches the next token, and the block's exit entry jumps to an
  // exit site, so there is no count compare after every instruction.
  // Declared outside the try so the fault path can recover the
  // retired-instruction index from them.
  const SuperBlock* blk = &first;
  const FusedInstr* fp = first.code.data();
  std::int32_t next = -1;      // successor the exit entry names
  std::uint64_t retired = 0;   // instructions of committed blocks
  std::uint64_t entered = 0;   // committed blocks
  try {
    // Token-threaded dispatch: the op byte of the next fused entry
    // indexes straight into the label table, so there is no central
    // dispatch branch for the host predictor to miss on. Past the real
    // Ops: the no-branch block end, then one exit per BCond condition.
    static const void* const token_targets[] = {
#define ECCM0_TOKEN_ENTRY(name) &&handler_##name,
        ECCM0_FOR_EACH_OP(ECCM0_TOKEN_ENTRY)
#undef ECCM0_TOKEN_ENTRY
        &&handler_End,
#define ECCM0_COND_TOKEN_ENTRY(name, taken) &&handler_BCond##name,
        ECCM0_FOR_EACH_COND(ECCM0_COND_TOKEN_ENTRY)
#undef ECCM0_COND_TOKEN_ENTRY
    };
    static_assert(std::size(token_targets) == kNumTokens);
#define ECCM0_DISPATCH() \
  goto* token_targets[static_cast<std::uint8_t>(fp->ins.op)]
    ECCM0_DISPATCH();

    // The straight-line handlers: the ops.inc bodies, each followed by
    // the dispatch of the next token. fusable() keeps every form that
    // writes PC out of a block.
#define ECCM0_OP(name)                         \
  handler_##name : {                           \
    [[maybe_unused]] const Instr& I = fp->ins; \
    [[maybe_unused]] const std::uint32_t PC4 = fp->pc4;
#define ECCM0_OP_END \
  }                  \
  ++fp;              \
  ECCM0_DISPATCH();
#define ECCM0_WRITE_PC(target) __builtin_unreachable()
#include "armvm/ops.inc"
#undef ECCM0_OP
#undef ECCM0_OP_END
#undef ECCM0_WRITE_PC

    // Block exits, the last entry of every block. Each sets PC, LR and
    // the return-sentinel halt exactly as Cpu::exec does; the block's
    // batched cycles already hold each branch's static cost (a BCond's
    // not-taken one).
  handler_End:  // no closing branch
    goto falls_through;
  handler_B:
    goto branch_taken;
  handler_Bl:
    r[kLR] = fp->pc4 | 1u;  // return address (past both halfwords)
    goto branch_taken;
  handler_Bx: {  // rm = PC never closes a block
    const std::uint32_t target = r[fp->ins.rm];
    if (target == kReturnSentinel) {
      halted_ = true;
      r[kPC] = kReturnSentinel;
      next = -1;
      goto commit;
    }
    r[kPC] = target & ~1u;
    next = r[kPC] / 2 < code_halfwords ? block_at[r[kPC] / 2] : -1;
    goto commit;
  }
#define ECCM0_BCOND_EXIT(name, taken)              \
  handler_BCond##name:                             \
    if (fl.holds(Cond::k##name)) goto bcond_taken; \
    goto falls_through;
    ECCM0_FOR_EACH_COND(ECCM0_BCOND_EXIT)
#undef ECCM0_BCOND_EXIT
  // A closing BCond always carries its condition's token, and BLX/BKPT
  // never enter a block; their table entries land here.
  handler_BCond:
  handler_Blx:
  handler_Bkpt:
    bad_fused_token();
  // Exit sites shared by every block exit.
  falls_through:
    r[kPC] = blk->end_pc;
    next = blk->next_fall;
    goto commit;
  bcond_taken:
    stats_.cycles += 1;  // a taken BCond's second cycle
    stats_.histogram.add(costmodel::InstrClass::kBranch, 1);
  branch_taken:
    r[kPC] = blk->taken_pc;
    next = blk->next_taken;
  commit:
    stats_.cycles += blk->cycles;
    for (const auto& [cls, cyc] : blk->hist) stats_.histogram.add(cls, cyc);
    retired += blk->count;
    ++entered;
    // Chain: run the successor in place when it is a block head whose
    // whole retirement fits in what is left of the budget.
    if (next >= 0 && blocks[next].count <= room - retired) {
      blk = &blocks[next];
      fp = blk->code.data();
      ECCM0_DISPATCH();
    }
#undef ECCM0_DISPATCH
  } catch (...) {
    // Fault at entry j of the running block: replay the static costs of
    // the instructions that retired before it (the faulting one
    // contributes nothing — exec() charges after the body; an exit
    // entry never faults), sync the flags, and leave the PC at
    // the faulting instruction's fallthrough, exactly as the per-step
    // loop does before exec().
    const FusedInstr* const code = blk->code.data();
    const auto j = static_cast<std::uint32_t>(fp - code);
    n_ = ln;
    z_ = lz;
    c_ = lc;
    v_ = lv;
    for (std::uint32_t k = 0; k < j; ++k) {
      for (unsigned c = 0; c < code[k].num_costs; ++c) {
        stats_.histogram.add(code[k].costs[c].cls, code[k].costs[c].cycles);
        stats_.cycles += code[k].costs[c].cycles;
      }
    }
    stats_.instructions += retired + j;
    fused_retired_ += retired + j;
    fused_blocks_entered_ += entered;
    r_[kPC] = code[j].pc4 - 2;
    throw;
  }
  n_ = ln;
  z_ = lz;
  c_ = lc;
  v_ = lv;
  fused_retired_ += retired;
  fused_blocks_entered_ += entered;
  return retired;
}

std::uint64_t Cpu::run_threaded(std::uint64_t limit) {
  if (ram_.is_protected()) {
    // Protected-memory fallback: fused blocks hoist the raw RAM bytes
    // into locals and pre-batch their cycle totals, so they can neither
    // run the codec nor account wait-states. The protected predecoded
    // loop is bit-identical by construction; raw memory keeps the full
    // threaded speed.
    return run_predecoded(limit);
  }
  if (trace_ != nullptr) {
    // Traced fallback: the rich per-instruction event stream cannot be
    // batched, and the traced predecoded loop already produces it
    // bit-identically.
    return run_predecoded(limit);
  }
  const PredecodedSlot* const cache = cache_;
  const std::size_t code_halfwords = code_size_;
  const ThreadedImage& image = prog_->threaded();
  const std::int32_t* const block_at = image.block_at.data();
  const SuperBlock* const blocks = image.blocks.data();
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
      const std::int32_t blk = block_at[idx];
      if (blk >= 0) [[likely]] {
        const SuperBlock& sb = blocks[blk];
        // Enter the fused block only when the whole block fits in this
        // chunk's budget — otherwise retire per-instruction so the
        // budget trips at the engine-independent point. The dispatcher
        // holds every block it chains into to the same rule.
        if (done + sb.count <= limit) [[likely]] {
          done += run_fused_block(sb, limit - done);
          continue;
        }
      }
      const PredecodedSlot& s = cache[idx];
      if (!s.valid) [[unlikely]] trap_undecodable(idx);
      r_[kPC] = pc + 2u * s.halfwords;  // default fallthrough
      exec<false>(s.ins, s.halfwords);
      ++done;
    }
  } catch (Fault& f) {
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

}  // namespace eccm0::armvm
