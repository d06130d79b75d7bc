// Basic-block superinstructions for the token-threaded execution engine.
//
// A `ThreadedImage` is the third pure-function-of-the-source artifact a
// `Program` freezes (next to the code image and the predecode cache): a
// basic-block discovery pass walks the predecoded slots once, splits the
// instruction stream at every symbol address and every static branch
// target, and fuses each remaining maximal straight-line run of simple
// (single-halfword, non-control-flow) instructions — plus the branch
// that closes it, if any — into one `SuperBlock`. The block carries
// everything the threaded dispatcher needs to retire the whole run in
// one host-level call: the decoded instructions with their
// per-instruction static cost pairs (for the fault replay path), the
// precomputed accounting delta of the full block — total cycles plus a
// sparse per-class histogram delta — applied in a single step instead
// of per instruction, and the block's successors, resolved once when
// the image is frozen so the dispatcher can chain from one block
// straight into the next.
//
// The fusion rules are conservative so fused execution is bit-identical
// to the per-step oracle (see tests/armvm/threaded_test.cpp):
//   - a block has one entry (its head) and one exit (its last entry);
//     no block spans a label or a static branch target;
//   - its body is valid, 1-halfword, non-control-flow slots (no
//     B/BCond/BL/BX/BLX/BKPT, POP with PC, hi-reg ops writing PC);
//   - it may end in exactly one closing branch: B, BCond, BL (both
//     halfwords) or BX with rm != PC, whose static target (B/BCond/BL)
//     lies inside the code image. Its cycles are batched at the
//     branch's static cost — BCond at its not-taken cost; a taken BCond
//     adds its one extra cycle at run time;
//   - no instruction reads the raw PC register outside the
//     architectural pc+4 forms the block can precompute (CMP involving
//     PC is excluded; ADR/LDR-literal/ADD-hi/MOV-hi with rm=PC fuse,
//     because their pc+4 is a per-slot constant);
//   - a run closed by a branch fuses at any length; an unclosed run
//     shorter than `kMinFuseLength` stays per-instruction (the dispatch
//     overhead saved would not cover the block-entry checks).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "armvm/codec.h"
#include "armvm/isa.h"
#include "costmodel/energy.h"

namespace eccm0::armvm {

/// Minimum number of instructions a straight-line run must have to be
/// worth fusing into a SuperBlock when no branch closes it.
inline constexpr std::uint32_t kMinFuseLength = 3;

/// Token bytes of a block's closing entry. The op byte of every fused
/// instruction indexes the computed-goto dispatcher's token table; the
/// last entry of a block's code array is its exit:
///   - kEndOfBlockToken: no closing branch — an entry appended after the
///     last real instruction, the block falls through to `end_pc`;
///   - Op::kB / Op::kBl / Op::kBx: the closing branch keeps its Op byte;
///   - kBCondToken + cond: a closing BCond, one token per condition so
///     each condition is its own handler.
/// kEndOfBlockToken is one past the last Op value; the BCond tokens
/// follow it. All are representable in Op's std::uint8_t underlying
/// type but never a real Op.
inline constexpr std::uint8_t kEndOfBlockToken =
    static_cast<std::uint8_t>(kNumOps);
inline constexpr std::uint8_t kBCondToken =
    static_cast<std::uint8_t>(kNumOps + 1);
/// Size of the dispatcher's token table.
inline constexpr std::size_t kNumTokens = kNumOps + 1 + kNumConds;

/// Token of a closing BCond on condition `c`.
constexpr std::uint8_t bcond_token(Cond c) {
  return static_cast<std::uint8_t>(kBCondToken + static_cast<std::uint8_t>(c));
}

/// One static cost pair an instruction contributes to the histogram
/// (LDM/STM/PUSH/POP contribute two: transfer + overhead).
struct InstrCost {
  costmodel::InstrClass cls{};
  std::uint8_t cycles = 0;
};

/// One fused instruction: the decoded form plus the per-slot constants
/// the handlers need (pc+4 for ADR/LDR-literal/hi-reg reads, and BL's
/// return address) and its static cost pairs, kept so a fault interior
/// to the block can replay the accounting of the instructions that
/// retired before it.
struct FusedInstr {
  Instr ins;
  std::uint32_t pc4 = 0;  ///< instruction address + 4
  std::uint8_t num_costs = 0;
  InstrCost costs[2];
};

/// A maximal fused run.
struct SuperBlock {
  std::uint32_t head_idx = 0;  ///< halfword index of the first instruction
  /// Instructions the block retires, its closing branch included.
  std::uint32_t count = 0;
  std::uint32_t end_pc = 0;    ///< byte PC after the last instruction
  /// Static target of a closing B/BCond/BL (0 for any other block).
  std::uint32_t taken_pc = 0;
  /// Successor blocks, resolved when the image is frozen: block_at of
  /// end_pc (the fall-through, also a BL's return site) and of taken_pc
  /// (-1 where that halfword is no block head or there is no static
  /// target). A closing BX looks its successor up at run time.
  std::int32_t next_fall = -1;
  std::int32_t next_taken = -1;
  /// Total cycle cost of the whole block, a closing BCond at its
  /// not-taken cost.
  std::uint64_t cycles = 0;
  /// Sparse histogram delta of the whole block (class, cycles) — applied
  /// in one step on block completion.
  std::vector<std::pair<costmodel::InstrClass, std::uint64_t>> hist;
  /// The fused instructions; the last entry is the exit token. Without
  /// a closing branch that is an extra kEndOfBlockToken entry
  /// (code.size() == count + 1); with one it is the branch itself
  /// (code.size() == count).
  std::vector<FusedInstr> code;
};

/// The frozen fusion artifact: `block_at[idx]` is the index into
/// `blocks` when halfword `idx` is a block head, -1 otherwise (interior
/// slots are -1 too: entering a block anywhere but its head — e.g. after
/// a snapshot restore — executes per-instruction until the next head).
struct ThreadedImage {
  std::vector<std::int32_t> block_at;
  std::vector<SuperBlock> blocks;
  /// Static fusion census for the fusion report.
  std::uint64_t fused_slots = 0;  ///< instructions inside fused blocks
  std::uint64_t valid_slots = 0;  ///< all valid instruction slots
};

/// True when this (decoded, `halfwords`-sized) instruction may be part
/// of a fused block's straight-line body.
bool fusable(const Instr& ins, unsigned halfwords);

/// True when this instruction may close a fused block: B, BCond, BL or
/// BX with rm != PC. Whether its static target lies inside the image is
/// checked by the discovery pass.
bool closes_block(const Instr& ins);

/// The M0+ cost model — the one table both interpreters charge: the
/// (class, cycles) pairs an instruction of Op `op` with operands `ins`
/// retires with. Loads and stores take 2 cycles, ALU ops 1,
/// LDM/STM/PUSH/POP 1+N as a transfer pair plus an overhead pair
/// (POP {..., pc} 3 overhead cycles), B/BX/BLX and hi-register writes
/// to PC 2, BL 3, and BCond its not-taken 1: a taken BCond's second
/// cycle is the one cost decided at run time. Writes 1 or 2 pairs to
/// `out` and returns the count. `op` is separate from `ins` so that
/// Cpu::exec, which passes each case's constant Op, gets the table
/// folded to immediates; the fusion pass batches it per block.
[[gnu::always_inline]] constexpr unsigned static_costs(Op op,
                                                       const Instr& ins,
                                                       InstrCost out[2]) {
  using costmodel::InstrClass;
  InstrClass cls = InstrClass::kOther;
  unsigned cycles = 1;
  unsigned list_bits = 0;  // LDM/STM/PUSH/POP: register-list width
  switch (op) {
    case Op::kLslImm:  // LSLS #0 is the MOVS encoding
      cls = ins.imm == 0 ? InstrClass::kMov : InstrClass::kLsl;
      break;
    case Op::kLslReg:
      cls = InstrClass::kLsl;
      break;
    case Op::kLsrImm:
    case Op::kAsrImm:
    case Op::kLsrReg:
    case Op::kAsrReg:
    case Op::kRorReg:
      cls = InstrClass::kLsr;
      break;
    case Op::kAddReg:
    case Op::kSubReg:
    case Op::kAddImm3:
    case Op::kSubImm3:
    case Op::kCmpImm:
    case Op::kAddImm8:
    case Op::kSubImm8:
    case Op::kAdc:
    case Op::kSbc:
    case Op::kRsb:
    case Op::kCmpReg:
    case Op::kCmn:
    case Op::kCmpHi:
    case Op::kAddSpImm7:
    case Op::kSubSpImm7:
    case Op::kAddRdSp:
    case Op::kAdr:
      cls = InstrClass::kAdd;
      break;
    case Op::kAnd:
    case Op::kEor:
    case Op::kTst:
    case Op::kOrr:
    case Op::kBic:
    case Op::kMvn:
      cls = InstrClass::kEor;
      break;
    case Op::kMul:  // single-cycle multiplier option
      cls = InstrClass::kMul;
      break;
    case Op::kMovImm:
    case Op::kSxth:
    case Op::kSxtb:
    case Op::kUxth:
    case Op::kUxtb:
    case Op::kRev:
    case Op::kRev16:
    case Op::kRevsh:
      cls = InstrClass::kMov;
      break;
    case Op::kAddHi:  // a write to PC is a branch
      cls = ins.rd == kPC ? InstrClass::kBranch : InstrClass::kAdd;
      cycles = ins.rd == kPC ? 2 : 1;
      break;
    case Op::kMovHi:
      cls = ins.rd == kPC ? InstrClass::kBranch : InstrClass::kMov;
      cycles = ins.rd == kPC ? 2 : 1;
      break;
    case Op::kLdrLit:
    case Op::kLdrImm:
    case Op::kLdrbImm:
    case Op::kLdrhImm:
    case Op::kLdrReg:
    case Op::kLdrbReg:
    case Op::kLdrhReg:
    case Op::kLdrsbReg:
    case Op::kLdrshReg:
    case Op::kLdrSp:
      cls = InstrClass::kLdr;
      cycles = 2;
      break;
    case Op::kStrImm:
    case Op::kStrbImm:
    case Op::kStrhImm:
    case Op::kStrReg:
    case Op::kStrbReg:
    case Op::kStrhReg:
    case Op::kStrSp:
      cls = InstrClass::kStr;
      cycles = 2;
      break;
    case Op::kPush:  // bit 8 = LR
      cls = InstrClass::kStr;
      list_bits = 9;
      break;
    case Op::kPop:  // bit 8 = PC
      cls = InstrClass::kLdr;
      list_bits = 9;
      break;
    case Op::kStm:
      cls = InstrClass::kStr;
      list_bits = 8;
      break;
    case Op::kLdm:
      cls = InstrClass::kLdr;
      list_bits = 8;
      break;
    case Op::kBCond:
      cls = InstrClass::kBranch;
      break;
    case Op::kB:
    case Op::kBx:
    case Op::kBlx:
      cls = InstrClass::kBranch;
      cycles = 2;
      break;
    case Op::kBl:
      cls = InstrClass::kBranch;
      cycles = 3;
      break;
    case Op::kNop:
    case Op::kBkpt:
      break;
  }
  if (list_bits == 0) {
    out[0] = {cls, static_cast<std::uint8_t>(cycles)};
    return 1;
  }
  unsigned n = 0;
  for (unsigned b = 0; b < list_bits; ++b) n += (ins.reg_list >> b) & 1;
  const bool returns = op == Op::kPop && (ins.reg_list & 0x100) != 0;
  out[0] = {cls, static_cast<std::uint8_t>(n)};
  out[1] = {InstrClass::kOther, static_cast<std::uint8_t>(returns ? 3 : 1)};
  return 2;
}

/// Run the discovery pass over a predecoded image. `symbols` contributes
/// extra split points: every label is a potential branch target (loop
/// heads are labels), so no block spans one.
ThreadedImage build_threaded_image(
    const std::vector<std::uint16_t>& code,
    const std::vector<PredecodedSlot>& cache,
    const std::map<std::string, std::uint32_t>& symbols);

/// True when halfword `idx` lies strictly inside a fused block (not at
/// its head; a closing BL's second halfword counts). Test helper for
/// the mid-block snapshot/fault coverage.
bool is_block_interior(const ThreadedImage& image, std::size_t idx);

}  // namespace eccm0::armvm
