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

/// Static cost pairs of a fusable or closing instruction, exactly
/// mirroring the account() calls Cpu::exec makes for it (BCond at its
/// not-taken cost). Returns the pair count (1 or 2). Precondition:
/// fusable(ins, 1) or closes_block(ins).
unsigned static_costs(const Instr& ins, InstrCost out[2]);

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
