// ARMv6-M Thumb-1 subset: decoded instruction representation.
//
// The VM models the Cortex-M0+ the paper measures: 16-bit Thumb
// instructions (plus the 32-bit BL pair), thirteen general registers with
// the lo (r0-r7) / hi (r8-r12) split that constrains how many field words
// an implementation can keep register-resident — the architectural fact
// the paper's "fixed registers" method is built around.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace eccm0::armvm {

inline constexpr unsigned kNumRegs = 16;
inline constexpr unsigned kSP = 13;
inline constexpr unsigned kLR = 14;
inline constexpr unsigned kPC = 15;

/// Semantic operation of a decoded instruction.
enum class Op : std::uint8_t {
  // Shifts (immediate and register forms share the Op; form is implied by
  // the operand kinds recorded in Instr).
  kLslImm, kLsrImm, kAsrImm,
  kLslReg, kLsrReg, kAsrReg, kRorReg,
  // Add/sub three-operand
  kAddReg, kSubReg, kAddImm3, kSubImm3,
  // Immediate 8-bit forms
  kMovImm, kCmpImm, kAddImm8, kSubImm8,
  // Data processing (register)
  kAnd, kEor, kAdc, kSbc, kTst, kRsb, kCmpReg, kCmn, kOrr, kMul, kBic, kMvn,
  // Hi-register operations (no flags)
  kAddHi, kCmpHi, kMovHi, kBx, kBlx,
  // Memory
  kLdrLit,                     // LDR Rt, [PC, #imm]
  kLdrImm, kStrImm,            // word, imm5*4 offset
  kLdrbImm, kStrbImm,          // byte, imm5 offset
  kLdrhImm, kStrhImm,          // halfword, imm5*2 offset
  kLdrReg, kStrReg, kLdrbReg, kStrbReg, kLdrhReg, kStrhReg,
  kLdrsbReg, kLdrshReg,  // sign-extending loads (register offset only)
  kLdrSp, kStrSp,              // SP-relative word
  kAddSpImm7, kSubSpImm7,      // adjust SP
  kAddRdSp, kAdr,              // Rd = SP + imm8*4 / Rd = PC-aligned + imm8*4
  kPush, kPop, kLdm, kStm,
  // Control flow
  kBCond, kB, kBl,
  // Extend / byte-reverse (ARMv6-M data ops)
  kSxth, kSxtb, kUxth, kUxtb, kRev, kRev16, kRevsh,
  kNop, kBkpt,
};

/// Number of distinct Op values (kBkpt is last). Sizes per-opcode tables
/// such as the decode-cache opcode-mix statistics in bench_vm_throughput.
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kBkpt) + 1;

/// Condition codes for kBCond.
enum class Cond : std::uint8_t {
  kEq = 0, kNe, kCs, kCc, kMi, kPl, kVs, kVc, kHi, kLs, kGe, kLt, kGt, kLe,
};

/// Number of distinct Cond values (kLe is last).
inline constexpr std::size_t kNumConds =
    static_cast<std::size_t>(Cond::kLe) + 1;

/// Every Cond in declaration order, each with the predicate it tests
/// over flags named n, z, c, v: the one condition table of both
/// interpreters (FlagRefs::holds in cpu.h, and the fused dispatcher's
/// per-condition BCond exits, whose token order dispatch.cpp pins
/// against the enum).
#define ECCM0_FOR_EACH_COND(X)                                    \
  X(Eq, z) X(Ne, !z) X(Cs, c) X(Cc, !c) X(Mi, n) X(Pl, !n)        \
  X(Vs, v) X(Vc, !v) X(Hi, c && !z) X(Ls, !c || z)                \
  X(Ge, n == v) X(Lt, n != v) X(Gt, !z && n == v) X(Le, z || n != v)

/// A decoded instruction. Fields are used according to `op`:
///   rd/rn/rm — registers; imm — immediate (pre-scaled to bytes where the
///   encoding scales); reg_list — LDM/STM/PUSH/POP bitmask (bit 8 = LR for
///   PUSH, PC for POP); cond — condition for kBCond; imm is the *signed*
///   branch offset in bytes for branches (relative to the instruction
///   address + 4).
struct Instr {
  Op op = Op::kNop;
  std::uint8_t rd = 0;
  std::uint8_t rn = 0;
  std::uint8_t rm = 0;
  std::int32_t imm = 0;
  std::uint16_t reg_list = 0;
  Cond cond = Cond::kEq;

  friend bool operator==(const Instr&, const Instr&) = default;
};

const char* op_name(Op op);
const char* cond_name(Cond c);
/// "r0".."r12", "sp", "lr", "pc".
std::string reg_name(unsigned r);

}  // namespace eccm0::armvm
