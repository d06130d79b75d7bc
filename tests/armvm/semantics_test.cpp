// Property-style differential tests of the interpreter's arithmetic and
// flag semantics: for randomly generated operand pairs, the VM's results
// and NZCV flags must match a host-side reference implementation of the
// ARMv6-M pseudocode. Every case runs on each engine: per-step and
// predecode retire each instruction through Cpu::exec, threaded inside
// a fused block, so both compilations of armvm/ops.inc are checked.
#include <gtest/gtest.h>

#include <string>

#include "armvm/asm.h"
#include "armvm/cpu.h"
#include "armvm/dispatch.h"
#include "common/rng.h"

namespace eccm0::armvm {
namespace {

struct Flags {
  bool n, z, c, v;
  friend bool operator==(const Flags&, const Flags&) = default;
};

struct RefResult {
  std::uint32_t value;
  Flags f;
};

RefResult ref_add_with_carry(std::uint32_t a, std::uint32_t b, bool cin) {
  const std::uint64_t wide = std::uint64_t{a} + b + (cin ? 1 : 0);
  const auto r = static_cast<std::uint32_t>(wide);
  Flags f{};
  f.n = (r >> 31) != 0;
  f.z = r == 0;
  f.c = (wide >> 32) != 0;
  f.v = (~(a ^ b) & (a ^ r) & 0x80000000u) != 0;
  return {r, f};
}

/// ARMv6-M Shift_C by register for LSL/LSR/ASR/ROR: only the bottom
/// byte of the amount counts, and amount 0 leaves the value and C as
/// they were. N and Z follow the result; V is untouched.
RefResult ref_shift_by_register(const std::string& op, std::uint32_t v,
                                std::uint32_t amount, bool cin) {
  const unsigned n = amount & 0xFFu;
  std::uint32_t r = v;
  bool c = cin;
  if (n != 0) {
    if (op == "lsls") {
      r = n < 32 ? v << n : 0;
      c = n <= 32 && ((v >> (32 - n)) & 1u) != 0;
    } else if (op == "lsrs") {
      r = n < 32 ? v >> n : 0;
      c = n <= 32 && ((v >> (n - 1)) & 1u) != 0;
    } else if (op == "asrs") {
      const auto sv = static_cast<std::int32_t>(v);
      r = static_cast<std::uint32_t>(n < 32 ? sv >> n : sv >> 31);
      c = ((n < 32 ? v >> (n - 1) : v >> 31) & 1u) != 0;
    } else {  // rors: amounts that are multiples of 32 keep the value
      const unsigned m = n % 32;
      r = m == 0 ? v : (v >> m) | (v << (32 - m));
      c = (r >> 31) != 0;
    }
  }
  return {r, {(r >> 31) != 0, r == 0, c, false}};
}

class Harness {
 public:
  Harness(const std::string& body, Cpu::DecodeMode mode)
      : prog_(assemble("fn:\n" + body + "    bx lr\n")),
        mem_(1 << 12),
        cpu_(prog_, mem_, mode) {}

  /// Run the body with r0, r1 and APSR = {N, Z, V clear, C = carry_in}.
  RefResult run(std::uint32_t r0, std::uint32_t r1, bool carry_in = false) {
    ArchState s = cpu_.arch_state();
    s.n = s.z = s.v = false;
    s.c = carry_in;
    cpu_.set_arch_state(s);
    cpu_.set_reg(0, r0);
    cpu_.set_reg(1, r1);
    (void)cpu_.call(prog_->entry("fn"), {});
    return {cpu_.reg(0),
            {cpu_.flag_n(), cpu_.flag_z(), cpu_.flag_c(), cpu_.flag_v()}};
  }

 private:
  ProgramRef prog_;
  Memory mem_;
  Cpu cpu_;
};

class Semantics : public ::testing::TestWithParam<Cpu::DecodeMode> {};

INSTANTIATE_TEST_SUITE_P(
    Engines, Semantics,
    ::testing::Values(Cpu::DecodeMode::kPerStep, Cpu::DecodeMode::kPredecode,
                      Cpu::DecodeMode::kThreaded),
    [](const ::testing::TestParamInfo<Cpu::DecodeMode>& info) {
      return std::string(decode_mode_name(info.param));
    });

TEST_P(Semantics, AddsMatchesReference) {
  Harness h("    adds r0, r0, r1\n", GetParam());
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = static_cast<std::uint32_t>(rng.next_u64());
    const RefResult want = ref_add_with_carry(a, b, false);
    const RefResult got = h.run(a, b);
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.f, want.f) << a << "+" << b;
  }
}

TEST_P(Semantics, SubsMatchesReference) {
  Harness h("    subs r0, r0, r1\n", GetParam());
  Rng rng(2);
  for (int i = 0; i < 300; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = static_cast<std::uint32_t>(rng.next_u64());
    const RefResult want = ref_add_with_carry(a, ~b, true);
    const RefResult got = h.run(a, b);
    EXPECT_EQ(got.value, want.value);
    EXPECT_EQ(got.f, want.f);
  }
}

TEST_P(Semantics, AdcsChainMatches64BitAddition) {
  // (r0:r1) treated as 64-bit halves added to themselves via adds/adcs.
  Harness h("    adds r0, r0, r0\n    adcs r1, r1\n", GetParam());
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t x = rng.next_u64();
    const auto lo = static_cast<std::uint32_t>(x);
    const auto hi = static_cast<std::uint32_t>(x >> 32);
    Harness h2("    adds r0, r0, r0\n    adcs r1, r1\n", GetParam());
    h2.run(lo, hi);
    // reconstruct from registers via a second harness run returning r1.
    Harness h3("    adds r0, r0, r0\n    adcs r1, r1\n    movs r0, r1\n",
               GetParam());
    const auto hi_got = h3.run(lo, hi).value;
    const auto lo_got = h2.run(lo, hi).value;
    const std::uint64_t got =
        (std::uint64_t{hi_got} << 32) | lo_got;
    EXPECT_EQ(got, x + x);
  }
}

TEST_P(Semantics, ShiftImmediatesMatchReference) {
  Rng rng(4);
  for (unsigned sh : {1u, 7u, 16u, 31u}) {
    Harness lsl("    lsls r0, r0, #" + std::to_string(sh) + "\n", GetParam());
    Harness lsr("    lsrs r0, r0, #" + std::to_string(sh) + "\n", GetParam());
    Harness asr("    asrs r0, r0, #" + std::to_string(sh) + "\n", GetParam());
    for (int i = 0; i < 50; ++i) {
      const auto v = static_cast<std::uint32_t>(rng.next_u64());
      auto got = lsl.run(v, 0);
      EXPECT_EQ(got.value, v << sh);
      EXPECT_EQ(got.f.c, ((v >> (32 - sh)) & 1) != 0);
      got = lsr.run(v, 0);
      EXPECT_EQ(got.value, v >> sh);
      EXPECT_EQ(got.f.c, ((v >> (sh - 1)) & 1) != 0);
      got = asr.run(v, 0);
      EXPECT_EQ(got.value, static_cast<std::uint32_t>(
                               static_cast<std::int32_t>(v) >> sh));
    }
  }
}

TEST_P(Semantics, RegisterShiftBoundaryAmounts) {
  // Amounts 0, 31, 32, 33, 255 follow the ARMv6-M pseudocode.
  Harness lsl("    lsls r0, r1\n", GetParam());
  Harness lsr("    lsrs r0, r1\n", GetParam());
  const std::uint32_t v = 0x80000001u;
  EXPECT_EQ(lsl.run(v, 0).value, v);        // no shift, flags NZ only
  EXPECT_EQ(lsl.run(v, 31).value, 0x80000000u);
  auto got = lsl.run(v, 32);
  EXPECT_EQ(got.value, 0u);
  EXPECT_TRUE(got.f.c);  // last bit out = bit 0 = 1
  got = lsl.run(v, 33);
  EXPECT_EQ(got.value, 0u);
  EXPECT_FALSE(got.f.c);
  got = lsr.run(v, 32);
  EXPECT_EQ(got.value, 0u);
  EXPECT_TRUE(got.f.c);  // bit 31
  EXPECT_EQ(lsr.run(v, 255).value, 0u);
}

// Carry-in is architectural state the harness sets, so each carry-using
// op is checked against the reference on both C values, not only
// engine against engine.
TEST_P(Semantics, CarryInOpsMatchReference) {
  Harness adcs("    adcs r0, r1\n", GetParam());
  Harness sbcs("    sbcs r0, r1\n", GetParam());
  Harness cmn("    cmn r0, r1\n", GetParam());
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    // Every fourth pair sits on a carry boundary.
    const auto b = i % 4 == 0 ? ~a : static_cast<std::uint32_t>(rng.next_u64());
    for (const bool cin : {false, true}) {
      RefResult want = ref_add_with_carry(a, b, cin);
      RefResult got = adcs.run(a, b, cin);
      EXPECT_EQ(got.value, want.value) << "adcs C=" << cin;
      EXPECT_EQ(got.f, want.f) << "adcs " << a << "+" << b << " C=" << cin;
      want = ref_add_with_carry(a, ~b, cin);
      got = sbcs.run(a, b, cin);
      EXPECT_EQ(got.value, want.value) << "sbcs C=" << cin;
      EXPECT_EQ(got.f, want.f) << "sbcs " << a << "-" << b << " C=" << cin;
      // CMN sets the flags of a + b, ignores carry-in, and writes no
      // register.
      want = ref_add_with_carry(a, b, false);
      got = cmn.run(a, b, cin);
      EXPECT_EQ(got.value, a) << "cmn";
      EXPECT_EQ(got.f, want.f) << "cmn " << a << "+" << b << " C=" << cin;
    }
  }
}

TEST_P(Semantics, RegisterShiftsMatchReferenceOnBothCarries) {
  Rng rng(9);
  for (const std::string op : {"lsls", "lsrs", "asrs", "rors"}) {
    Harness h("    " + op + " r0, r1\n", GetParam());
    for (int i = 0; i < 8; ++i) {
      // Sign bit and bit 0 set, then random values.
      const std::uint32_t v =
          i == 0 ? 0x80000001u : static_cast<std::uint32_t>(rng.next_u64());
      for (const std::uint32_t amount :
           {0u, 1u, 31u, 32u, 33u, 255u, 0x100u, 0x120u}) {
        for (const bool cin : {false, true}) {
          const RefResult want = ref_shift_by_register(op, v, amount, cin);
          const RefResult got = h.run(v, amount, cin);
          EXPECT_EQ(got.value, want.value)
              << op << " " << v << " by " << amount << " C=" << cin;
          EXPECT_EQ(got.f, want.f)
              << op << " " << v << " by " << amount << " C=" << cin;
        }
      }
    }
  }
}

TEST_P(Semantics, MulsTruncatesTo32Bits) {
  Harness h("    muls r0, r1\n", GetParam());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = static_cast<std::uint32_t>(rng.next_u64());
    const auto got = h.run(a, b);
    EXPECT_EQ(got.value, a * b);
    EXPECT_EQ(got.f.n, (a * b) >> 31 != 0);
    EXPECT_EQ(got.f.z, a * b == 0);
  }
}

TEST_P(Semantics, LogicalOpsMatchReference) {
  Harness andh("    ands r0, r1\n", GetParam());
  Harness orrh("    orrs r0, r1\n", GetParam());
  Harness eorh("    eors r0, r1\n", GetParam());
  Harness bich("    bics r0, r1\n", GetParam());
  Harness mvnh("    mvns r0, r1\n", GetParam());
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b = static_cast<std::uint32_t>(rng.next_u64());
    EXPECT_EQ(andh.run(a, b).value, a & b);
    EXPECT_EQ(orrh.run(a, b).value, a | b);
    EXPECT_EQ(eorh.run(a, b).value, a ^ b);
    EXPECT_EQ(bich.run(a, b).value, a & ~b);
    EXPECT_EQ(mvnh.run(a, b).value, ~b);
  }
}

TEST_P(Semantics, CmpConditionMatrix) {
  // For random pairs, each condition code must agree with the host's
  // signed/unsigned comparisons.
  // MOVS/ADDS clobber the flags, so each predicate re-compares.
  const std::string body = R"(
    mov r3, r0
    movs r0, #0
    cmp r3, r1
    bls n1
    adds r0, #1
n1: cmp r3, r1
    bge n2
    adds r0, #2
n2: cmp r3, r1
    bne n3
    adds r0, #4
n3: cmp r3, r1
    blt n4
    adds r0, #8
n4: nop
)";
  Harness h(body, GetParam());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_u64());
    const auto b =
        rng.next_below(4) == 0 ? a : static_cast<std::uint32_t>(rng.next_u64());
    const std::uint32_t mask = h.run(a, b).value;
    EXPECT_EQ((mask & 1) != 0, a > b) << "hi";                    // unsigned >
    EXPECT_EQ((mask & 2) != 0,
              static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b))
        << "lt";
    EXPECT_EQ((mask & 4) != 0, a == b) << "eq";
    EXPECT_EQ((mask & 8) != 0,
              static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b))
        << "ge";
  }
}

TEST_P(Semantics, ExtendAndReverseOps) {
  Harness sxtb("    sxtb r0, r1\n", GetParam());
  Harness sxth("    sxth r0, r1\n", GetParam());
  Harness uxtb("    uxtb r0, r1\n", GetParam());
  Harness uxth("    uxth r0, r1\n", GetParam());
  Harness rev("    rev r0, r1\n", GetParam());
  Harness rev16("    rev16 r0, r1\n", GetParam());
  Harness revsh("    revsh r0, r1\n", GetParam());
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    const auto v = static_cast<std::uint32_t>(rng.next_u64());
    EXPECT_EQ(sxtb.run(0, v).value,
              static_cast<std::uint32_t>(
                  static_cast<std::int32_t>(static_cast<std::int8_t>(v))));
    EXPECT_EQ(sxth.run(0, v).value,
              static_cast<std::uint32_t>(
                  static_cast<std::int32_t>(static_cast<std::int16_t>(v))));
    EXPECT_EQ(uxtb.run(0, v).value, v & 0xFFu);
    EXPECT_EQ(uxth.run(0, v).value, v & 0xFFFFu);
    EXPECT_EQ(rev.run(0, v).value, ((v >> 24) & 0xFF) | ((v >> 8) & 0xFF00) |
                                       ((v << 8) & 0xFF0000) | (v << 24));
    EXPECT_EQ(rev16.run(0, v).value,
              ((v >> 8) & 0x00FF00FFu) | ((v << 8) & 0xFF00FF00u));
    const std::uint16_t swapped = static_cast<std::uint16_t>(
        ((v >> 8) & 0xFFu) | ((v & 0xFFu) << 8));
    EXPECT_EQ(revsh.run(0, v).value,
              static_cast<std::uint32_t>(static_cast<std::int32_t>(
                  static_cast<std::int16_t>(swapped))));
  }
}

}  // namespace
}  // namespace eccm0::armvm
