// Thumb-1 source generators for the prime-field kernels (gen.h).
//
// The M0+ has no UMULL: MULS is 32x32->32, so every 64-bit partial
// product goes through a 16x16 decomposition subroutine (mul64). The
// kernels are looping routines with subroutine calls — the "compiled
// shape" the paper's selection model assumes for prime fields, in
// contrast to the unrolled fixed-register gf2 kernels — and they run the
// separated form of word-level Montgomery reduction (full product, then
// n reduction rows, then the final conditional subtract), which picks
// the same multiplier as mpint::Montgomery's CIOS pass, so the host
// library is the bit-exact oracle.
#include "asmkernels/gen.h"

#include <stdexcept>

namespace eccm0::asmkernels {
namespace {

struct Src {
  std::string text;
  /// One instruction/label line.
  void l(const std::string& s) {
    text += s;
    text += '\n';
  }
};

std::string n2s(unsigned v) { return std::to_string(v); }

/// dst = RAM base + off (off a multiple of 8 below 2 KiB); base in
/// `base` (a low register), dst != base.
void emit_addr(Src& s, const std::string& dst, std::uint32_t off,
               const std::string& base) {
  if (off % 8 != 0 || off / 8 > 255) throw std::invalid_argument("bad offset");
  s.l("    movs " + dst + ", #" + n2s(off >> 3));
  s.l("    lsls " + dst + ", " + dst + ", #3");
  s.l("    add  " + dst + ", " + base);
}

/// mul64 subroutine: {r1:r0} = r0 * r1 (full 64-bit product via 16x16
/// halves); clobbers r2-r5, leaf (bx lr).
void emit_mul64(Src& s) {
  s.l("mul64:");
  s.l("    uxth r2, r0");
  s.l("    lsrs r3, r0, #16");
  s.l("    uxth r4, r1");
  s.l("    lsrs r5, r1, #16");
  s.l("    movs r0, r2");
  s.l("    muls r0, r4             ; al*bl");
  s.l("    muls r2, r5             ; al*bh");
  s.l("    muls r4, r3             ; ah*bl");
  s.l("    muls r3, r5             ; ah*bh");
  s.l("    adds r2, r2, r4         ; mid = al*bh + ah*bl");
  s.l("    movs r4, #0");
  s.l("    adcs r4, r4");
  s.l("    lsls r4, r4, #16");
  s.l("    adds r3, r3, r4         ; hi += mid carry << 16");
  s.l("    lsrs r4, r2, #16");
  s.l("    adds r3, r3, r4         ; hi += mid >> 16");
  s.l("    lsls r2, r2, #16");
  s.l("    adds r0, r0, r2         ; lo = al*bl + mid << 16");
  s.l("    movs r4, #0");
  s.l("    adcs r4, r4");
  s.l("    adds r1, r3, r4");
  s.l("    bx   lr");
}

/// Operand-scanning product of the n-word operands at base+xoff and
/// base+yoff, accumulated into the zeroed buffer at r8 (t[i+j] += lo,
/// carry chained; t[i+n] = carry). Register budget: r12 = RAM base,
/// r8 = product, r9 = x[i], r10 = carry, r7 = i*4, r6 = j*4.
void emit_product(Src& s, unsigned n, std::uint32_t xoff, std::uint32_t yoff) {
  s.l("    movs r7, #0             ; i*4");
  s.l("pp_outer:");
  s.l("    mov  r0, r12");
  s.l("    movs r1, #" + n2s(xoff));
  s.l("    add  r0, r1");
  s.l("    ldr  r0, [r0, r7]");
  s.l("    mov  r9, r0             ; x[i]");
  s.l("    movs r0, #0");
  s.l("    mov  r10, r0            ; carry");
  s.l("    movs r6, #0             ; j*4");
  s.l("pp_inner:");
  s.l("    mov  r0, r12");
  s.l("    movs r1, #" + n2s(yoff));
  s.l("    add  r0, r1");
  s.l("    ldr  r1, [r0, r6]       ; y[j]");
  s.l("    mov  r0, r9");
  s.l("    bl   mul64");
  s.l("    mov  r2, r10");
  s.l("    adds r0, r0, r2         ; lo += carry");
  s.l("    movs r2, #0");
  s.l("    adcs r2, r2");
  s.l("    adds r1, r1, r2");
  s.l("    mov  r2, r8");
  s.l("    add  r2, r7");
  s.l("    add  r2, r6             ; &t[i+j]");
  s.l("    ldr  r3, [r2, #0]");
  s.l("    adds r0, r0, r3         ; lo += t[i+j]");
  s.l("    movs r3, #0");
  s.l("    adcs r3, r3");
  s.l("    adds r1, r1, r3");
  s.l("    str  r0, [r2, #0]");
  s.l("    mov  r10, r1            ; carry = hi");
  s.l("    adds r6, #4");
  s.l("    cmp  r6, #" + n2s(4 * n));
  s.l("    blt  pp_inner");
  s.l("    mov  r2, r8");
  s.l("    add  r2, r7");
  s.l("    mov  r0, r10");
  s.l("    str  r0, [r2, #" + n2s(4 * n) + "] ; t[i+n] = carry");
  s.l("    adds r7, #4");
  s.l("    cmp  r7, #" + n2s(4 * n));
  s.l("    blt  pp_outer");
}

/// Word-by-word Montgomery REDC of the (2n+1)-word t at r8, in place
/// (emit_condsub adds the final subtract). Needs the RAM base in
/// r12 on entry (consumed: r12 becomes the per-row u). After this,
/// r9 = &m and the reduced value is t[n..2n] (top word 0 or 1).
void emit_redc(Src& s, unsigned n) {
  s.l("    mov  r0, r12");
  emit_addr(s, "r1", kPModOff, "r0");
  s.l("    mov  r9, r1             ; &m");
  emit_addr(s, "r2", kPM0Off, "r0");
  s.l("    ldr  r2, [r2, #0]");
  s.l("    mov  r10, r2            ; m0inv");
  s.l("    movs r7, #0             ; i*4");
  s.l("rd_outer:");
  s.l("    mov  r0, r8");
  s.l("    ldr  r0, [r0, r7]       ; t[i]");
  s.l("    mov  r1, r10");
  s.l("    muls r0, r1             ; u = t[i] * m0inv (mod 2^32)");
  s.l("    mov  r12, r0");
  s.l("    movs r1, #0");
  s.l("    mov  r11, r1            ; carry");
  s.l("    movs r6, #0             ; j*4");
  s.l("rd_inner:");
  s.l("    mov  r1, r9");
  s.l("    ldr  r1, [r1, r6]       ; m[j]");
  s.l("    mov  r0, r12");
  s.l("    bl   mul64              ; u * m[j]");
  s.l("    mov  r2, r11");
  s.l("    adds r0, r0, r2");
  s.l("    movs r2, #0");
  s.l("    adcs r2, r2");
  s.l("    adds r1, r1, r2");
  s.l("    mov  r2, r8");
  s.l("    add  r2, r7");
  s.l("    add  r2, r6");
  s.l("    ldr  r3, [r2, #0]");
  s.l("    adds r0, r0, r3");
  s.l("    movs r3, #0");
  s.l("    adcs r3, r3");
  s.l("    adds r1, r1, r3");
  s.l("    str  r0, [r2, #0]");
  s.l("    mov  r11, r1");
  s.l("    adds r6, #4");
  s.l("    cmp  r6, #" + n2s(4 * n));
  s.l("    blt  rd_inner");
  s.l("    mov  r2, r8");
  s.l("    add  r2, r7             ; &t[i]; r6 = 4n = carry offset");
  s.l("rd_carry:");
  s.l("    mov  r0, r11");
  s.l("    cmp  r0, #0");
  s.l("    beq  rd_next");
  s.l("    ldr  r1, [r2, r6]");
  s.l("    adds r1, r1, r0");
  s.l("    str  r1, [r2, r6]");
  s.l("    movs r0, #0");
  s.l("    adcs r0, r0");
  s.l("    mov  r11, r0");
  s.l("    adds r6, #4");
  s.l("    mov  r0, r7");
  s.l("    add  r0, r6");
  s.l("    cmp  r0, #" + n2s(8 * n + 4));
  s.l("    blt  rd_carry");
  s.l("rd_next:");
  s.l("    adds r7, #4");
  s.l("    cmp  r7, #" + n2s(4 * n));
  s.l("    blt  rd_outer");
}

/// Conditional final subtract: r = t[n..2n] (top word in t[2n]); write
/// r >= m ? r - m : r to kOutOff (= t - 0x40). Expects r8 = &t,
/// r9 = &m.
void emit_condsub(Src& s, unsigned n) {
  s.l("    mov  r4, r8");
  s.l("    subs r4, #64            ; out = kOutOff");
  s.l("    mov  r3, r8");
  s.l("    movs r0, #" + n2s(4 * n));
  s.l("    add  r3, r0             ; &t[n]");
  s.l("    mov  r0, r8");
  s.l("    ldr  r0, [r0, #" + n2s(8 * n) + "] ; t[2n] (0 or 1)");
  s.l("    cmp  r0, #0");
  s.l("    bne  cs_sub             ; top bit set -> r >= m");
  s.l("    movs r6, #" + n2s(4 * n));
  s.l("cs_cmp:");
  s.l("    subs r6, #4");
  s.l("    ldr  r1, [r3, r6]");
  s.l("    mov  r2, r9");
  s.l("    ldr  r2, [r2, r6]");
  s.l("    cmp  r1, r2");
  s.l("    bhi  cs_sub");
  s.l("    blo  cs_copy");
  s.l("    cmp  r6, #0");
  s.l("    bne  cs_cmp             ; all equal: r == m -> subtract");
  s.l("cs_sub:");
  s.l("    movs r6, #0");
  s.l("    movs r5, #1             ; saved carry (1 = no borrow)");
  s.l("cs_sl:");
  s.l("    lsrs r0, r5, #1         ; C := saved carry");
  s.l("    ldr  r0, [r3, r6]");
  s.l("    mov  r1, r9");
  s.l("    ldr  r1, [r1, r6]");
  s.l("    sbcs r0, r1");
  s.l("    movs r5, #0");
  s.l("    adcs r5, r5");
  s.l("    str  r0, [r4, r6]");
  s.l("    adds r6, #4");
  s.l("    cmp  r6, #" + n2s(4 * n));
  s.l("    blt  cs_sl");
  s.l("    b    cs_done");
  s.l("cs_copy:");
  s.l("    movs r6, #0");
  s.l("cs_cl:");
  s.l("    ldr  r0, [r3, r6]");
  s.l("    str  r0, [r4, r6]");
  s.l("    adds r6, #4");
  s.l("    cmp  r6, #" + n2s(4 * n));
  s.l("    blt  cs_cl");
  s.l("cs_done:");
  s.l("    bkpt");
}

void check_n(unsigned n) {
  if (n < 2 || n > 8) throw std::invalid_argument("prime kernel limbs");
}

}  // namespace

std::string gen_prime_mul(unsigned n) {
  check_n(n);
  Src s;
  s.l("entry:");
  s.l("    movs r0, #1");
  s.l("    lsls r0, r0, #29        ; RAM base");
  s.l("    mov  r12, r0");
  s.l("    mov  r8, r0             ; product at kVOff = 0");
  s.l("    movs r1, #0");
  s.l("    movs r2, #" + n2s(8 * n));
  s.l("pz:");
  s.l("    subs r2, #4");
  s.l("    str  r1, [r0, r2]");
  s.l("    bne  pz");
  emit_product(s, n, kXOff, kYOff);
  s.l("    bkpt");
  emit_mul64(s);
  return s.text;
}

std::string gen_prime_mont(unsigned n, bool square) {
  check_n(n);
  Src s;
  s.l("entry:");
  s.l("    movs r0, #1");
  s.l("    lsls r0, r0, #29        ; RAM base");
  s.l("    mov  r12, r0");
  emit_addr(s, "r1", kWideOff, "r0");
  s.l("    mov  r8, r1             ; t = wide buffer");
  s.l("    movs r2, #0");
  s.l("    movs r3, #" + n2s(8 * n + 4) + " ; zero t[0..2n]");
  s.l("mz:");
  s.l("    subs r3, #4");
  s.l("    str  r2, [r1, r3]");
  s.l("    bne  mz");
  emit_product(s, n, kXOff, square ? kXOff : kYOff);
  emit_redc(s, n);
  emit_condsub(s, n);
  emit_mul64(s);
  return s.text;
}

std::string gen_prime_redc(unsigned n) {
  check_n(n);
  Src s;
  s.l("entry:");
  s.l("    movs r0, #1");
  s.l("    lsls r0, r0, #29        ; RAM base");
  s.l("    mov  r12, r0");
  emit_addr(s, "r1", kWideOff, "r0");
  s.l("    mov  r8, r1             ; t = caller-loaded wide buffer");
  s.l("    movs r2, #0");
  s.l("    str  r2, [r1, #" + n2s(8 * n) + "] ; zero-extend t[2n]");
  emit_redc(s, n);
  emit_condsub(s, n);
  emit_mul64(s);
  return s.text;
}

std::string gen_prime_inv(unsigned n) {
  check_n(n);
  const std::string w = n2s(4 * n);
  Src s;
  // Pointer map (set once, read-only in the loop): r8 = &u, r9 = &v,
  // r10 = &x1, r11 = &x2, r12 = &m. Subroutines clobber r0-r5 only.
  s.l("entry:");
  s.l("    movs r0, #1");
  s.l("    lsls r0, r0, #29        ; RAM base");
  emit_addr(s, "r1", kInOff, "r0");
  emit_addr(s, "r2", kInvUOff, "r0");
  s.l("    mov  r8, r2");
  s.l("    movs r4, #0");
  s.l("pi_cpu:");
  s.l("    ldr  r3, [r1, r4]");
  s.l("    str  r3, [r2, r4]       ; u = a");
  s.l("    adds r4, #4");
  s.l("    cmp  r4, #" + w);
  s.l("    blt  pi_cpu");
  emit_addr(s, "r1", kPModOff, "r0");
  s.l("    mov  r12, r1            ; &m");
  emit_addr(s, "r2", kInvVOff, "r0");
  s.l("    mov  r9, r2");
  s.l("    movs r4, #0");
  s.l("pi_cpv:");
  s.l("    ldr  r3, [r1, r4]");
  s.l("    str  r3, [r2, r4]       ; v = m");
  s.l("    adds r4, #4");
  s.l("    cmp  r4, #" + w);
  s.l("    blt  pi_cpv");
  emit_addr(s, "r2", kInvG1Off, "r0");
  s.l("    mov  r10, r2");
  s.l("    movs r3, #0");
  s.l("    movs r4, #0");
  s.l("pi_z1:");
  s.l("    str  r3, [r2, r4]");
  s.l("    adds r4, #4");
  s.l("    cmp  r4, #" + w);
  s.l("    blt  pi_z1");
  s.l("    movs r3, #1");
  s.l("    str  r3, [r2, #0]       ; x1 = 1");
  emit_addr(s, "r2", kInvG2Off, "r0");
  s.l("    mov  r11, r2");
  s.l("    movs r3, #0");
  s.l("    movs r4, #0");
  s.l("pi_z2:");
  s.l("    str  r3, [r2, r4]       ; x2 = 0");
  s.l("    adds r4, #4");
  s.l("    cmp  r4, #" + w);
  s.l("    blt  pi_z2");
  s.l("pi_loop:");
  s.l("    mov  r0, r8");
  s.l("    bl   iszero             ; gcd(0, m): degenerate-input guard");
  s.l("    cmp  r0, #1");
  s.l("    beq  pi_ret2");
  s.l("    mov  r0, r8");
  s.l("    bl   isone");
  s.l("    cmp  r0, #1");
  s.l("    beq  pi_ret1");
  s.l("    mov  r0, r9");
  s.l("    bl   isone");
  s.l("    cmp  r0, #1");
  s.l("    beq  pi_ret2");
  s.l("pi_uev:");
  s.l("    mov  r0, r8");
  s.l("    ldr  r1, [r0, #0]");
  s.l("    lsrs r1, r1, #1         ; C = u bit 0");
  s.l("    bcs  pi_vev");
  s.l("    bl   shr1u              ; u /= 2");
  s.l("    mov  r0, r10");
  s.l("    bl   halvem             ; x1 = x1/2 mod m");
  s.l("    b    pi_uev");
  s.l("pi_vev:");
  s.l("    mov  r0, r9");
  s.l("    ldr  r1, [r0, #0]");
  s.l("    lsrs r1, r1, #1");
  s.l("    bcs  pi_diff");
  s.l("    bl   shr1u              ; v /= 2");
  s.l("    mov  r0, r11");
  s.l("    bl   halvem             ; x2 = x2/2 mod m");
  s.l("    b    pi_vev");
  s.l("pi_diff:");
  s.l("    mov  r0, r8");
  s.l("    mov  r1, r9");
  s.l("    bl   uge");
  s.l("    cmp  r0, #1");
  s.l("    bne  pi_lt");
  s.l("    mov  r0, r8");
  s.l("    mov  r1, r9");
  s.l("    bl   usub               ; u -= v");
  s.l("    mov  r0, r10");
  s.l("    mov  r1, r11");
  s.l("    bl   submod             ; x1 = (x1 - x2) mod m");
  s.l("    b    pi_loop");
  s.l("pi_lt:");
  s.l("    mov  r0, r9");
  s.l("    mov  r1, r8");
  s.l("    bl   usub               ; v -= u");
  s.l("    mov  r0, r11");
  s.l("    mov  r1, r10");
  s.l("    bl   submod             ; x2 = (x2 - x1) mod m");
  s.l("    b    pi_loop");
  s.l("pi_ret1:");
  s.l("    mov  r1, r10");
  s.l("    b    pi_out");
  s.l("pi_ret2:");
  s.l("    mov  r1, r11");
  s.l("pi_out:");
  s.l("    movs r0, #1");
  s.l("    lsls r0, r0, #29");
  emit_addr(s, "r2", kOutOff, "r0");
  s.l("    movs r4, #0");
  s.l("pi_cpo:");
  s.l("    ldr  r3, [r1, r4]");
  s.l("    str  r3, [r2, r4]");
  s.l("    adds r4, #4");
  s.l("    cmp  r4, #" + w);
  s.l("    blt  pi_cpo");
  s.l("    bkpt");
  // --- subroutines (leaf; clobber r0-r5; r12 = &m read-only) ---
  s.l("iszero:");
  s.l("    movs r2, #0");
  s.l("iz_l:");
  s.l("    ldr  r1, [r0, r2]");
  s.l("    cmp  r1, #0");
  s.l("    bne  iz_no");
  s.l("    adds r2, #4");
  s.l("    cmp  r2, #" + w);
  s.l("    blt  iz_l");
  s.l("    movs r0, #1");
  s.l("    bx   lr");
  s.l("iz_no:");
  s.l("    movs r0, #0");
  s.l("    bx   lr");
  s.l("isone:");
  s.l("    ldr  r1, [r0, #0]");
  s.l("    cmp  r1, #1");
  s.l("    bne  io_no");
  s.l("    movs r2, #4");
  s.l("io_l:");
  s.l("    cmp  r2, #" + w);
  s.l("    bge  io_yes");
  s.l("    ldr  r1, [r0, r2]");
  s.l("    cmp  r1, #0");
  s.l("    bne  io_no");
  s.l("    adds r2, #4");
  s.l("    b    io_l");
  s.l("io_yes:");
  s.l("    movs r0, #1");
  s.l("    bx   lr");
  s.l("io_no:");
  s.l("    movs r0, #0");
  s.l("    bx   lr");
  s.l("shr1u:                      ; [r0] >>= 1, zero fill");
  s.l("    movs r2, #0");
  s.l("    movs r3, #" + w);
  s.l("sh_l:");
  s.l("    subs r3, #4");
  s.l("    ldr  r1, [r0, r3]");
  s.l("    lsls r4, r1, #31        ; outgoing bit");
  s.l("    lsrs r1, r1, #1");
  s.l("    orrs r1, r2");
  s.l("    str  r1, [r0, r3]");
  s.l("    movs r2, r4");
  s.l("    cmp  r3, #0");
  s.l("    bne  sh_l");
  s.l("    bx   lr");
  s.l("halvem:                     ; [r0] = [r0]/2 mod m (m odd)");
  s.l("    ldr  r1, [r0, #0]");
  s.l("    lsrs r1, r1, #1");
  s.l("    bcc  hv_sh0             ; even: plain shift");
  s.l("    movs r3, #0             ; odd: += m first, keep carry-out");
  s.l("    movs r5, #0");
  s.l("hv_add:");
  s.l("    lsrs r2, r5, #1         ; C := saved carry");
  s.l("    ldr  r1, [r0, r3]");
  s.l("    mov  r2, r12");
  s.l("    ldr  r2, [r2, r3]");
  s.l("    adcs r1, r2");
  s.l("    movs r5, #0");
  s.l("    adcs r5, r5");
  s.l("    str  r1, [r0, r3]");
  s.l("    adds r3, #4");
  s.l("    cmp  r3, #" + w);
  s.l("    blt  hv_add");
  s.l("    lsls r2, r5, #31        ; carry-out becomes the top bit");
  s.l("    b    hv_sh");
  s.l("hv_sh0:");
  s.l("    movs r2, #0");
  s.l("hv_sh:");
  s.l("    movs r3, #" + w);
  s.l("hv_l:");
  s.l("    subs r3, #4");
  s.l("    ldr  r1, [r0, r3]");
  s.l("    lsls r4, r1, #31");
  s.l("    lsrs r1, r1, #1");
  s.l("    orrs r1, r2");
  s.l("    str  r1, [r0, r3]");
  s.l("    movs r2, r4");
  s.l("    cmp  r3, #0");
  s.l("    bne  hv_l");
  s.l("    bx   lr");
  s.l("uge:                        ; r0 = ([r0] >= [r1])");
  s.l("    movs r3, #" + w);
  s.l("ug_l:");
  s.l("    subs r3, #4");
  s.l("    ldr  r2, [r0, r3]");
  s.l("    ldr  r4, [r1, r3]");
  s.l("    cmp  r2, r4");
  s.l("    bhi  ug_yes");
  s.l("    blo  ug_no");
  s.l("    cmp  r3, #0");
  s.l("    bne  ug_l");
  s.l("ug_yes:");
  s.l("    movs r0, #1");
  s.l("    bx   lr");
  s.l("ug_no:");
  s.l("    movs r0, #0");
  s.l("    bx   lr");
  s.l("usub:                       ; [r0] -= [r1] (caller: no borrow)");
  s.l("    movs r3, #0");
  s.l("    movs r5, #1");
  s.l("us_l:");
  s.l("    lsrs r2, r5, #1");
  s.l("    ldr  r2, [r0, r3]");
  s.l("    ldr  r4, [r1, r3]");
  s.l("    sbcs r2, r4");
  s.l("    movs r5, #0");
  s.l("    adcs r5, r5");
  s.l("    str  r2, [r0, r3]");
  s.l("    adds r3, #4");
  s.l("    cmp  r3, #" + w);
  s.l("    blt  us_l");
  s.l("    bx   lr");
  s.l("submod:                     ; [r0] = ([r0] - [r1]) mod m");
  s.l("    movs r3, #" + w);
  s.l("sm_c:");
  s.l("    subs r3, #4");
  s.l("    ldr  r2, [r0, r3]");
  s.l("    ldr  r4, [r1, r3]");
  s.l("    cmp  r2, r4");
  s.l("    bhi  sm_sub");
  s.l("    blo  sm_addm");
  s.l("    cmp  r3, #0");
  s.l("    bne  sm_c");
  s.l("sm_sub:                     ; dst >= src: plain subtract");
  s.l("    movs r3, #0");
  s.l("    movs r5, #1");
  s.l("sm_s:");
  s.l("    lsrs r2, r5, #1");
  s.l("    ldr  r2, [r0, r3]");
  s.l("    ldr  r4, [r1, r3]");
  s.l("    sbcs r2, r4");
  s.l("    movs r5, #0");
  s.l("    adcs r5, r5");
  s.l("    str  r2, [r0, r3]");
  s.l("    adds r3, #4");
  s.l("    cmp  r3, #" + w);
  s.l("    blt  sm_s");
  s.l("    bx   lr");
  s.l("sm_addm:                    ; dst < src: dst += m, then subtract");
  s.l("    movs r3, #0");
  s.l("    movs r5, #0");
  s.l("sm_a:");
  s.l("    lsrs r2, r5, #1");
  s.l("    ldr  r2, [r0, r3]");
  s.l("    mov  r4, r12");
  s.l("    ldr  r4, [r4, r3]");
  s.l("    adcs r2, r4");
  s.l("    movs r5, #0");
  s.l("    adcs r5, r5");
  s.l("    str  r2, [r0, r3]");
  s.l("    adds r3, #4");
  s.l("    cmp  r3, #" + w);
  s.l("    blt  sm_a");
  s.l("    b    sm_sub             ; borrow cancels the dropped carry");
  return s.text;
}

}  // namespace eccm0::asmkernels
