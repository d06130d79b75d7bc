// Thumb-1 source generators for the K-233 field kernels.
//
// The kernels are emitted as assembly text (loops unrolled by the
// generator, exactly as a hand-optimiser would) and assembled/run on the
// armvm core, which yields *measured* Cortex-M0+ cycle counts for Tables
// 5 and 6 rather than modelled ones.
//
// Fixed RAM layout shared by the multiplication kernels (offsets from the
// base register r3 = RAM base):
//   0x000  v    16-word product / reduced result
//   0x040  x    8-word multiplier (scanned operand)
//   0x060  y    8-word multiplicand (LUT operand)
//   0x080  LUT  16 entries x 8 words (u(z)*y(z), u < 16)
// Squaring/reduction kernels:
//   0x280  256-entry halfword squaring table
//   0x480  8-word input a
//   0x4C0  8-word output r
//   0x500  16-word wide buffer
#pragma once

#include <cstdint>
#include <string>

namespace eccm0::asmkernels {

inline constexpr std::uint32_t kVOff = 0x000;
inline constexpr std::uint32_t kXOff = 0x040;
inline constexpr std::uint32_t kYOff = 0x060;
inline constexpr std::uint32_t kLutOff = 0x080;
inline constexpr std::uint32_t kSqrTabOff = 0x280;
inline constexpr std::uint32_t kInOff = 0x480;
inline constexpr std::uint32_t kOutOff = 0x4C0;
inline constexpr std::uint32_t kWideOff = 0x500;

/// Lopez-Dahab w=4 multiplication with the paper's fixed-register layout:
/// v[3..11] pinned (v[5..8] in lo registers r4-r7, v[3],v[4],v[9..11] in
/// hi registers r8-r12), v[0..2] and v[12..15] in RAM. If `reduce` is
/// true the kernel folds the product modulo z^233+z^74+1 in place.
std::string gen_mul_fixed(bool reduce);

/// Plain Lopez-Dahab w=4 with the whole product vector in RAM — the shape
/// a C compiler produces (no register pinning); the paper's Table 6
/// "C language" comparator.
std::string gen_mul_plain(bool reduce);

/// The same two kernels instantiated for K-163's field F(2^163)
/// (pentanomial x^163+x^7+x^6+x^3+1, n = 6, window v[2..8] pinned) —
/// the paper's method ported to the other NIST Koblitz field we model.
std::string gen_mul_k163_fixed(bool reduce);
std::string gen_mul_k163_plain(bool reduce);

/// Table-based modular squaring (256-entry halfword table) + reduction.
std::string gen_sqr();

/// Standalone word-at-a-time reduction of the 16-word wide buffer into
/// the output slot.
std::string gen_reduce();

/// Only the w=4 lookup-table generation (T[u] = u*y) — isolates the
/// "Multiply Precomputation" share of a multiplication (Table 7).
std::string gen_lut_only();

/// Field inversion by the Extended Euclidean Algorithm for binary
/// polynomials — a genuine looping/branching Thumb routine (pointer-swap
/// instead of content-swap, shift-function subroutine, degree scan).
/// Input at kInOff, result at kOutOff; scratch at kInvUOff..: this is the
/// "compiled-shape" inversion the paper kept in C (Table 6 lists no
/// assembly column for it).
std::string gen_inv();

inline constexpr std::uint32_t kInvUOff = 0x600;
inline constexpr std::uint32_t kInvVOff = 0x620;
inline constexpr std::uint32_t kInvG1Off = 0x640;
inline constexpr std::uint32_t kInvG2Off = 0x660;
inline constexpr std::uint32_t kInvVarsOff = 0x6C0;

// ---------------------------------------------------------------------
// Prime-field kernels (secp192r1/224r1/256r1 over mpint Montgomery
// arithmetic). Same 2 KiB RAM layout, extended with a modulus block:
//   0x700  m       n-word modulus (n = 6, 7, 8)
//   0x720  m0inv   one word, -m[0]^-1 mod 2^32 (Montgomery constant)
// Operands reuse the gf2 slots: x at kXOff, y at kYOff, standalone
// inputs at kInOff / kWideOff, reduced results at kOutOff, raw products
// at kVOff. The EEA inversion reuses the kInvUOff.. scratch vectors.
// MULS on the M0+ is 32x32->32, so the 64-bit partial products are
// built by a 16x16 decomposition subroutine (mul64) — the school-book
// "compiled shape" the paper's selection model prices for prime fields.
inline constexpr std::uint32_t kPModOff = 0x700;
inline constexpr std::uint32_t kPM0Off = 0x720;

/// School-book n x n -> 2n word multiplication (operand scanning, MAC
/// via the 16x16 decomposition). x at kXOff, y at kYOff, raw 2n-word
/// product at kVOff. No reduction.
std::string gen_prime_mul(unsigned n);

/// Montgomery multiplication: school-book product into the wide buffer
/// followed by an in-place word-by-word REDC with the final conditional
/// subtract (the value mpint::Montgomery::mul returns).
/// x at kXOff, y at kYOff, m/m0inv at kPModOff/kPM0Off, n-word result
/// (Montgomery domain) at kOutOff. With `square` the y operand is read
/// from kXOff, giving the squaring kernel.
std::string gen_prime_mont(unsigned n, bool square);

/// Standalone REDC of a caller-loaded 2n-word value t at kWideOff
/// (t < m*R required, as for any Montgomery intermediate); result
/// t*R^-1 mod m at kOutOff.
std::string gen_prime_redc(unsigned n);

/// Modular inversion by the binary extended Euclidean algorithm
/// (HAC 14.61): plain-domain input a at kInOff, a^-1 mod m at kOutOff,
/// scratch u/v/x1/x2 in the kInvUOff.. vectors. A genuine looping and
/// branching routine, like the gf2 EEA kernel.
std::string gen_prime_inv(unsigned n);

}  // namespace eccm0::asmkernels
