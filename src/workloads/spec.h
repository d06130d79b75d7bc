// Curve-agnostic workload descriptions.
//
// A WorkloadSpec bundles everything a harness needs to run a field-level
// workload on the VM without knowing which curve family it came from:
// the registry kernel names, the deterministic operand recipe, the
// expected field-op mix of the transaction, and the curve/field tag.
// kp_mix_sect233k1() generalizes here to op_mix(curve) over both field
// families, and the protocol transactions (a complete ECDH agreement,
// an ECDSA sign+verify) become replayable specs, so the campaigns, the
// sca rig, the profiler and the benches all operate on one abstraction
// instead of the historical gf2-only kernel list.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "armvm/cpu.h"
#include "ec/ops.h"
#include "workloads/kp_mix.h"

namespace eccm0::ecp {
struct PrimeCurve;
}

namespace eccm0::workloads {

/// A curve the workload layer can drive end-to-end (kernels registered,
/// operand recipe known, host oracle available).
struct CurveRef {
  std::string name;          ///< "sect233k1", "secp192r1", ...
  bool binary_field = true;  ///< GF(2^m) vs GF(p)
  unsigned bits = 0;
  unsigned limbs = 0;
  /// Registry prefix of the prime kernel family ("p192"...); empty for
  /// the binary curves whose kernels keep their historical names.
  std::string kernel_tag;
};

/// Resolve a --curve= value. Throws std::invalid_argument (listing the
/// known names) for unknown curves — the benches map that to exit 2.
const CurveRef& curve_from_name(const std::string& name);

/// Names accepted by curve_from_name, sorted.
std::vector<std::string> workload_curve_names();

/// The host ecp::PrimeCurve backing a prime-field CurveRef (oracle,
/// Montgomery context, generator). Throws std::invalid_argument for
/// binary curves.
const ecp::PrimeCurve& prime_curve(const CurveRef& curve);

/// Field-op counts of one real w=4 point multiplication on `curve`
/// (wTNAF on the binary side, Jacobian wNAF via ecp on the prime side),
/// derived once per curve from the shared mix seed 0x7AB1E4 and cached.
/// For sect233k1 this is exactly kp_mix_sect233k1().
const ec::FieldOpCounts& op_mix(const CurveRef& curve);

/// A replayable workload: kernels + operands + expected op mix.
struct WorkloadSpec {
  std::string name;         ///< e.g. "kp-secp192r1", "ecdh-sect233k1"
  CurveRef curve;
  std::string transaction;  ///< "kp" | "ecdh" | "ecdsa"
  /// Scalar multiplications in one transaction: kP = 1, ECDH agreement
  /// (keygen kG + shared-secret kP, one party) = 2, ECDSA sign+verify
  /// (nonce kG + u1*G + u2*Q) = 3.
  unsigned point_muls = 1;
  /// Registry kernel names replayed for the mix's mul/sqr/inv counts.
  std::string mul_kernel, sqr_kernel, inv_kernel;
  /// Total field-op mix of the transaction (order-field host arithmetic
  /// — hashing, the ECDSA mod-n algebra — is outside the VM budget, as
  /// in the paper's energy accounting).
  ec::FieldOpCounts ops;
};

/// Build the kP / ECDH / ECDSA spec for a curve. `transaction` must be
/// one of "kp", "ecdh", "ecdsa"; throws std::invalid_argument otherwise
/// (and for unknown curves).
WorkloadSpec make_workload(const std::string& transaction,
                           const std::string& curve_name);
WorkloadSpec kp_workload(const std::string& curve_name);

/// Deterministic prime-kernel operands (per-curve, seed 0x7151CA7 like
/// KernelOperands::standard): x, y are in-field Montgomery-domain
/// multiplication inputs, a is a nonzero plain-domain inversion input,
/// wide is a 2n-word REDC input < m*R.
struct PrimeOperands {
  std::vector<std::uint32_t> x, y, a, wide;
  static const PrimeOperands& standard(const CurveRef& curve);
};

/// Loaders for the prime kernels' RAM layout (modulus block + operand
/// slots; poke, so no wait-state charges on protected memory).
void load_prime_modulus(armvm::Memory& mem, const CurveRef& curve);
void load_prime_mul_inputs(armvm::Memory& mem,
                           const std::vector<std::uint32_t>& x,
                           const std::vector<std::uint32_t>& y);
void load_prime_inv_input(armvm::Memory& mem,
                          const std::vector<std::uint32_t>& a);
void load_prime_wide_input(armvm::Memory& mem,
                           const std::vector<std::uint32_t>& wide);

/// Replay result: accumulated VM stats over every kernel call of the
/// spec, plus an order-sensitive digest of all kernel-output words (the
/// engine-equivalence witness).
struct ReplayResult {
  armvm::RunStats stats;
  std::uint64_t output_digest = 0;
  std::uint64_t fused_retired = 0;
};

/// A spec's three kernel images, pre-resolved from the KernelRegistry.
/// This is the per-worker registry shard of the serve front-end: each
/// service worker resolves the images it needs once, so the request hot
/// path never takes the registry mutex, and every replay over the same
/// shard shares the same immutable Program images.
struct ReplayImages {
  armvm::ProgramRef mul, sqr, inv;
  static ReplayImages resolve(const WorkloadSpec& spec);
};

/// The three kernel streams of a replay: the mix's mul, sqr and inv
/// calls, in the order a serial replay makes them within one rep.
enum class KernelStream : unsigned { kMul, kSqr, kInv };
inline constexpr unsigned kKernelStreams = 3;

/// One stream of a replay: its machine's totals and the kernel-output
/// words its last call left in RAM.
struct StreamReplay {
  armvm::RunStats stats;
  std::uint64_t fused_retired = 0;
  std::vector<std::uint32_t> output;
};

/// Run one kernel stream of the spec: `reps` x the mix's count of that
/// kernel's calls, in order, on one fresh KernelMachine over its image
/// (the binary EEA `inv` re-seeded before every call). replay() is built
/// from these; a harness that times the engine on one core runs the
/// three in turn and merges them.
StreamReplay replay_stream(const WorkloadSpec& spec, const ReplayImages& images,
                           KernelStream stream, armvm::Cpu::DecodeMode mode,
                           const armvm::MemModelConfig& mem_model = {},
                           unsigned reps = 1);

/// Fold the three streams (indexed by KernelStream) into the replay
/// result: stats and fused counts summed, the digest mixed word by word
/// across mul, sqr and inv.
ReplayResult merge_streams(
    const std::array<StreamReplay, kKernelStreams>& streams);

/// Run the spec's field-op mix as one VM workload, `reps` times. The
/// three kernel streams run concurrently through a sim::BatchExecutor,
/// each on its own KernelMachine, and merge as merge_streams does. Each
/// replay in flight in the process gets an equal share of the host's
/// hardware threads (at least one, so it runs inline when the cores are
/// taken). Exact by construction: the streams share only immutable
/// images and operand tables, and each machine makes the calls a serial
/// replay (rep 0's mul, sqr and inv calls, then rep 1's, ...) makes on
/// it, in the same order — same spec, mode and mem model give
/// bit-identical stats and digest. A failure rethrows the exception the
/// serial replay would have hit first (lowest rep, then mul < sqr <
/// inv); a stream stops at its next call once that call comes after the
/// earliest failure in serial order, and every stream thread has joined
/// before replay() returns or throws.
ReplayResult replay(const WorkloadSpec& spec, armvm::Cpu::DecodeMode mode,
                    const armvm::MemModelConfig& mem_model = {},
                    unsigned reps = 1);

/// replay() over pre-resolved images — bit-identical to the registry
/// path by construction (the registry hands out the same ProgramRefs).
ReplayResult replay(const WorkloadSpec& spec, const ReplayImages& images,
                    armvm::Cpu::DecodeMode mode,
                    const armvm::MemModelConfig& mem_model = {},
                    unsigned reps = 1);

}  // namespace eccm0::workloads
