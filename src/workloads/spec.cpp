#include "workloads/spec.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "asmkernels/gen.h"
#include "common/rng.h"
#include "ec/costing.h"
#include "ec/curve.h"
#include "ecp/costing.h"
#include "ecp/curve.h"
#include "sim/batch.h"
#include "workloads/registry.h"

namespace eccm0::workloads {

namespace {

const std::vector<CurveRef>& curve_table() {
  static const std::vector<CurveRef> kCurves = {
      {"sect233k1", true, 233, 8, ""},
      {"secp192r1", false, 192, 6, "p192"},
      {"secp224r1", false, 224, 7, "p224"},
      {"secp256r1", false, 256, 8, "p256"},
  };
  return kCurves;
}

/// Fixed-width little-endian words of a UInt (zero padded).
std::vector<std::uint32_t> to_words(const mpint::UInt& v, std::size_t n) {
  std::vector<std::uint32_t> w(n, 0);
  const auto limbs = v.limbs();
  for (std::size_t i = 0; i < limbs.size() && i < n; ++i) w[i] = limbs[i];
  return w;
}

/// Field-op mix of the `index`-th point multiplication of a transaction
/// on `curve` (index 0 is the shared kP mix seed 0x7AB1E4; higher
/// indices draw successive deterministic scalars).
ec::FieldOpCounts derive_mix(const CurveRef& curve, unsigned index) {
  if (curve.binary_field) {
    if (index == 0) return kp_mix_sect233k1();
    Rng rng(0x7AB1E4 + index);
    const auto& k233 = ec::BinaryCurve::sect233k1();
    const ec::AffinePoint g = ec::AffinePoint::make(k233.gx, k233.gy);
    const mpint::UInt k = mpint::UInt::random_below(rng, k233.order);
    const ec::CostedRun costed =
        ec::cost_point_mul(k233, g, k, 4, false, ec::FieldCostTable{});
    return costed.main_ops + costed.precomp_ops;
  }
  Rng rng(0x7AB1E4 + index);
  const ecp::PrimeCurve& pc = prime_curve(curve);
  const mpint::UInt k = mpint::UInt::random_below(rng, pc.order);
  const ecp::PrimeCostedRun costed = ecp::cost_point_mul_p(pc, k, 4);
  return {costed.ops.mul, costed.ops.sqr, costed.ops.inv, costed.ops.add};
}

const ec::FieldOpCounts& cached_mix(const CurveRef& curve, unsigned index) {
  static std::mutex mu;
  static std::map<std::string, ec::FieldOpCounts> cache;
  std::lock_guard<std::mutex> lock(mu);
  const std::string key = curve.name + "#" + std::to_string(index);
  auto it = cache.find(key);
  if (it == cache.end()) it = cache.emplace(key, derive_mix(curve, index)).first;
  return it->second;
}

void mix64(std::uint64_t& h, std::uint32_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
}

}  // namespace

const ecp::PrimeCurve& prime_curve(const CurveRef& curve) {
  if (curve.name == "secp192r1") return ecp::PrimeCurve::secp192r1();
  if (curve.name == "secp224r1") return ecp::PrimeCurve::secp224r1();
  if (curve.name == "secp256r1") return ecp::PrimeCurve::secp256r1();
  throw std::invalid_argument("no prime curve for " + curve.name);
}

const CurveRef& curve_from_name(const std::string& name) {
  for (const CurveRef& c : curve_table()) {
    if (c.name == name) return c;
  }
  std::string known;
  for (const CurveRef& c : curve_table()) {
    if (!known.empty()) known += ", ";
    known += c.name;
  }
  throw std::invalid_argument("unknown curve '" + name + "' (known: " + known +
                              ")");
}

std::vector<std::string> workload_curve_names() {
  std::vector<std::string> out;
  for (const CurveRef& c : curve_table()) out.push_back(c.name);
  std::sort(out.begin(), out.end());
  return out;
}

const ec::FieldOpCounts& op_mix(const CurveRef& curve) {
  return cached_mix(curve, 0);
}

WorkloadSpec make_workload(const std::string& transaction,
                           const std::string& curve_name) {
  unsigned muls = 0;
  if (transaction == "kp") {
    muls = 1;
  } else if (transaction == "ecdh") {
    muls = 2;  // keygen kG + shared-secret kP (one party)
  } else if (transaction == "ecdsa") {
    muls = 3;  // sign nonce kG + verify u1*G, u2*Q
  } else {
    throw std::invalid_argument("unknown transaction '" + transaction +
                                "' (known: kp, ecdh, ecdsa)");
  }
  const CurveRef& curve = curve_from_name(curve_name);
  WorkloadSpec s;
  s.name = transaction + "-" + curve.name;
  s.curve = curve;
  s.transaction = transaction;
  s.point_muls = muls;
  if (curve.binary_field) {
    s.mul_kernel = "mul";
    s.sqr_kernel = "sqr";
    s.inv_kernel = "inv";
  } else {
    s.mul_kernel = curve.kernel_tag + "-mont";
    s.sqr_kernel = curve.kernel_tag + "-sqr";
    s.inv_kernel = curve.kernel_tag + "-inv";
  }
  for (unsigned i = 0; i < muls; ++i) {
    const ec::FieldOpCounts& m = cached_mix(curve, i);
    s.ops.mul += m.mul;
    s.ops.sqr += m.sqr;
    s.ops.inv += m.inv;
    s.ops.add += m.add;
  }
  return s;
}

WorkloadSpec kp_workload(const std::string& c) { return make_workload("kp", c); }
WorkloadSpec ecdh_workload(const std::string& c) {
  return make_workload("ecdh", c);
}
WorkloadSpec ecdsa_workload(const std::string& c) {
  return make_workload("ecdsa", c);
}

const PrimeOperands& PrimeOperands::standard(const CurveRef& curve) {
  static std::mutex mu;
  static std::map<std::string, PrimeOperands> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(curve.name);
  if (it == cache.end()) {
    const ecp::PrimeCurve& pc = prime_curve(curve);
    const std::size_t n = curve.limbs;
    Rng rng(0x7151CA7);
    PrimeOperands o;
    // Any residue < p is a valid Montgomery-domain element.
    o.x = to_words(mpint::UInt::random_below(rng, pc.p), n);
    o.y = to_words(mpint::UInt::random_below(rng, pc.p), n);
    mpint::UInt a = mpint::UInt::random_below(rng, pc.p);
    if (a.is_zero()) a = mpint::UInt(1);
    o.a = to_words(a, n);
    // REDC input must stay below m*R (any Montgomery intermediate does).
    const mpint::UInt bound = pc.p << (32 * n);
    o.wide = to_words(mpint::UInt::random_below(rng, bound), 2 * n);
    it = cache.emplace(curve.name, std::move(o)).first;
  }
  return it->second;
}

void load_prime_modulus(armvm::Memory& mem, const CurveRef& curve) {
  const ecp::PrimeCurve& pc = prime_curve(curve);
  const std::vector<std::uint32_t> m = to_words(pc.p, curve.limbs);
  for (std::size_t w = 0; w < m.size(); ++w) {
    mem.poke32(armvm::kRamBase + asmkernels::kPModOff + 4 * w, m[w]);
  }
  mem.poke32(armvm::kRamBase + asmkernels::kPM0Off, pc.mont->m0_inv());
}

void load_prime_mul_inputs(armvm::Memory& mem,
                           const std::vector<std::uint32_t>& x,
                           const std::vector<std::uint32_t>& y) {
  for (std::size_t w = 0; w < x.size(); ++w) {
    mem.poke32(armvm::kRamBase + asmkernels::kXOff + 4 * w, x[w]);
  }
  for (std::size_t w = 0; w < y.size(); ++w) {
    mem.poke32(armvm::kRamBase + asmkernels::kYOff + 4 * w, y[w]);
  }
}

void load_prime_inv_input(armvm::Memory& mem,
                          const std::vector<std::uint32_t>& a) {
  for (std::size_t w = 0; w < a.size(); ++w) {
    mem.poke32(armvm::kRamBase + asmkernels::kInOff + 4 * w, a[w]);
  }
}

void load_prime_wide_input(armvm::Memory& mem,
                           const std::vector<std::uint32_t>& wide) {
  for (std::size_t w = 0; w < wide.size(); ++w) {
    mem.poke32(armvm::kRamBase + asmkernels::kWideOff + 4 * w, wide[w]);
  }
}

ReplayImages ReplayImages::resolve(const WorkloadSpec& spec) {
  return ReplayImages{kernel(spec.mul_kernel), kernel(spec.sqr_kernel),
                      kernel(spec.inv_kernel)};
}

namespace {

constexpr std::uint64_t kNoFailure = ~std::uint64_t{0};

/// replay() calls running in this process.
std::atomic<unsigned> replays_in_flight{0};

/// Counts one replay in flight for its lifetime and remembers how many
/// others were running when it started.
class InFlight {
 public:
  InFlight() : others_(replays_in_flight.fetch_add(1)) {}
  ~InFlight() { replays_in_flight.fetch_sub(1); }
  InFlight(const InFlight&) = delete;
  InFlight& operator=(const InFlight&) = delete;

  unsigned others() const { return others_; }

 private:
  unsigned others_;
};

/// Where `stream`'s calls of rep `rep` fall in a serial replay, which
/// makes rep 0's mul, sqr and inv calls, then rep 1's, and so on.
std::uint64_t serial_position(unsigned rep, KernelStream stream) {
  return std::uint64_t{rep} * kKernelStreams + static_cast<unsigned>(stream);
}

const armvm::ProgramRef& stream_image(const ReplayImages& images,
                                      KernelStream stream) {
  switch (stream) {
    case KernelStream::kMul: return images.mul;
    case KernelStream::kSqr: return images.sqr;
    case KernelStream::kInv: break;
  }
  return images.inv;
}

std::uint64_t calls_per_rep(const WorkloadSpec& spec, KernelStream stream) {
  switch (stream) {
    case KernelStream::kMul: return spec.ops.mul;
    case KernelStream::kSqr: return spec.ops.sqr;
    case KernelStream::kInv: break;
  }
  return spec.ops.inv;
}

void load_stream_inputs(armvm::Memory& mem, const WorkloadSpec& spec,
                        KernelStream stream) {
  if (spec.curve.binary_field) {
    // The binary inv input is loaded before every call (run_stream).
    const KernelOperands& od = KernelOperands::standard();
    if (stream == KernelStream::kMul) load_mul_inputs(mem, od.x, od.y);
    if (stream == KernelStream::kSqr) {
      load_sqr_table(mem);
      load_sqr_input(mem, od.a);
    }
    return;
  }
  const PrimeOperands& od = PrimeOperands::standard(spec.curve);
  load_prime_modulus(mem, spec.curve);
  if (stream == KernelStream::kInv) {
    load_prime_inv_input(mem, od.a);
  } else {
    load_prime_mul_inputs(mem, od.x, od.y);
  }
}

StreamReplay stream_result(KernelMachine& m, const WorkloadSpec& spec,
                           KernelStream stream) {
  StreamReplay r;
  r.stats = m.cpu().stats();
  r.fused_retired = m.cpu().fused_retired();
  // The binary multiply leaves its reduced product at kVOff; every other
  // kernel (the Montgomery ones reduce in place) writes kOutOff.
  const std::uint32_t off =
      spec.curve.binary_field && stream == KernelStream::kMul
          ? asmkernels::kVOff
          : asmkernels::kOutOff;
  r.output.resize(spec.curve.binary_field ? 8 : spec.curve.limbs);
  for (std::size_t w = 0; w < r.output.size(); ++w) {
    r.output[w] = m.mem().load32(armvm::kRamBase + off + 4 * w);
  }
  return r;
}

/// Runs `stream` on a fresh machine: reps [0, reps) of its calls, in
/// order, tracking the rep in `rep` so a caller that catches a failure
/// knows where it fell. Before each call it reads `first_failure`, the
/// earliest serial position at which a stream of the same replay has
/// failed, and stops once its own position is later: the serial replay
/// would have thrown before making that call.
StreamReplay run_stream(const WorkloadSpec& spec, const ReplayImages& images,
                        KernelStream stream, armvm::Cpu::DecodeMode mode,
                        const armvm::MemModelConfig& mem_model, unsigned reps,
                        const std::atomic<std::uint64_t>& first_failure,
                        unsigned& rep) {
  KernelMachine m(stream_image(images, stream), mode, mem_model);
  load_stream_inputs(m.mem(), spec, stream);
  const std::uint64_t calls = calls_per_rep(spec, stream);
  // The gf2 EEA kernel consumes its scratch state; re-seed so every
  // inversion runs the same trace.
  const bool reseed = spec.curve.binary_field && stream == KernelStream::kInv;
  for (rep = 0; rep < reps; ++rep) {
    const std::uint64_t position = serial_position(rep, stream);
    for (std::uint64_t i = 0; i < calls; ++i) {
      if (position > first_failure.load(std::memory_order_relaxed)) {
        return {};
      }
      if (reseed) load_inv_input(m.mem(), KernelOperands::standard().a);
      m.call();
    }
  }
  return stream_result(m, spec, stream);
}

}  // namespace

StreamReplay replay_stream(const WorkloadSpec& spec, const ReplayImages& images,
                           KernelStream stream, armvm::Cpu::DecodeMode mode,
                           const armvm::MemModelConfig& mem_model,
                           unsigned reps) {
  const std::atomic<std::uint64_t> no_failure{kNoFailure};
  unsigned rep = 0;
  return run_stream(spec, images, stream, mode, mem_model, reps, no_failure,
                    rep);
}

ReplayResult merge_streams(
    const std::array<StreamReplay, kKernelStreams>& streams) {
  ReplayResult r;
  for (const StreamReplay& s : streams) {
    r.stats.instructions += s.stats.instructions;
    r.stats.cycles += s.stats.cycles;
    r.stats.histogram += s.stats.histogram;
    r.fused_retired += s.fused_retired;
  }
  const std::size_t words = streams[0].output.size();
  for (std::size_t w = 0; w < words; ++w) {
    for (const StreamReplay& s : streams) {
      mix64(r.output_digest, s.output.at(w));
    }
  }
  return r;
}

ReplayResult replay(const WorkloadSpec& spec, armvm::Cpu::DecodeMode mode,
                    const armvm::MemModelConfig& mem_model, unsigned reps) {
  return replay(spec, ReplayImages::resolve(spec), mode, mem_model, reps);
}

ReplayResult replay(const WorkloadSpec& spec, const ReplayImages& images,
                    armvm::Cpu::DecodeMode mode,
                    const armvm::MemModelConfig& mem_model, unsigned reps) {
  std::array<StreamReplay, kKernelStreams> streams;
  // Each task keeps its own failure: BatchExecutor's lowest-index rule
  // would pick mul over an earlier-rep sqr or inv failure once reps > 1.
  // A rejected memory model fails every stream's set-up, at rep 0, so
  // mul's is rethrown, as in the serial replay.
  std::atomic<std::uint64_t> first_failure{kNoFailure};
  std::array<std::exception_ptr, kKernelStreams> errors;
  std::array<std::uint64_t, kKernelStreams> failed_at{};
  // Each replay in flight gets an equal share of the host's hardware
  // threads, at least one. A lone caller spreads its streams over idle
  // cores; serve workers that already fill the cores run theirs inline,
  // where extra threads would only contend for them.
  const InFlight in_flight;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const sim::BatchExecutor pool(
      std::max(1u, cores / (in_flight.others() + 1)));
  pool.for_each(kKernelStreams, [&](std::uint64_t s) {
    const auto stream = static_cast<KernelStream>(s);
    unsigned rep = 0;
    try {
      streams[s] = run_stream(spec, images, stream, mode, mem_model, reps,
                              first_failure, rep);
    } catch (...) {
      errors[s] = std::current_exception();
      failed_at[s] = serial_position(rep, stream);
      std::uint64_t seen = first_failure.load();
      while (failed_at[s] < seen &&
             !first_failure.compare_exchange_weak(seen, failed_at[s])) {
      }
    }
  });
  for (unsigned s = 0; s < kKernelStreams; ++s) {
    if (errors[s] && failed_at[s] == first_failure.load()) {
      std::rethrow_exception(errors[s]);
    }
  }
  return merge_streams(streams);
}

}  // namespace eccm0::workloads
