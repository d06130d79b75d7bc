#include "faultsim/campaign.h"

#include <algorithm>
#include <functional>
#include <span>

#include "asmkernels/gen.h"
#include "ecp/costing.h"
#include "ecp/ops.h"
#include "faultsim/biterr.h"
#include "gf2/k233.h"
#include "relic_like/costs.h"
#include "sim/batch.h"
#include "telemetry/metrics.h"
#include "telemetry/progress.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

namespace eccm0::faultsim {

using ec::AffinePoint;
using ec::CurveOps;
using mpint::UInt;

void OutcomeTally::add(Outcome o) {
  switch (o) {
    case Outcome::kCorrect: ++correct; break;
    case Outcome::kDetected: ++detected; break;
    case Outcome::kCrashed: ++crashed; break;
    case Outcome::kSilentWrong: ++silent; break;
  }
}

void MemOutcomeTally::add(MemOutcome o) {
  switch (o) {
    case MemOutcome::kCorrect: ++correct; break;
    case MemOutcome::kCorrected: ++corrected; break;
    case MemOutcome::kDetected: ++detected; break;
    case MemOutcome::kCrashed: ++crashed; break;
    case MemOutcome::kSilentWrong: ++silent; break;
  }
}

const std::array<ProtectionProfile, kNumProfiles>& protection_profiles() {
  static const std::array<ProtectionProfile, kNumProfiles> kProfiles = {{
      {"none", ec::ProtectOpts::none()},
      {"validate-input", {true, false, false}},
      {"+recheck-result", {true, true, false}},
      {"+order-check", ec::ProtectOpts::all()},
  }};
  return kProfiles;
}

namespace {

/// The mul kernel's data region: product + operands + LUT
/// (gen.h layout, 0x000..0x280). RAM flips land here.
constexpr std::uint32_t kKernelDataWords = asmkernels::kSqrTabOff / 4;
constexpr std::size_t kKernelRamSize = 0x800;
/// A clean kernel call retires a few thousand instructions (`mul` 3126,
/// `p192-mont` 3647); anything past this looped.
constexpr std::uint64_t kKernelBudget = 200'000;
/// A spec whose trigger never comes: the kernel runs clean.
constexpr FaultSpec kNoFault{.index = ~std::uint64_t{0}};

/// Thrown out of the tamper hook when the injected kernel run crashed,
/// unwinding the whole scalar multiplication the way a node reset would.
struct CrashSignal {};

/// Everything one spliced kP run observes; enough to classify it under
/// every (memory model, countermeasure profile) pair.
struct RunObservation {
  bool crashed = false;    ///< non-integrity armvm::Fault or watchdog
  bool integrity = false;  ///< MemoryIntegrityFault (hardware detection)
  bool vm_injected = false;
  bool wrong = false;
  bool inf = false;
  bool oncurve = true;
  bool order_ok = true;
  bool collapsed = false;
  std::uint64_t flipped = 0;
  std::uint64_t hw_corrections = 0;
  std::uint64_t scrub_corrections = 0;
  /// Simulated cycles of the VM kernel run (captured even when it
  /// crashed) — deterministic, unlike wall time, so it can feed a
  /// manifest histogram.
  std::uint64_t vm_cycles = 0;
};

void record_vm_cycles(telemetry::MetricsRegistry& metrics,
                      const std::string& name,
                      std::span<const RunObservation> observations) {
  telemetry::Histogram cycles;
  for (const RunObservation& obs : observations) cycles.record(obs.vm_cycles);
  metrics.merge_histogram(name, telemetry::Unit::kCycles, cycles);
}

/// The countermeasure rule of ec::scalarmul_protected: whether profile
/// `o` refuses the wrong result `obs` describes.
bool refuses(const ec::ProtectOpts& o, const RunObservation& obs) {
  // The protected path refuses an off-curve result, an impossible
  // identity (kP = inf with validated 0 < k < n), and a mid-loop
  // identity collapse (whose rebuilt endpoint is a valid wrong point
  // the two end checks cannot see).
  if (o.recheck_result && (obs.inf || !obs.oncurve || obs.collapsed)) {
    return true;
  }
  return o.order_check && obs.oncurve && !obs.inf && !obs.order_ok;
}

std::uint64_t priced_cycles(const ec::FieldOpCounts& ops,
                            const ec::FieldCostTable& t) {
  return ops.mul * (t.mul + t.call_overhead) +
         ops.sqr * (t.sqr + t.call_overhead) +
         ops.inv * (t.inv + t.call_overhead) +
         ops.add * (t.fadd + t.call_overhead);
}

/// FieldCostTable view of the n-limb prime-field cost model, so both
/// families price their profile-overhead column through priced_cycles.
ec::FieldCostTable prime_cost_table(std::size_t limbs) {
  const ecp::PrimeFieldCosts pc = ecp::m0plus_prime_costs(limbs);
  ec::FieldCostTable t;
  t.name = "m0plus-prime";
  t.mul = pc.mul;
  t.sqr = pc.sqr;
  t.inv = pc.inv;
  t.fadd = pc.add;
  t.call_overhead = pc.call_overhead;
  t.pj_per_cycle = pc.pj_per_cycle;
  return t;
}

/// A uniform nonzero scalar below `order`.
UInt nonzero_below(Rng& rng, const UInt& order) {
  UInt v;
  do {
    v = UInt::random_below(rng, order);
  } while (v.is_zero());
  return v;
}

/// The kernel operand words of a GF(2^233) element.
std::span<const std::uint32_t> fe_words(const gf2::Elem& e) {
  return {e.data(), gf2::k233::kWords};
}

/// Prime-side counts as the FieldOpCounts both families are priced in.
ec::FieldOpCounts field_counts(const ecp::PrimeOpCounts& c) {
  return {c.mul, c.sqr, c.inv, c.add};
}

/// A Horner step of the golden kP that multiplies: where a resumed run
/// starts.
template <typename Acc>
struct Checkpoint {
  std::size_t pos = 0;    ///< the digit position the step processes
  std::uint64_t mul = 0;  ///< golden fmul index at the step's start
  Acc acc;                ///< the accumulator at the step's start
};

/// The last checkpoint at or before golden multiplication `target`, or
/// nullptr when `target` lies in the table build.
template <typename Acc>
const Checkpoint<Acc>* resume_point(const std::vector<Checkpoint<Acc>>& cps,
                                    std::uint64_t target) {
  const auto after = std::upper_bound(
      cps.begin(), cps.end(), target,
      [](std::uint64_t t, const Checkpoint<Acc>& c) { return t < c.mul; });
  return after == cps.begin() ? nullptr : &*std::prev(after);
}

}  // namespace

/// The spliced-kP experiment, on either field family. One seed fixes
/// (P, k) and the golden kP; an observed run computes that kP with the
/// curve's production scalar multiplication (wTNAF on sect233k1,
/// Jacobian wNAF on the secp curves) natively, except that one field
/// multiplication runs on the VM kernel (fixed-register LD or
/// Montgomery) and whatever comes out of it is spliced back. Up to that
/// multiplication a run is the golden kP, so a run faulting a Horner
/// step resumes from the golden accumulator at that step.
class GoldenKp {
 public:
  /// The caller's kernel run: executes kernel() on RAM that already
  /// holds the operands and says how it ended.
  using KernelRun = std::function<InjectedRun(armvm::Memory&)>;

  GoldenKp(const std::string& curve, std::uint64_t seed);

  const armvm::ProgramRef& kernel() const { return kernel_; }
  /// Field multiplications in one clean kP: the splice target space.
  std::uint64_t muls_per_kp() const { return muls_per_kp_; }
  /// The kernel's live RAM, in words: the RAM-flip target region.
  std::uint32_t data_words() const { return data_words_; }

  /// One clean kernel call under `model` on P's coordinates: a
  /// representative multiplication of the golden kP.
  armvm::RunStats clean_call(const armvm::MemModelConfig& model,
                             armvm::Cpu::DecodeMode engine) const;

  /// Compute kP with field multiplication `target` done by `run_kernel`
  /// on fresh RAM under `model`. Pure in its arguments over immutable
  /// state, so any thread can observe any run. A target in the table
  /// build runs the whole kP; a later one resumes at the last checkpoint
  /// at or before it, on the golden table.
  RunObservation observe(std::uint64_t target,
                         const armvm::MemModelConfig& model,
                         const KernelRun& run_kernel) const;

  /// Clean-run field-op counts of each profile priced with `prices`:
  /// the golden kP's counts plus those of each check the profile
  /// enables, each counted once on fresh ops.
  std::array<ProfileCost, kNumProfiles> profile_costs(
      const ec::FieldCostTable& prices) const;

 private:
  bool prime() const { return pcurve_ != nullptr; }
  /// Fresh kernel RAM under `model` holding operands `a` and `b` (and
  /// the prime modulus block), written through the harness path: the
  /// loads charge no wait states and do not tick the scrub clock.
  armvm::Memory load(const armvm::MemModelConfig& model,
                     std::span<const std::uint32_t> a,
                     std::span<const std::uint32_t> b) const;
  /// The kernel operand words of a GF(p) element (zero padded).
  std::vector<std::uint32_t> limbs(const UInt& v) const;
  /// One kernel call on `a`, `b`: the product words to splice back, or
  /// CrashSignal when the run or the readout failed.
  std::vector<std::uint32_t> run_spliced(std::span<const std::uint32_t> a,
                                         std::span<const std::uint32_t> b,
                                         const armvm::MemModelConfig& model,
                                         const KernelRun& run_kernel,
                                         RunObservation& obs) const;

  const workloads::CurveRef& ref_;
  const ec::BinaryCurve& curve_;
  const ecp::PrimeCurve* pcurve_ = nullptr;  ///< set on the prime family
  armvm::ProgramRef kernel_;
  std::uint32_t data_words_ = 0;
  std::uint32_t product_off_ = 0;     ///< product words in kernel RAM
  std::size_t product_words_ = 0;
  std::uint64_t muls_per_kp_ = 0;
  /// Field-op counts of the golden kP, affine conversion included.
  ec::FieldOpCounts kp_counts_;
  /// k recoded once for every run: width-4 TNAF digits of k partmod
  /// delta (binary) or width-4 NAF digits (prime).
  std::vector<int> k_digits_;
  AffinePoint p_;                     ///< binary family
  ec::WtnafTable table_;
  std::vector<Checkpoint<ec::LDPoint>> checkpoints_;
  ec::LDPoint golden_ld_;             ///< the Horner loop's result
  AffinePoint golden_;
  ecp::AffinePointP pp_;              ///< prime family
  ecp::WnafTableP ptable_;
  std::vector<Checkpoint<ecp::JacobianPoint>> pcheckpoints_;
  ecp::AffinePointP pgolden_;
};

// The RNG consumption order below is load-bearing: it reproduces the
// stream every committed campaign baseline was drawn from.
GoldenKp::GoldenKp(const std::string& curve, std::uint64_t seed)
    : ref_(workloads::curve_from_name(curve)),
      curve_(ec::BinaryCurve::sect233k1()) {
  Rng rng(seed);
  if (!ref_.binary_field) {
    pcurve_ = &workloads::prime_curve(ref_);
    kernel_ = workloads::kernel(ref_.kernel_tag + "-mont");
    // RAM flips may land anywhere in the prime layout's live data
    // (product..modulus block).
    data_words_ = (asmkernels::kPM0Off + 4) / 4;
    product_off_ = asmkernels::kOutOff;
    product_words_ = ref_.limbs;
    ecp::PrimeCurveOps ops(*pcurve_);
    pp_ = ecp::mul_wnaf_p(ops, ops.generator(),
                          nonzero_below(rng, pcurve_->order), 4);
    k_digits_ = mpint::wnaf_digits(nonzero_below(rng, pcurve_->order), 4);
    // The golden kP runs on fresh ops, so its multiplication count is
    // the splice target space (the affine conversion included). The
    // Horner loop runs one digit at a time, with a checkpoint at every
    // step: each one doubles.
    ecp::PrimeCurveOps golden_ops(*pcurve_);
    ptable_ = ecp::make_wnaf_table_p(golden_ops, pp_, 4);
    const std::span<const int> digits(k_digits_);
    ecp::JacobianPoint q = ecp::JacobianPoint::infinity();
    for (std::size_t i = digits.size(); i-- > 0;) {
      pcheckpoints_.push_back({i, golden_ops.counts().mul, q});
      q = ecp::mul_wnaf_jac(golden_ops, ptable_, digits.subspan(i, 1),
                            nullptr, q);
    }
    pgolden_ = golden_ops.to_affine(q);
    muls_per_kp_ = golden_ops.counts().mul;
    kp_counts_ = field_counts(golden_ops.counts());
    return;
  }
  if (ref_.name != "sect233k1") {
    throw std::invalid_argument("faultsim: unsupported binary curve '" +
                                ref_.name + "'");
  }
  kernel_ = workloads::kernel("mul");
  data_words_ = kKernelDataWords;
  product_off_ = asmkernels::kVOff;
  product_words_ = gf2::k233::kWords;
  // Seed-derived experiment point and scalar (both kept fixed across the
  // campaign so every injection perturbs the same golden computation).
  CurveOps ops(curve_);
  p_ = ec::mul_wtnaf(ops, AffinePoint::make(curve_.gx, curve_.gy),
                     nonzero_below(rng, curve_.order), 4);
  const UInt k = nonzero_below(rng, curve_.order);
  k_digits_ = ec::wtnaf_digits(ec::partmod(k, curve_), curve_.mu, 4);
  // The golden kP on fresh ops: the fmul calls of its table build and
  // Horner loop are the sample space for which multiplication gets the
  // fault (the final normalisation is outside it). The loop runs one
  // digit at a time, with a checkpoint at every nonzero digit: a
  // Frobenius step only squares.
  CurveOps golden_ops(curve_);
  table_ = ec::make_wtnaf_table(golden_ops, p_, 4);
  const std::span<const int> digits(k_digits_);
  ec::LDPoint q = ec::LDPoint::infinity();
  for (std::size_t i = digits.size(); i-- > 0;) {
    if (digits[i] != 0) {
      checkpoints_.push_back({i, golden_ops.counts().mul, q});
    }
    q = ec::mul_wtnaf_ld(golden_ops, table_, digits.subspan(i, 1), nullptr,
                         q);
  }
  muls_per_kp_ = golden_ops.counts().mul;
  golden_ld_ = q;
  golden_ = golden_ops.to_affine(q);
  kp_counts_ = golden_ops.counts();
}

std::vector<std::uint32_t> GoldenKp::limbs(const UInt& v) const {
  std::vector<std::uint32_t> w(ref_.limbs, 0);
  const auto l = v.limbs();
  std::copy_n(l.begin(), std::min(l.size(), w.size()), w.begin());
  return w;
}

armvm::Memory GoldenKp::load(const armvm::MemModelConfig& model,
                             std::span<const std::uint32_t> a,
                             std::span<const std::uint32_t> b) const {
  armvm::Memory mem(kKernelRamSize, model);
  if (prime()) workloads::load_prime_modulus(mem, ref_);
  mem.write_words(armvm::kRamBase + asmkernels::kXOff, a);
  mem.write_words(armvm::kRamBase + asmkernels::kYOff, b);
  return mem;
}

armvm::RunStats GoldenKp::clean_call(const armvm::MemModelConfig& model,
                                     armvm::Cpu::DecodeMode engine) const {
  armvm::Memory mem = prime() ? load(model, limbs(pp_.x), limbs(pp_.y))
                              : load(model, fe_words(p_.x), fe_words(p_.y));
  armvm::Cpu cpu(kernel_, mem, engine);
  return cpu.call(kernel_->entry("entry"), {}, kKernelBudget);
}

std::vector<std::uint32_t> GoldenKp::run_spliced(
    std::span<const std::uint32_t> a, std::span<const std::uint32_t> b,
    const armvm::MemModelConfig& model, const KernelRun& run_kernel,
    RunObservation& obs) const {
  armvm::Memory mem = load(model, a, b);
  const InjectedRun vm = run_kernel(mem);
  obs.vm_injected = vm.injected;
  obs.vm_cycles = vm.cycles;
  std::vector<std::uint32_t> product;
  if (vm.outcome == RunOutcome::kCrashed) {
    obs.integrity = vm.fault_kind == armvm::FaultKind::kMemoryIntegrity;
  } else {
    try {
      product = mem.read_words(armvm::kRamBase + product_off_, product_words_);
    } catch (const armvm::MemoryIntegrityFault&) {
      // The product word itself is rotten: detected at readout.
      obs.integrity = true;
    }
  }
  // Read after the product: a readout that decodes a correctable word
  // counts a correction too.
  obs.hw_corrections = mem.corrections();
  obs.scrub_corrections = mem.scrub_corrections();
  if (product.empty()) throw CrashSignal{};
  return product;
}

RunObservation GoldenKp::observe(std::uint64_t target,
                                 const armvm::MemModelConfig& model,
                                 const KernelRun& run_kernel) const {
  RunObservation obs;
  bool fired = false;
  const std::span<const int> digits(k_digits_);
  try {
    if (prime()) {
      const auto* cp = resume_point(pcheckpoints_, target);
      // The fresh ops number their multiplications from the resume
      // point.
      const std::uint64_t local = cp != nullptr ? target - cp->mul : target;
      ecp::PrimeCurveOps ops(*pcurve_);
      ops.set_mul_tamper([&](std::uint64_t idx, const ecp::Fe& a,
                             const ecp::Fe& b, ecp::Fe& out) {
        if (fired || idx != local) return;
        fired = true;
        // The splice boundary reduces the (possibly faulted) raw kernel
        // output into [0, p): the host Montgomery oracle's add/sub
        // assume reduced operands, and a fault that escapes the field
        // is still a wrong in-field value afterwards.
        const std::span<const std::uint32_t> aw(a.data(), ref_.limbs);
        const std::span<const std::uint32_t> bw(b.data(), ref_.limbs);
        out = pcurve_->mont->load(
            UInt(run_spliced(aw, bw, model, run_kernel, obs)) % pcurve_->p);
      });
      // The golden prefix never collapses, so a resumed run starts with
      // the flag clear, as the whole run would reach that step.
      const ecp::AffinePointP q = ops.to_affine(
          cp != nullptr
              ? ecp::mul_wnaf_jac(ops, ptable_, digits.first(cp->pos + 1),
                                  &obs.collapsed, cp->acc)
              : ecp::mul_wnaf_jac(ops, ecp::make_wnaf_table_p(ops, pp_, 4),
                                  digits, &obs.collapsed));
      obs.inf = q.inf;
      obs.oncurve = q.inf ? true : ops.on_curve(q);
      obs.wrong = !ops.eq(q, pgolden_);
      if (obs.wrong && obs.oncurve && !obs.inf) {
        // Doubling-based order check, as on the binary side.
        obs.order_ok = ecp::mul_wnaf_p(ops, q, pcurve_->order, 4).inf;
      }
    } else {
      const auto* cp = resume_point(checkpoints_, target);
      const std::uint64_t local = cp != nullptr ? target - cp->mul : target;
      CurveOps ops(curve_);
      ops.set_mul_tamper([&](std::uint64_t idx, const gf2::Elem& a,
                             const gf2::Elem& b, gf2::Elem& out) {
        if (fired || idx != local) return;
        fired = true;
        const std::vector<std::uint32_t> product =
            run_spliced(fe_words(a), fe_words(b), model, run_kernel, obs);
        out = {};
        std::copy(product.begin(), product.end(), out.begin());
      });
      ec::LDPoint q_ld;
      if (cp != nullptr) {
        q_ld = ec::mul_wtnaf_ld(ops, table_, digits.first(cp->pos + 1),
                                &obs.collapsed, cp->acc);
      } else {
        const ec::WtnafTable t =
            ec::make_wtnaf_table(ops, p_, 4, &obs.collapsed);
        q_ld = ec::mul_wtnaf_ld(ops, t, digits, &obs.collapsed);
      }
      obs.inf = q_ld.is_inf();
      obs.oncurve = ops.on_curve_ld(q_ld);
      const AffinePoint q = ops.to_affine(q_ld);
      obs.wrong = !(q == golden_);
      if (obs.wrong && obs.oncurve && !obs.inf) {
        // Lazy: the order check only matters for the rare faults that
        // land back on the curve. Doubling-based on purpose — the
        // tau-adic expansion of n is all zeros, so mul_wtnaf(Q, n) would
        // pass everything (see protect.cpp).
        obs.order_ok =
            ec::mul_wnaf(ops, q, curve_.order, 4) == AffinePoint::infinity();
      }
    }
  } catch (const CrashSignal&) {
    obs.crashed = !obs.integrity;
  }
  return obs;
}

std::array<ProfileCost, kNumProfiles> GoldenKp::profile_costs(
    const ec::FieldCostTable& prices) const {
  // The clean run of a profile is the golden kP plus the checks it
  // enables (ec::scalarmul_protected's, or their prime-side
  // equivalents), and field-op counts add up.
  ec::FieldOpCounts validate, recheck, order;
  if (prime()) {
    const auto counted = [&](const auto& check) {
      ecp::PrimeCurveOps ops(*pcurve_);
      check(ops);
      return field_counts(ops.counts());
    };
    validate = counted([&](ecp::PrimeCurveOps& ops) { ops.on_curve(pp_); });
    recheck = counted([&](ecp::PrimeCurveOps& ops) { ops.on_curve(pgolden_); });
    order = counted([&](ecp::PrimeCurveOps& ops) {
      ecp::mul_wnaf_p(ops, pgolden_, pcurve_->order, 4);
    });
  } else {
    const auto counted = [&](const auto& check) {
      CurveOps ops(curve_);
      check(ops);
      return ops.counts();
    };
    validate = counted([&](CurveOps& ops) { ops.on_curve(p_); });
    recheck = counted([&](CurveOps& ops) { ops.on_curve_ld(golden_ld_); });
    order = counted(
        [&](CurveOps& ops) { ec::mul_wnaf(ops, golden_, curve_.order, 4); });
  }
  std::array<ProfileCost, kNumProfiles> out;
  const auto& profiles = protection_profiles();
  for (unsigned p = 0; p < kNumProfiles; ++p) {
    const ec::ProtectOpts& o = profiles[p].opts;
    out[p].ops = kp_counts_;
    if (o.validate_input) out[p].ops = out[p].ops + validate;
    if (o.recheck_result) out[p].ops = out[p].ops + recheck;
    if (o.order_check) out[p].ops = out[p].ops + order;
    out[p].cycles = priced_cycles(out[p].ops, prices);
    out[p].energy_uj =
        static_cast<double>(out[p].cycles) * prices.pj_per_cycle * 1e-6;
  }
  return out;
}

KpFaultCampaign::KpFaultCampaign(std::uint64_t seed,
                                 armvm::Cpu::DecodeMode engine,
                                 const std::string& curve)
    : seed_(seed),
      engine_(engine),
      golden_(std::make_unique<const GoldenKp>(curve, seed)) {
  // Clean kernel retirement count on P's coordinates: the injection
  // window for specs. The gf2 kernel is straight-line, so the count is
  // operand-independent; the Montgomery loop's carry propagation is
  // mildly data-dependent, but the window only needs a representative
  // bound — indices past the actual retirement simply never fire
  // (counted in `injected`).
  kernel_retires_ =
      golden_->clean_call(armvm::MemModelConfig::raw(), engine_).instructions;
}

KpFaultCampaign::~KpFaultCampaign() = default;

std::array<ModelResult, kNumFaultModels> KpFaultCampaign::run_models(
    std::uint64_t runs, unsigned threads) {
  sim::BatchExecutor pool(threads);
  pool.set_metrics(metrics_);
  // Per-model stream: a pure function of (seed, model). Run i of the
  // batch is run i % runs of model i / runs, and draws from child `run`
  // of its model's stream, so any thread can evaluate any run and the
  // campaign is independent of scheduling order.
  const auto model_of = [](std::uint64_t m) {
    return static_cast<FaultModel>(m);  // enum order: register..opcode
  };
  const auto model_stream = [&](FaultModel model) {
    return Rng(seed_ ^ (0x9E3779B97F4A7C15ull *
                        (static_cast<std::uint64_t>(model) + 2)));
  };
  const GoldenKp& golden = *golden_;
  const std::vector<RunObservation> observations = pool.map<RunObservation>(
      kNumFaultModels * runs, [&](std::uint64_t i) {
        const FaultModel model = model_of(i / runs);
        Rng rng = model_stream(model).split(i % runs);
        const std::uint64_t target = rng.next_below(golden.muls_per_kp());
        const FaultSpec spec =
            sample_spec(rng, model, kernel_retires_, golden.data_words());
        const RunObservation obs = golden.observe(
            target, armvm::MemModelConfig::raw(), [&](armvm::Memory& mem) {
              return run_with_fault(golden.kernel(), mem, spec,
                                    kKernelBudget, engine_);
            });
        if (progress_ != nullptr) progress_->tick();
        return obs;
      });

  // Tally each model serially in run order, so the result is
  // byte-for-byte the same whatever the worker count.
  std::array<ModelResult, kNumFaultModels> out;
  const auto& profiles = protection_profiles();
  for (unsigned m = 0; m < kNumFaultModels; ++m) {
    ModelResult& res = out[m];
    res.model = model_of(m);
    res.runs = runs;
    const std::span<const RunObservation> model_obs =
        std::span(observations).subspan(m * runs, runs);
    for (const RunObservation& obs : model_obs) {
      if (obs.vm_injected) ++res.injected;
      for (unsigned p = 0; p < kNumProfiles; ++p) {
        Outcome outcome;
        if (obs.crashed) {
          outcome = Outcome::kCrashed;
        } else if (!obs.wrong) {
          outcome = Outcome::kCorrect;
        } else {
          outcome = refuses(profiles[p].opts, obs) ? Outcome::kDetected
                                                   : Outcome::kSilentWrong;
        }
        res.per_profile[p].add(outcome);
      }
    }

    if (metrics_ != nullptr) {
      // Recorded here, in serial run order, from deterministic per-run
      // observations — so the snapshot is the same for any thread count.
      const std::string prefix =
          std::string("campaign.kp.") + fault_model_name(res.model) + ".";
      metrics_->counter(prefix + "runs").add(runs);
      metrics_->counter(prefix + "injected").add(res.injected);
      for (unsigned p = 0; p < kNumProfiles; ++p) {
        const std::string pp = prefix + profiles[p].name + ".";
        const OutcomeTally& t = res.per_profile[p];
        metrics_->counter(pp + "correct").add(t.correct);
        metrics_->counter(pp + "detected").add(t.detected);
        metrics_->counter(pp + "crashed").add(t.crashed);
        metrics_->counter(pp + "silent-wrong").add(t.silent);
      }
      record_vm_cycles(*metrics_, "campaign.kp.vm_cycles", model_obs);
    }
  }
  return out;
}

std::array<ProfileCost, kNumProfiles> KpFaultCampaign::profile_costs(
    const ec::FieldCostTable& prices) const {
  return golden_->profile_costs(prices);
}

namespace {

/// Sweep every BER of `cfg` under one memory model, `runs_per_cell`
/// bit-error-injected kP runs per cell.
MemModelReport sweep_mem_model(const GoldenKp& golden,
                               const MemCampaignConfig& cfg,
                               const armvm::MemModelConfig& model) {
  MemModelReport rep;
  rep.config = model;

  // Clean-run cost of one mul kernel call under this model: the
  // codeword scheme's cycle/energy overhead with no errors injected.
  const armvm::RunStats clean = golden.clean_call(model, cfg.engine);
  rep.clean_cycles = clean.cycles;
  rep.clean_energy_pj = clean.energy().energy_pj;

  sim::BatchExecutor pool(cfg.threads);
  pool.set_metrics(cfg.metrics);
  const auto& profiles = protection_profiles();
  for (unsigned c = 0; c < cfg.bers.size(); ++c) {
    MemCell cell;
    cell.ber = cfg.bers[c];
    // Per-run stream: child `run` of the per-cell stream, a pure
    // function of (seed, model kind, cell index, run index).
    const Rng cell_stream(
        cfg.seed ^ (0x9E3779B97F4A7C15ull *
                    ((static_cast<std::uint64_t>(model.kind) + 2) * 64 + c)));
    const std::vector<RunObservation> observations =
        pool.map<RunObservation>(cfg.runs_per_cell, [&](std::uint64_t run) {
          Rng rng = cell_stream.split(run);
          const std::uint64_t target = rng.next_below(golden.muls_per_kp());
          std::uint64_t flipped = 0;
          RunObservation obs =
              golden.observe(target, model, [&](armvm::Memory& mem) {
                // Load-time injection: the storage is corrupted before
                // the core runs, so every engine sees the same image
                // (and the raw model's flips land directly in the
                // operands the kernel will read).
                flipped = inject_bit_errors(mem, cell.ber, rng).flipped_bits;
                return run_with_fault(golden.kernel(), mem, kNoFault,
                                      kKernelBudget, cfg.engine);
              });
          obs.flipped = flipped;
          if (cfg.progress != nullptr) cfg.progress->tick();
          return obs;
        });
    // Tally serially in run order — byte-identical for any worker count.
    for (const RunObservation& obs : observations) {
      cell.flipped_bits += obs.flipped;
      cell.hw_corrections += obs.hw_corrections;
      cell.scrub_corrections += obs.scrub_corrections;
      const bool repaired = obs.hw_corrections + obs.scrub_corrections > 0;
      for (unsigned p = 0; p < kNumProfiles; ++p) {
        MemOutcome outcome;
        if (obs.integrity) {
          // The memory system refused the data — detection regardless
          // of any software profile.
          outcome = MemOutcome::kDetected;
        } else if (obs.crashed) {
          outcome = MemOutcome::kCrashed;
        } else if (!obs.wrong) {
          outcome = repaired ? MemOutcome::kCorrected : MemOutcome::kCorrect;
        } else {
          outcome = refuses(profiles[p].opts, obs) ? MemOutcome::kDetected
                                                   : MemOutcome::kSilentWrong;
        }
        cell.per_profile[p].add(outcome);
      }
    }
    if (cfg.metrics != nullptr) {
      // Serial run-order tally of deterministic observations — summed
      // across cells, so one counter set per (model, profile, outcome).
      telemetry::MetricsRegistry& metrics = *cfg.metrics;
      const std::string prefix =
          std::string("campaign.mem.") + armvm::mem_model_name(model.kind) +
          ".";
      metrics.counter(prefix + "runs").add(cfg.runs_per_cell);
      metrics.counter(prefix + "flipped_bits").add(cell.flipped_bits);
      metrics.counter(prefix + "hw_corrections").add(cell.hw_corrections);
      metrics.counter(prefix + "scrub_corrections").add(cell.scrub_corrections);
      for (unsigned p = 0; p < kNumProfiles; ++p) {
        const std::string pp = prefix + profiles[p].name + ".";
        const MemOutcomeTally& t = cell.per_profile[p];
        metrics.counter(pp + "correct").add(t.correct);
        metrics.counter(pp + "corrected").add(t.corrected);
        metrics.counter(pp + "detected").add(t.detected);
        metrics.counter(pp + "crashed").add(t.crashed);
        metrics.counter(pp + "silent-wrong").add(t.silent);
      }
      record_vm_cycles(metrics, "campaign.mem.vm_cycles", observations);
    }
    rep.cells.push_back(cell);
  }
  return rep;
}

}  // namespace

MemCampaignResult run_mem_campaign(const MemCampaignConfig& config) {
  MemCampaignResult res;
  res.config = config;
  const GoldenKp golden(config.curve, config.seed);
  for (armvm::MemModelKind kind : config.models) {
    const armvm::MemModelConfig mc = armvm::MemModelConfig::for_kind(
        kind,
        kind == armvm::MemModelKind::kSecded ? config.scrub_interval : 0);
    res.models.push_back(sweep_mem_model(golden, config, mc));
  }
  return res;
}

CampaignResult run_kp_campaign(const CampaignConfig& config) {
  CampaignResult res;
  res.config = config;
  KpFaultCampaign campaign(config.seed, config.engine, config.curve);
  campaign.set_metrics(config.metrics);
  campaign.set_progress(config.progress);
  res.models = campaign.run_models(config.runs_per_model, config.threads);
  // Price the profile-overhead column with the matching field family's
  // cost model.
  const workloads::CurveRef& ref = workloads::curve_from_name(config.curve);
  res.costs = campaign.profile_costs(
      ref.binary_field ? relic_like::proposed_asm_costs()
                       : prime_cost_table(ref.limbs));
  return res;
}

}  // namespace eccm0::faultsim
