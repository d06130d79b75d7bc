// Fault-injection campaign against the paper's kP workload, on either
// field family.
//
// Each injected run computes k*P with the production scalar-mult path
// of the selected curve (wTNAF on sect233k1, Jacobian wNAF on the secp
// prime curves), but exactly one field multiplication inside it is
// executed on the armvm Thumb kernel (the fixed-register LD multiplier
// for GF(2^m), the Montgomery multiplier for GF(p)) under a seeded
// FaultSpec. The faulted product — or the crash — then
// propagates through the rest of the scalar multiplication exactly as
// it would on a glitched node. Up to that multiplication a run is the
// clean ("golden") kP, so it starts from the golden accumulator at the
// last Horner step before it rather than from the identity (runs that
// fault the table build compute the whole kP). Every run is classified
// against each countermeasure profile of ec::scalarmul_protected,
// producing the detection-coverage matrix (profile x fault model -> %
// silent corruption) that bench_fault_campaign prints.
//
// Determinism: one seed fixes (P, k), the golden result, the faulted
// multiplication's position and every FaultSpec. Same seed, same
// campaign, bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "armvm/memmodel.h"
#include "ec/costing.h"
#include "ec/protect.h"
#include "faultsim/inject.h"

namespace eccm0::telemetry {
class MetricsRegistry;
class ProgressMeter;
}

namespace eccm0::faultsim {

/// Classification of one injected kP run under one protection profile.
enum class Outcome : std::uint8_t {
  kCorrect,     ///< result equals the golden kP (fault absorbed / missed)
  kDetected,    ///< an enabled countermeasure refused the wrong result
  kCrashed,     ///< the core raised a typed armvm::Fault (or watchdog)
  kSilentWrong, ///< wrong result released with no indication — the loss
};

struct OutcomeTally {
  std::uint64_t correct = 0;
  std::uint64_t detected = 0;
  std::uint64_t crashed = 0;
  std::uint64_t silent = 0;

  std::uint64_t total() const { return correct + detected + crashed + silent; }
  double silent_rate() const {
    return total() == 0 ? 0.0
                        : static_cast<double>(silent) /
                              static_cast<double>(total());
  }
  void add(Outcome o);
};

/// Cumulative countermeasure profiles, weakest to strongest.
struct ProtectionProfile {
  const char* name;
  ec::ProtectOpts opts;
};
inline constexpr unsigned kNumProfiles = 4;
const std::array<ProtectionProfile, kNumProfiles>& protection_profiles();

/// Clean-run (no fault) cost of one profile, priced with a
/// FieldCostTable: what the countermeasures cost when nothing goes wrong.
struct ProfileCost {
  ec::FieldOpCounts ops;
  std::uint64_t cycles = 0;
  double energy_uj = 0.0;
};

struct ModelResult {
  FaultModel model = FaultModel::kRegisterFlip;
  std::uint64_t runs = 0;
  std::uint64_t injected = 0;  ///< runs whose fault window actually fired
  std::array<OutcomeTally, kNumProfiles> per_profile;
};

struct CampaignConfig {
  std::uint64_t seed = 0xECC0FA17u;
  std::uint64_t runs_per_model = 1000;
  /// Workload curve (`--curve=`): sect233k1 or a secp prime curve.
  /// Unknown names throw std::invalid_argument at campaign construction.
  std::string curve = "sect233k1";
  /// Worker threads for the batch executor (0 = hardware concurrency).
  /// Results are bit-identical regardless of the thread count: every
  /// run's RNG stream is split from (seed, model, run index) alone and
  /// tallies aggregate in run order.
  unsigned threads = 1;
  /// Execution engine of the injected armvm core (`--engine=`). The
  /// tally is engine-independent (see run_with_fault); this exists to
  /// A/B the engines under fault load.
  armvm::Cpu::DecodeMode engine = armvm::Cpu::kDefaultEngine;
  /// Optional telemetry (nullptr = off, zero cost). Classification
  /// counters and the `campaign.kp.vm_cycles` histogram are recorded at
  /// the serial run-order tally, so the snapshot is identical for any
  /// `threads`; the progress meter ticks once per completed run.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::ProgressMeter* progress = nullptr;
};

struct CampaignResult {
  CampaignConfig config;
  std::array<ModelResult, kNumFaultModels> models;
  std::array<ProfileCost, kNumProfiles> costs;
};

/// The seed-derived spliced-kP experiment shared by both campaigns
/// (defined in campaign.cpp): (P, k), the golden kP and the VM
/// multiplier that stands in for one of its field multiplications.
class GoldenKp;

class KpFaultCampaign {
 public:
  /// Derives the golden experiment for `curve` and counts the
  /// retirements of one clean kernel call (the FaultSpec window).
  explicit KpFaultCampaign(
      std::uint64_t seed,
      armvm::Cpu::DecodeMode engine = armvm::Cpu::kDefaultEngine,
      const std::string& curve = "sect233k1");
  ~KpFaultCampaign();

  /// Inject `runs` seeded faults of every fault model, one per kP
  /// computation, as one batch fanned across `threads` workers (1 =
  /// serial; 0 = hardware concurrency). Results are in FaultModel order;
  /// the tallies are independent of the thread count.
  std::array<ModelResult, kNumFaultModels> run_models(std::uint64_t runs,
                                                      unsigned threads = 1);

  /// Clean-run field-op counts of each profile priced with `prices`.
  std::array<ProfileCost, kNumProfiles> profile_costs(
      const ec::FieldCostTable& prices) const;

  /// Optional telemetry hookup (see CampaignConfig::metrics/progress).
  void set_metrics(telemetry::MetricsRegistry* m) { metrics_ = m; }
  void set_progress(telemetry::ProgressMeter* p) { progress_ = p; }

 private:
  std::uint64_t seed_;
  armvm::Cpu::DecodeMode engine_;
  std::unique_ptr<const GoldenKp> golden_;
  std::uint64_t kernel_retires_ = 0;  ///< instruction count of a clean mul
  telemetry::MetricsRegistry* metrics_ = nullptr;
  telemetry::ProgressMeter* progress_ = nullptr;
};

/// Run the whole matrix: every fault model x every profile, plus the
/// clean-run overhead column (priced with the proposed-asm cost table).
CampaignResult run_kp_campaign(const CampaignConfig& config);

// ---- Memory-reliability campaign (SRAM bit errors vs codeword models)
//
// Same experiment shape as KpFaultCampaign — one VM-executed field
// multiplication spliced into a golden kP — but the perturbation is
// physical: the kernel's RAM is Bernoulli bit-error injected at a swept
// BER before the run, under each memory model (raw / parity / SECDED,
// armvm/memmodel.h). The classification separates what the *hardware*
// caught (integrity faults), what it silently repaired (SECDED
// corrections), and what fell through to the PR-2 software
// countermeasure profiles.

/// Classification of one bit-error-injected kP run under one
/// (memory model, protection profile) pair.
enum class MemOutcome : std::uint8_t {
  kCorrect,      ///< right result, storage never needed repair
  kCorrected,    ///< right result after >=1 SECDED single-bit repair
  kDetected,     ///< hardware integrity fault OR software refusal
  kCrashed,      ///< non-integrity armvm::Fault / watchdog
  kSilentWrong,  ///< wrong result released with no indication — the loss
};

struct MemOutcomeTally {
  std::uint64_t correct = 0;
  std::uint64_t corrected = 0;
  std::uint64_t detected = 0;
  std::uint64_t crashed = 0;
  std::uint64_t silent = 0;

  std::uint64_t total() const {
    return correct + corrected + detected + crashed + silent;
  }
  double silent_rate() const {
    return total() == 0 ? 0.0
                        : static_cast<double>(silent) /
                              static_cast<double>(total());
  }
  void add(MemOutcome o);

  friend bool operator==(const MemOutcomeTally&,
                         const MemOutcomeTally&) = default;
};

/// One (memory model x BER) cell of the sweep matrix.
struct MemCell {
  double ber = 0.0;
  std::uint64_t flipped_bits = 0;       ///< injected across the cell's runs
  std::uint64_t hw_corrections = 0;     ///< decode-time single-bit repairs
  std::uint64_t scrub_corrections = 0;  ///< repairs by scrubbing passes
  std::array<MemOutcomeTally, kNumProfiles> per_profile;
};

struct MemModelReport {
  armvm::MemModelConfig config;
  /// Clean-run (no injected errors) cost of one VM mul kernel call
  /// under this model — the codeword scheme's cycle/energy overhead.
  std::uint64_t clean_cycles = 0;
  double clean_energy_pj = 0.0;
  std::vector<MemCell> cells;  ///< one per swept BER
};

struct MemCampaignConfig {
  std::uint64_t seed = 0xECC0BE44u;
  std::uint64_t runs_per_cell = 200;
  /// Workload curve (`--curve=`), same contract as CampaignConfig.
  std::string curve = "sect233k1";
  unsigned threads = 1;
  armvm::Cpu::DecodeMode engine = armvm::Cpu::kDefaultEngine;
  /// Raw storage bit-error probabilities to sweep.
  std::vector<double> bers = {1e-6, 1e-5, 1e-4, 1e-3};
  /// SECDED scrub period in protected accesses (0 = off); raw/parity
  /// never scrub (the Memory constructor rejects it).
  std::uint64_t scrub_interval = 0;
  std::vector<armvm::MemModelKind> models = {armvm::MemModelKind::kRaw,
                                             armvm::MemModelKind::kParity,
                                             armvm::MemModelKind::kSecded};
  /// Optional telemetry (nullptr = off) — same discipline as
  /// CampaignConfig: deterministic tallies recorded serially in run
  /// order, progress ticked per completed run.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::ProgressMeter* progress = nullptr;
};

struct MemCampaignResult {
  MemCampaignConfig config;
  std::vector<MemModelReport> models;
};

/// Run the whole BER x memory-model x protection-profile matrix.
MemCampaignResult run_mem_campaign(const MemCampaignConfig& config);

}  // namespace eccm0::faultsim
