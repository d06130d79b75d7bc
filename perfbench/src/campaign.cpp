// campaign: repeated faultsim::run_kp_campaign calls with the default
// config except a seeded `seed` and `runs_per_model` and threads = nproc.
// One round is a sect233k1 call and a secp192r1 call with the same seed
// and run count, so every round holds equal runs of both curves. Each
// injected run is a full host kP (gf2/ec or ecp) plus one VM multiply
// stepped by the fault injector, fanned out by sim::BatchExecutor.
#include <cstdio>
#include <string>

#include "bench.h"
#include "common/rng.h"
#include "faultsim/campaign.h"
#include "service/server.h"

namespace perfbench {

namespace ef = eccm0::faultsim;

namespace {

struct Round {
  std::uint64_t seed = 0;
  std::uint64_t runs_per_model = 0;
};

/// The simulated cost per run is priced over the first rounds only (the
/// loop always completes them), so it is a function of the seed alone,
/// not of how many rounds the wall-clock window fits.
constexpr std::uint64_t kPricedRounds = 24;

Round round_of(std::uint64_t seed, std::uint64_t r) {
  eccm0::Rng rng = eccm0::Rng(seed ^ 0xCA3BA16Full).split(r);
  Round out;
  out.seed = rng.next_u64();
  out.runs_per_model = 12 + rng.next_below(5);  // 12..16
  return out;
}

/// Injected runs of one call: every fault model runs `runs_per_model`.
std::uint64_t runs_of(const ef::CampaignConfig& cfg) {
  return cfg.runs_per_model * ef::kNumFaultModels;
}

/// Tallies that cannot hold for any correct campaign: every profile sees
/// every run exactly once, and a fault fires at most once per run.
bool tallies_consistent(const ef::CampaignResult& res) {
  for (const ef::ModelResult& m : res.models) {
    if (m.runs != res.config.runs_per_model || m.injected > m.runs) {
      return false;
    }
    for (const ef::OutcomeTally& t : m.per_profile) {
      if (t.total() != m.runs) return false;
    }
  }
  return true;
}

class Campaign final : public Workload {
 public:
  explicit Campaign(std::uint64_t seed) { seed_ = seed; }

  void setup() override {
    catalog_ = Catalog::build(&kernel_build_ms_);
    // The campaign's own cold state: the golden kP of each curve (and
    // the injected kernel image it resolves).
    const ef::CampaignConfig defaults;
    for (const char* curve : kCurves) {
      Tracer::Scope span(tracer(), "faultsim.KpFaultCampaign");
      const ef::KpFaultCampaign golden(round_of(seed_, 0).seed,
                                       defaults.engine, curve);
      (void)golden;
    }
  }

  Phase run(double seconds) override {
    Phase ph;
    calls_.clear();
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t r = 0; r < kPricedRounds || seconds_since(t0) < seconds;
         ++r) {
      const Round round = round_of(seed_, r);
      const Clock::time_point rs = Clock::now();
      std::uint64_t round_runs = 0;
      for (const char* curve : kCurves) {
        ef::CampaignConfig cfg;
        cfg.seed = round.seed;
        cfg.runs_per_model = round.runs_per_model;
        cfg.threads = nproc();
        cfg.curve = curve;
        ef::CampaignResult res;
        {
          Tracer::Scope span(tracer(), "faultsim.run_kp_campaign");
          res = ef::run_kp_campaign(cfg);
        }
        const std::uint64_t runs = runs_of(cfg);
        round_runs += runs;
        ph.attempted += runs;
        if (!tallies_consistent(res)) {
          ph.failed += runs;
          continue;
        }
        if (r < kPricedRounds) {
          // A transaction's simulated cost: the clean kP of the
          // unprotected profile, priced with the curve's cost table.
          ph.sim_cycles += static_cast<double>(res.costs[0].cycles * runs);
          ph.sim_energy_uj +=
              res.costs[0].energy_uj * static_cast<double>(runs);
          ph.sim_ops += runs;
          // Kept for the thread-invariance check. Only the priced rounds
          // are kept, so the benchmark's own memory (peak_rss_mb) does
          // not grow with the number of rounds the window fits.
          calls_.push_back({cfg, eccm0::service::campaign_payload(res).dump()});
        }
      }
      // Per-run latency of the round: wall time over injected runs.
      ph.latency_ms.push_back(ms_between(rs, Clock::now()) /
                              static_cast<double>(round_runs));
    }
    ph.elapsed_s = seconds_since(t0);
    return ph;
  }

  /// Thread invariance on a seeded slice: one priced call of the phase, re-run
  /// on one worker, must give a byte-identical payload.
  void check(Report& r) override {
    if (calls_.empty()) return;
    eccm0::Rng pick = eccm0::Rng(seed_).split(~std::uint64_t{0});
    const Call& c = calls_[pick.next_below(calls_.size())];
    ef::CampaignConfig serial = c.cfg;
    serial.threads = 1;
    const std::string again =
        eccm0::service::campaign_payload(ef::run_kp_campaign(serial)).dump();
    if (again != c.payload) {
      r.fail(runs_of(c.cfg), "campaign tallies at " +
                                 std::to_string(c.cfg.threads) +
                                 " workers differ from a 1-worker re-run (" +
                                 c.cfg.curve + ")");
    }
  }

  std::string sequence(std::size_t n) const override {
    std::string out;
    for (std::uint64_t r = 0; r < n; ++r) {
      const Round round = round_of(seed_, r);
      char line[96];
      std::snprintf(line, sizeof(line), "round %llu seed=%016llx runs=%llu\n",
                    static_cast<unsigned long long>(r),
                    static_cast<unsigned long long>(round.seed),
                    static_cast<unsigned long long>(round.runs_per_model));
      out += line;
    }
    return out;
  }

  std::vector<Op> pass_template() const override { return {}; }

 private:
  struct Call {
    ef::CampaignConfig cfg;
    std::string payload;
  };
  std::vector<Call> calls_;  ///< the priced calls of the last phase
};

}  // namespace

std::unique_ptr<Workload> make_campaign(std::uint64_t seed) {
  return std::make_unique<Campaign>(seed);
}

}  // namespace perfbench
