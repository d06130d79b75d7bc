// replay-mix: one caller in a closed loop calls workloads::replay() back
// to back over a seeded sequence of kp/ecdh/ecdsa on sect233k1 and
// secp192r1. Bound by the VM engine and the kernels; host field
// arithmetic, sim and service are not on its path.
#include <cstdio>
#include <string>

#include "bench.h"

namespace perfbench {

namespace {

/// One pass: 20 transactions. The weights put the median inside the
/// ecdsa-sect233k1 cluster (ranks 35%..65% by replay cost) and the p90/p95
/// tail inside the ecdsa-secp192r1 cluster (the top 20%), so neither
/// quantile sits on a boundary between two transaction types.
constexpr struct {
  const char* tx;
  const char* curve;
  unsigned count;
} kPass[] = {
    {"kp", "sect233k1", 4},    {"ecdh", "sect233k1", 3},
    {"ecdsa", "sect233k1", 6}, {"kp", "secp192r1", 2},
    {"ecdh", "secp192r1", 1},  {"ecdsa", "secp192r1", 4},
};

class ReplayMix final : public Workload {
 public:
  explicit ReplayMix(std::uint64_t seed) { seed_ = seed; }

  void setup() override {
    catalog_ = Catalog::build(&kernel_build_ms_);
    for (const auto& p : kPass) {
      const std::size_t idx = catalog_.index_of(p.tx, p.curve);
      for (unsigned i = 0; i < p.count; ++i) items_.push_back(idx);
    }
  }

  Phase run(double seconds) override {
    Phase ph;
    const Clock::time_point t0 = Clock::now();
    for (std::uint64_t pass = 0; seconds_since(t0) < seconds; ++pass) {
      std::vector<double> pass_ms;
      for (std::size_t idx : seeded_pass(seed_, pass, items_)) {
        const Entry& e = catalog_.at(idx);
        const Clock::time_point s = Clock::now();
        const ReplayCheck c = replay_checked(e);
        pass_ms.push_back(ms_between(s, Clock::now()));
        ++ph.attempted;
        if (!c.ok) {
          ++ph.failed;
          continue;
        }
        ph.sim_cycles += static_cast<double>(c.result.stats.cycles);
        ph.sim_energy_uj += c.result.stats.energy().energy_uj();
        ++ph.sim_ops;
      }
      ph.pass_p50_ms.push_back(median(pass_ms));
      ph.latency_ms.insert(ph.latency_ms.end(), pass_ms.begin(), pass_ms.end());
    }
    ph.elapsed_s = seconds_since(t0);
    return ph;
  }

  void check(Report&) override {}  // every replay is checked inline

  std::string sequence(std::size_t n) const override {
    std::string out;
    std::size_t k = 0;
    for (std::uint64_t pass = 0; k < n; ++pass) {
      for (std::size_t idx : seeded_pass(seed_, pass, items_)) {
        if (k++ == n) break;
        out += catalog_.at(idx).name + "\n";
      }
    }
    return out;
  }

  std::vector<Op> pass_template() const override {
    std::vector<Op> ops;
    for (std::size_t idx : items_) ops.push_back({idx, 1});
    return ops;
  }

 private:
  std::vector<std::size_t> items_;  ///< the pass multiset
};

}  // namespace

std::unique_ptr<Workload> make_replay_mix(std::uint64_t seed) {
  return std::make_unique<ReplayMix>(seed);
}

}  // namespace perfbench
