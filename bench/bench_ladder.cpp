// Ablations around the paper's design choices and its future-work item:
//
//  (a) Koblitz vs generic binary curve over the same field: wTNAF with
//      Frobenius (3 squarings) vs wNAF with true doublings (4M + 5S) —
//      the implementation-level counterpart of the section 3.1 model's
//      conclusion (1).
//  (b) The Montgomery-Lopez-Dahab ladder (section 5's constant-time
//      candidate): uniform per-bit work, priced with the same tables —
//      the energy premium of side-channel-hardened point multiplication.
#include <cstdio>

#include "common/rng.h"
#include "ec/costing.h"
#include "ec/scalarmul.h"
#include "relic_like/costs.h"
#include "manifest.h"
#include "report.h"

using namespace eccm0;
using mpint::UInt;

namespace {

/// Price a bag of field ops with a cost table (no TNAF rows).
std::uint64_t price(const ec::FieldOpCounts& o,
                    const ec::FieldCostTable& t) {
  const std::uint64_t calls = o.mul + o.sqr + o.inv + o.add;
  return o.mul * t.mul + o.sqr * t.sqr + o.inv * t.inv + o.add * t.fadd +
         calls * t.call_overhead;
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "Ablation - Frobenius vs doubling, and the constant-time ladder");

  const auto& prices = relic_like::proposed_asm_costs();
  Rng rng(0x1ADDE6);

  // (a) K-233 wTNAF vs B-233 wNAF (same field, same security class).
  const auto& k233 = ec::BinaryCurve::sect233k1();
  const auto& b233 = ec::BinaryCurve::sect233r1();
  const auto gk = ec::AffinePoint::make(k233.gx, k233.gy);
  const auto gb = ec::AffinePoint::make(b233.gx, b233.gy);
  const UInt kk = UInt::random_below(rng, k233.order);
  const UInt kb = UInt::random_below(rng, b233.order);

  const auto kob = ec::cost_point_mul(k233, gk, kk, 4, false, prices);

  ec::CurveOps ops_b(b233);
  (void)ec::mul_wnaf(ops_b, gb, kb, 4);
  const std::uint64_t wnaf_cycles = price(ops_b.counts(), prices);

  ec::CurveOps ops_l(k233);
  (void)ec::mul_ladder(ops_l, gk, kk);
  const std::uint64_t ladder_cycles = price(ops_l.counts(), prices);

  bench::Table t({"Configuration", "Curve", "cycles", "uJ", "vs kP"});
  const double kp_cycles = static_cast<double>(kob.cost.total());
  auto uj = [&](std::uint64_t cy) {
    return bench::fmt_f(static_cast<double>(cy) * prices.pj_per_cycle * 1e-6,
                        2);
  };
  t.add_row({"wTNAF w=4 (this work, kP)", "sect233k1",
             bench::fmt_u64(kob.cost.total()), uj(kob.cost.total()),
             "1.00x"});
  t.add_row({"wNAF w=4 with doublings", "sect233r1",
             bench::fmt_u64(wnaf_cycles), uj(wnaf_cycles),
             bench::fmt_f(static_cast<double>(wnaf_cycles) / kp_cycles, 2) +
                 "x"});
  t.add_row({"Montgomery-LD ladder", "sect233k1",
             bench::fmt_u64(ladder_cycles), uj(ladder_cycles),
             bench::fmt_f(static_cast<double>(ladder_cycles) / kp_cycles,
                          2) +
                 "x"});
  t.print();

  const std::string json_path =
      bench::json_flag_path(argc, argv, "BENCH_ladder.json");
  if (!json_path.empty()) {
    telemetry::Json p = telemetry::Json::object();
    p.set("bench", telemetry::Json::str("ladder"));
    p.set("rows", bench::table_json(t));
    p.set("wtnaf_kp_cycles", telemetry::Json::number(kob.cost.total()));
    p.set("wnaf_doubling_cycles", telemetry::Json::number(wnaf_cycles));
    p.set("ladder_cycles", telemetry::Json::number(ladder_cycles));
    bench::write_manifest(json_path, "bench_ladder", std::move(p));
  }

  std::printf(
      "\n(a) Replacing Frobenius (3S) with true doublings (~4M+5S) costs\n"
      "    ~2x — the reason the paper picks a Koblitz curve.\n"
      "(b) The ladder executes an identical 6M+5S+y-recovery schedule\n"
      "    per scalar bit regardless of the key (verified by test), at\n"
      "    the premium shown — the paper's future-work trade-off,\n"
      "    quantified.\n");
  return 0;
}
