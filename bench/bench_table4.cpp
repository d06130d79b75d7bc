// Reproduces paper Table 4: point-multiplication timings and energy.
//
// Literature rows (other platforms) are quoted from the paper; the
// Cortex-M0+ rows are regenerated by this repository: the RELIC-like
// baseline and "this work" are real wTNAF executions priced with
// VM-measured field-routine cycles; the prime-curve rows (Micro-ECC /
// Wenger-class workloads) come from the Comba MAC model.
#include <cstdio>

#include "common/rng.h"
#include "ecp/costing.h"
#include "relic_like/baseline.h"
#include "manifest.h"
#include "report.h"

using namespace eccm0;
using ec::AffinePoint;
using ec::BinaryCurve;
using mpint::UInt;

int main(int argc, char** argv) {
  bench::banner("Table 4 - point multiplication timings and energy");

  bench::Table t({"Platform", "Implementation", "Curve", "ms", "uJ",
                  "Source"});

  // Literature rows, quoted (timings measured by the cited authors).
  t.add_row({"ARM7TDMI", "MIRACL", "secp192r1", "38", "182.4", "paper"});
  t.add_row({"ARM7TDMI", "MIRACL", "secp224r1", "53", "254.4", "paper"});
  t.add_row({"ATMega128L", "Aranha et al.", "sect163k1", "320", "9600",
             "paper"});
  t.add_row({"ATMega128L", "Aranha et al.", "sect233k1", "730", "21900",
             "paper"});
  t.add_row({"MSP430F1611", "NanoECC", "sect163k1", "1040", "12780",
             "paper"});
  t.add_row({"Cortex-M0", "Micro ECC", "secp192r1", "175.7", "134.9",
             "paper"});
  t.add_row({"Cortex-M0", "Micro ECC", "secp256r1", "465.1", "357.2",
             "paper"});
  t.add_row({"Cortex-M0+", "Wenger et al.", "secp224r1", "693", "496",
             "paper"});

  // Regenerated rows.
  Rng rng(0x7AB1E4);
  const auto& k233 = BinaryCurve::sect233k1();
  const AffinePoint g = AffinePoint::make(k233.gx, k233.gy);
  const UInt k = UInt::random_below(rng, k233.order);

  const relic_like::RelicBaseline relic;
  const auto relic_kg = relic.kg(k);
  const auto relic_kp = relic.kp(g, k);
  const auto& relic_t = relic_like::relic_like_costs();
  t.add_row({"Cortex-M0+", "RELIC-like kG", "sect233k1",
             bench::fmt_f(relic_kg.time_ms(), 2),
             bench::fmt_f(relic_kg.energy_uj(relic_t), 2), "this repro"});
  t.add_row({"Cortex-M0+", "RELIC-like kP", "sect233k1",
             bench::fmt_f(relic_kp.time_ms(), 2),
             bench::fmt_f(relic_kp.energy_uj(relic_t), 2), "this repro"});

  const auto& ours = relic_like::proposed_asm_costs();
  const auto our_kg = ec::cost_point_mul(k233, g, k, 6, true, ours);
  const auto our_kp = ec::cost_point_mul(k233, g, k, 4, false, ours);
  t.add_row({"Cortex-M0+", "This work kG", "sect233k1",
             bench::fmt_f(our_kg.time_ms(), 2),
             bench::fmt_f(our_kg.energy_uj(ours), 2), "this repro"});
  t.add_row({"Cortex-M0+", "This work kP", "sect233k1",
             bench::fmt_f(our_kp.time_ms(), 2),
             bench::fmt_f(our_kp.energy_uj(ours), 2), "this repro"});

  // Prime-curve model rows (Micro-ECC-class workloads on the same core).
  for (const auto* pc :
       {&ecp::PrimeCurve::secp192r1(), &ecp::PrimeCurve::secp224r1(),
        &ecp::PrimeCurve::secp256r1()}) {
    Rng prng(0x5EC + pc->bits());
    const UInt pk = UInt::random_below(prng, pc->order);
    const auto run = ecp::cost_point_mul_p(*pc, pk, 4);
    const auto costs = ecp::m0plus_prime_costs(pc->limbs());
    t.add_row({"Cortex-M0+", "prime wNAF model", pc->name,
               bench::fmt_f(run.time_ms(), 2),
               bench::fmt_f(run.energy_uj(costs), 2), "this repro"});
  }

  t.print();

  const std::string json_path =
      bench::json_flag_path(argc, argv, "BENCH_table4.json");
  if (!json_path.empty()) {
    telemetry::Json p = telemetry::Json::object();
    p.set("bench", telemetry::Json::str("table4"));
    p.set("rows", bench::table_json(t));
    bench::write_manifest(json_path, "bench_table4", std::move(p));
  }

  std::printf("\nPaper reference rows for the reproduced entries:\n");
  std::printf("  RELIC kG 115.7 ms / 69.48 uJ; RELIC kP 117.1 ms / 70.26 uJ\n");
  std::printf("  This work kG 39.70 ms / 20.63 uJ; kP 59.18 ms / 34.16 uJ\n\n");

  const double speedup_kp = static_cast<double>(relic_kp.cost.total()) /
                            static_cast<double>(our_kp.cost.total());
  const double speedup_kg = static_cast<double>(relic_kg.cost.total()) /
                            static_cast<double>(our_kg.cost.total());
  std::printf("Speedup vs RELIC-like: kP %.2fx (paper 1.99x), kG %.2fx "
              "(paper 2.98x)\n",
              speedup_kp, speedup_kg);
  const double best_other_uj = 134.9;  // Micro ECC secp192r1
  std::printf(
      "Energy advantage vs best literature software row (Micro ECC "
      "secp192r1,\n134.9 uJ): %.1fx for kP (paper claims >= 3.3x).\n",
      best_other_uj / our_kp.energy_uj(ours));
  std::printf("Average power: kP %.1f uW (paper 577.2), kG %.1f uW "
              "(paper 519.6)\n",
              our_kp.avg_power_uw(ours), our_kg.avg_power_uw(ours));
  return 0;
}
