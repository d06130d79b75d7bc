// Reproduces paper Table 7: total accumulated cycles per operation class
// for a random-point multiplication (kP, w = 4) and a fixed-point
// multiplication (kG, w = 6) on sect233k1, averaged over several scalars.
#include <cstdio>

#include "common/rng.h"
#include "ec/costing.h"
#include "relic_like/costs.h"
#include "manifest.h"
#include "report.h"

using namespace eccm0;
using ec::PointMulCost;
using mpint::UInt;

int main(int argc, char** argv) {
  bench::banner(
      "Table 7 - accumulated cycles per operation class (kP w=4, kG w=6)");

  const auto& curve = ec::BinaryCurve::sect233k1();
  const auto g = ec::AffinePoint::make(curve.gx, curve.gy);
  const auto& prices = relic_like::proposed_asm_costs();

  constexpr int kReps = 5;
  Rng rng(0x7AB1E7);
  PointMulCost kp{}, kg{};
  auto acc = [](PointMulCost& into, const PointMulCost& c) {
    into.tnaf_repr += c.tnaf_repr;
    into.tnaf_precomp += c.tnaf_precomp;
    into.multiply += c.multiply;
    into.multiply_precomp += c.multiply_precomp;
    into.square += c.square;
    into.inversion += c.inversion;
    into.support += c.support;
  };
  for (int i = 0; i < kReps; ++i) {
    const UInt k = UInt::random_below(rng, curve.order);
    acc(kp, ec::cost_point_mul(curve, g, k, 4, false, prices).cost);
    acc(kg, ec::cost_point_mul(curve, g, k, 6, true, prices).cost);
  }
  auto avg = [](std::uint64_t v) { return v / kReps; };

  struct Row {
    const char* name;
    std::uint64_t kp, kg;
    std::uint64_t paper_kp, paper_kg;
  };
  const Row rows[] = {
      {"TNAF Representation", avg(kp.tnaf_repr), avg(kg.tnaf_repr), 178135,
       185926},
      {"TNAF Precomputation", avg(kp.tnaf_precomp), avg(kg.tnaf_precomp),
       398387, 0},
      {"Multiply", avg(kp.multiply), avg(kg.multiply), 1108890, 821178},
      {"Multiply Precomputation", avg(kp.multiply_precomp),
       avg(kg.multiply_precomp), 249750, 184950},
      {"Square", avg(kp.square), avg(kg.square), 362379, 342294},
      {"Inversion", avg(kp.inversion), avg(kg.inversion), 139936, 139656},
      {"Support functions", avg(kp.support), avg(kg.support), 377350,
       376392},
  };

  bench::Table t({"Operation", "kP", "kP paper", "kG", "kG paper"});
  std::uint64_t tot_kp = 0, tot_kg = 0;
  for (const Row& r : rows) {
    t.add_row({r.name, bench::fmt_u64(r.kp), bench::fmt_u64(r.paper_kp),
               bench::fmt_u64(r.kg), bench::fmt_u64(r.paper_kg)});
    tot_kp += r.kp;
    tot_kg += r.kg;
  }
  t.add_row({"Total", bench::fmt_u64(tot_kp), "2814827",
             bench::fmt_u64(tot_kg), "1864470"});
  t.print();

  std::printf(
      "\nShape checks: Multiply dominates both columns; kG has zero\n"
      "TNAF Precomputation (offline table) and a smaller Multiply row\n"
      "(w = 6 halves the addition density); Square and Inversion are\n"
      "nearly identical across kP/kG, as in the paper.\n");

  const std::string json_path =
      bench::json_flag_path(argc, argv, "BENCH_table7.json");
  if (!json_path.empty()) {
    telemetry::Json p = telemetry::Json::object();
    p.set("bench", telemetry::Json::str("table7"));
    p.set("rows", bench::table_json(t));
    p.set("total_kp", telemetry::Json::number(tot_kp));
    p.set("total_kg", telemetry::Json::number(tot_kg));
    bench::write_manifest(json_path, "bench_table7", std::move(p));
  }
  return 0;
}
