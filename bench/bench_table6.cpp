// Reproduces paper Table 6: cycle counts for the field-arithmetic
// routines in "C" and assembly, plus full kP / kG totals.
//
// Column mapping:
//   "C"        — the compiler-shaped variants: plain-memory multiply
//                (a compiler cannot pin 9 words in registers) measured on
//                the VM; inversion from the traced C model; squaring from
//                the VM kernel (shape survives compilation); the rotating-
//                registers row from the traced rotating model.
//   "Assembly" — the hand-scheduled kernels measured on the VM.
#include <cstdio>

#include "workloads/runner.h"
#include "common/rng.h"
#include "gf2/traced.h"
#include "relic_like/costs.h"
#include "manifest.h"
#include "report.h"

using namespace eccm0;
using gf2::k233::Fe;

int main(int argc, char** argv) {
  bench::banner("Table 6 - field arithmetic cycle counts (C vs assembly)");

  workloads::KernelVm vm;
  Rng rng(0x7AB1E6);
  Fe a, b;
  rng.fill(a);
  rng.fill(b);
  a[7] &= gf2::k233::kTopMask;
  b[7] &= gf2::k233::kTopMask;

  const auto sqr_vm = vm.sqr(a).stats.cycles;
  const auto mul_fixed =
      vm.mul(workloads::MulKernel::kFixedRegisters, a, b, true).stats.cycles;
  const auto mul_plain =
      vm.mul(workloads::MulKernel::kPlainMemory, a, b, true).stats.cycles;

  costmodel::OpRecorder rec;
  (void)gf2::traced::inv_traced(a, rec);
  const auto inv_model = costmodel::CycleModel{}.cycles(rec.counts());
  const auto inv_vm = vm.inv(a).stats.cycles;

  rec.reset();
  {
    std::vector<Word> x(a.begin(), a.end()), y(b.begin(), b.end()),
        v(2 * a.size());
    gf2::traced::mul_ld_rotating(v, x, y, rec);
  }
  const auto rot_model = costmodel::CycleModel{}.cycles(rec.counts());

  bench::Table t({"Operation", "C [cy]", "C paper", "Asm [cy]",
                  "Asm paper"});
  t.add_row({"Modular squaring", bench::fmt_u64(sqr_vm), "419",
             bench::fmt_u64(sqr_vm), "395"});
  t.add_row({"Inversion (EEA)", bench::fmt_u64(inv_vm), "141916",
             bench::fmt_u64(inv_model), "-"});
  t.add_row({"LD rotating registers (model)", bench::fmt_u64(rot_model),
             "5592", "-", "-"});
  t.add_row({"LD fixed registers", bench::fmt_u64(mul_plain), "5964",
             bench::fmt_u64(mul_fixed), "3672"});

  // Full point multiplications with the two cost tables.
  using mpint::UInt;
  const auto& k233 = ec::BinaryCurve::sect233k1();
  const auto g = ec::AffinePoint::make(k233.gx, k233.gy);
  Rng krng(99);
  const UInt k = UInt::random_below(krng, k233.order);
  const auto kp_c = ec::cost_point_mul(k233, g, k, 4, false,
                                       relic_like::proposed_c_costs());
  const auto kp_a = ec::cost_point_mul(k233, g, k, 4, false,
                                       relic_like::proposed_asm_costs());
  const auto kg_c = ec::cost_point_mul(k233, g, k, 6, true,
                                       relic_like::proposed_c_costs());
  const auto kg_a = ec::cost_point_mul(k233, g, k, 6, true,
                                       relic_like::proposed_asm_costs());
  t.add_row({"kP (random point, w=4)", bench::fmt_u64(kp_c.cost.total()),
             "3516295", bench::fmt_u64(kp_a.cost.total()), "2761640"});
  t.add_row({"kG (fixed point, w=6)", bench::fmt_u64(kg_c.cost.total()),
             "2494757", bench::fmt_u64(kg_a.cost.total()), "1864470"});
  t.print();

  std::printf(
      "\nRegister pinning (C -> asm on the multiply): paper 5964 -> 3672 "
      "(-38%%),\nmeasured %llu -> %llu (-%.0f%%).\n",
      static_cast<unsigned long long>(mul_plain),
      static_cast<unsigned long long>(mul_fixed),
      100.0 * (1.0 - static_cast<double>(mul_fixed) /
                         static_cast<double>(mul_plain)));
  std::printf(
      "Inversion: the C column is the looping EEA Thumb routine measured\n"
      "on the VM (the paper kept inversion in C); the Asm column shows\n"
      "the idealised traced model for contrast. See EXPERIMENTS.md.\n");

  // Ablation: Itoh-Tsujii (10 mul + 231 sqr + 1 sqr) vs the EEA, priced
  // with this repo's measured kernels and with the paper's.
  const auto it_ours = 10 * mul_fixed + 232 * sqr_vm;
  const auto it_paper = 10 * 3672 + 232 * 395;
  std::printf(
      "\nInversion ablation: Itoh-Tsujii costs %llu cycles with our\n"
      "kernels (EEA: %llu) and %u with the paper's (their EEA: 141916) —\n"
      "the EEA/IT crossover sits exactly at this paper's kernel speeds.\n",
      static_cast<unsigned long long>(it_ours),
      static_cast<unsigned long long>(inv_vm),
      static_cast<unsigned>(it_paper));

  const std::string json_path =
      bench::json_flag_path(argc, argv, "BENCH_table6.json");
  if (!json_path.empty()) {
    telemetry::Json p = telemetry::Json::object();
    p.set("bench", telemetry::Json::str("table6"));
    p.set("rows", bench::table_json(t));
    p.set("mul_plain_cycles", telemetry::Json::number(mul_plain));
    p.set("mul_fixed_cycles", telemetry::Json::number(mul_fixed));
    p.set("pinning_gain_pct",
          telemetry::Json::number(
              100.0 * (1.0 - static_cast<double>(mul_fixed) /
                                 static_cast<double>(mul_plain))));
    p.set("itoh_tsujii_cycles", telemetry::Json::number(it_ours));
    p.set("eea_cycles", telemetry::Json::number(inv_vm));
    bench::write_manifest(json_path, "bench_table6", std::move(p));
  }
  return 0;
}
