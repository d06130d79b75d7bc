// Reproduces paper Table 5: average cycle counts for modular squaring and
// modular multiplication across platforms. Literature rows are quoted;
// the Cortex-M0+ F(2^233) row is measured by running the Thumb kernels on
// the ISA simulator.
#include <cstdio>

#include "workloads/runner.h"
#include "common/rng.h"
#include "manifest.h"
#include "report.h"

using namespace eccm0;
using gf2::k233::Fe;

// The paper's own Cortex-M0+ F(2^233) row.
constexpr std::uint64_t kPaperSqr = 395;
constexpr std::uint64_t kPaperMul = 3672;

int main(int argc, char** argv) {
  bench::banner(
      "Table 5 - average cycles for modular squaring / multiplication");

  workloads::KernelVm vm;
  Rng rng(0x7AB1E5);
  Fe a, b;
  rng.fill(a);
  rng.fill(b);
  a[7] &= gf2::k233::kTopMask;
  b[7] &= gf2::k233::kTopMask;

  // Average over a few operands (cycle counts are data-independent for
  // these straight-line kernels; the average documents that).
  std::uint64_t sqr_sum = 0, mul_sum = 0;
  constexpr int kReps = 8;
  for (int i = 0; i < kReps; ++i) {
    rng.fill(a);
    rng.fill(b);
    a[7] &= gf2::k233::kTopMask;
    b[7] &= gf2::k233::kTopMask;
    sqr_sum += vm.sqr(a).stats.cycles;
    mul_sum += vm.mul(workloads::MulKernel::kFixedRegisters, a, b, true)
                   .stats.cycles;
  }
  // K-163 instantiation of the same kernel generator.
  workloads::KernelVm::Fe163 x163{}, y163{};
  for (auto& w : x163) w = rng.next_word();
  for (auto& w : y163) w = rng.next_word();
  x163[5] &= 7;
  y163[5] &= 7;
  const auto mul163 =
      vm.mul_k163(workloads::MulKernel::kFixedRegisters, x163, y163, true)
          .stats.cycles;

  bench::Table t({"Author", "Platform", "Word", "Sqr", "Mul", "Field",
                  "Source"});
  t.add_row({"S. Erdem", "ARM7TDMI", "32", "348", "4359", "F(2^228)",
             "paper"});
  t.add_row({"S. Erdem", "ARM7TDMI", "32", "389", "5398", "F(2^256)",
             "paper"});
  t.add_row({"Aranha et al.", "ATMega128L", "8", "570", "4508", "F(2^163)",
             "paper"});
  t.add_row({"Aranha et al.", "ATMega128L", "8", "956", "8314", "F(2^233)",
             "paper"});
  t.add_row({"Kargl et al.", "ATMega128L", "8", "663", "5490", "F(2^167)",
             "paper"});
  t.add_row({"Szczechowiak", "ATMega128L", "8", "1581", "13557",
             "F(2^271)", "paper"});
  t.add_row({"Gouvea", "MSP430X", "16", "199", "3585", "F(2^163)",
             "paper"});
  t.add_row({"Gouvea", "MSP430X", "16", "325", "8166", "F(2^283)",
             "paper"});
  t.add_row({"TinyPBC", "PXA271", "32", "187", "2025", "F(2^271)",
             "paper"});
  t.add_row({"This work (paper)", "Cortex-M0+", "32",
             bench::fmt_u64(kPaperSqr), bench::fmt_u64(kPaperMul),
             "F(2^233)", "paper"});
  const std::uint64_t sqr = sqr_sum / kReps, mul = mul_sum / kReps;
  t.add_row({"This repro (VM)", "Cortex-M0+", "32", bench::fmt_u64(sqr),
             bench::fmt_u64(mul), "F(2^233)", "this repro"});
  t.add_row({"This repro (VM)", "Cortex-M0+", "32", "-",
             bench::fmt_u64(mul163), "F(2^163)", "this repro"});
  t.print();

  // The gap to the paper's row, from the row just measured.
  const auto gap = [](std::uint64_t repro, std::uint64_t paper) {
    return 100.0 * (static_cast<double>(repro) / paper - 1.0);
  };
  std::printf(
      "\nThe reproduced kernels implement the paper's algorithms (the\n"
      "reduction interleaved with the product) without its final\n"
      "hand-tuning; LUT generation is unoptimised. Against the paper's\n"
      "%llu / %llu cycles the VM row is %+.0f%% on mul and %+.0f%% on sqr,\n"
      "analysed in EXPERIMENTS.md. The 32-bit-word advantage over the\n"
      "8/16-bit platforms (the table's point) reproduces cleanly.\n",
      static_cast<unsigned long long>(kPaperMul),
      static_cast<unsigned long long>(kPaperSqr), gap(mul, kPaperMul),
      gap(sqr, kPaperSqr));

  const std::string json_path =
      bench::json_flag_path(argc, argv, "BENCH_table5.json");
  if (!json_path.empty()) {
    telemetry::Json p = telemetry::Json::object();
    p.set("bench", telemetry::Json::str("table5"));
    p.set("rows", bench::table_json(t));
    p.set("sqr_cycles", telemetry::Json::number(sqr));
    p.set("mul_cycles", telemetry::Json::number(mul));
    p.set("mul163_cycles", telemetry::Json::number(mul163));
    bench::write_manifest(json_path, "bench_table5", std::move(p));
  }
  return 0;
}
