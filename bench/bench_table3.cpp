// Reproduces paper Table 3: energy per cycle for the instructions
// relevant to field arithmetic, re-measured the way the paper did it —
// each instruction in a long loop on the (simulated) M0+ with the
// (simulated) power rig, loop overhead subtracted.
#include <cstdio>

#include "measure/power_trace.h"
#include "manifest.h"
#include "report.h"

using namespace eccm0;

int main(int argc, char** argv) {
  bench::banner(
      "Table 3 - energy per cycle per instruction at 48 MHz (measured on "
      "the simulated rig, 25 uW gaussian noise)");

  struct Row {
    const char* name;
    const char* instr;
    unsigned cycles;
    double paper_pj;
  };
  const Row rows[] = {
      {"LDR", "ldr r0, [r1]", 2, 10.98},
      {"LSR", "lsrs r0, r2, #3", 1, 12.05},
      {"MUL", "muls r0, r2", 1, 12.14},
      {"LSL", "lsls r0, r2, #3", 1, 12.21},
      {"XOR", "eors r0, r2", 1, 12.43},
      {"ADD", "adds r0, r2", 1, 13.45},
  };

  const measure::RigConfig cfg{.noise_uw = 25.0, .seed = 0xDAC2014};
  bench::Table t({"Instruction", "Measured [pJ/cycle]", "Paper [pJ/cycle]",
                  "Delta [%]"});
  double min_pj = 1e9, max_pj = 0;
  for (const Row& r : rows) {
    const double pj =
        measure::measure_instruction_energy_pj(r.instr, 64, cfg) / r.cycles;
    min_pj = std::min(min_pj, pj);
    max_pj = std::max(max_pj, pj);
    t.add_row({r.name, bench::fmt_f(pj), bench::fmt_f(r.paper_pj),
               bench::fmt_f(100.0 * (pj - r.paper_pj) / r.paper_pj, 1)});
  }
  t.print();

  std::printf(
      "\nVariation across instructions: %.1f%% (paper reports up to "
      "22.5%%).\nADD is the hungriest instruction; LDR per cycle the "
      "cheapest —\nthe instruction-mix fact behind the binary-curve "
      "choice.\n",
      100.0 * (max_pj - min_pj) / min_pj);

  const std::string json_path =
      bench::json_flag_path(argc, argv, "BENCH_table3.json");
  if (!json_path.empty()) {
    telemetry::Json p = telemetry::Json::object();
    p.set("bench", telemetry::Json::str("table3"));
    p.set("rows", bench::table_json(t));
    p.set("variation_pct",
          telemetry::Json::number(100.0 * (max_pj - min_pj) / min_pj));
    bench::write_manifest(json_path, "bench_table3", std::move(p));
  }
  return 0;
}
