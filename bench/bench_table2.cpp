// Reproduces paper Table 2: concrete operation counts and the cycle
// estimate (memory op = 2 cycles, rest 1) for the three LD variants at
// n = 8 (F(2^233)), plus the headline performance ratios.
#include <cstdio>

#include "common/rng.h"
#include "gf2/traced.h"
#include "manifest.h"
#include "report.h"

using namespace eccm0;
using costmodel::CycleModel;
using costmodel::OpCounts;
using costmodel::OpRecorder;

namespace {

struct Method {
  const char* name;
  void (*fn)(std::span<Word>, std::span<const Word>, std::span<const Word>,
             OpRecorder&);
  OpCounts (*paper)(std::uint64_t);
  std::uint64_t paper_cycles;
};

OpCounts measure(const Method& m) {
  constexpr std::size_t n = 8;
  Rng rng(7);
  std::vector<Word> x(n), y(n), v(2 * n);
  rng.fill(x);
  rng.fill(y);
  x[n - 1] &= 0x1FF;
  y[n - 1] &= 0x1FF;
  OpRecorder rec;
  m.fn(v, x, y, rec);
  return rec.counts();
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "Table 2 - operations and cycle estimate for multiplication in "
      "F(2^233), n = 8, w = 4");

  const Method methods[] = {
      {"A: LD", &gf2::traced::mul_ld_plain, &gf2::traced::paper_ld_plain,
       4980},
      {"B: LD rotating regs", &gf2::traced::mul_ld_rotating,
       &gf2::traced::paper_ld_rotating, 3492},
      {"C: LD fixed regs", &gf2::traced::mul_ld_fixed,
       &gf2::traced::paper_ld_fixed, 2968},
  };

  const CycleModel cm;
  bench::Table t({"Method", "Read", "Write", "XOR", "Shift", "Cycles",
                  "Cycles(paper)"});
  std::uint64_t cycles_a = 0, cycles_b = 0, cycles_c = 0;
  for (const auto& m : methods) {
    const OpCounts c = measure(m);
    const std::uint64_t cy = cm.cycles(c);
    if (m.name[0] == 'A') cycles_a = cy;
    if (m.name[0] == 'B') cycles_b = cy;
    if (m.name[0] == 'C') cycles_c = cy;
    t.add_row({m.name, bench::fmt_u64(c.mem_read),
               bench::fmt_u64(c.mem_write), bench::fmt_u64(c.xor_ops),
               bench::fmt_u64(c.shift), bench::fmt_u64(cy),
               bench::fmt_u64(m.paper_cycles)});
  }
  t.print();

  std::printf(
      "\nPaper: C is 15%% faster than B and 40%% faster than A.\n"
      "Measured: C vs B: %.1f%% faster; C vs A: %.1f%% faster.\n",
      100.0 * (1.0 - static_cast<double>(cycles_c) /
                         static_cast<double>(cycles_b)),
      100.0 * (1.0 - static_cast<double>(cycles_c) /
                         static_cast<double>(cycles_a)));

  const std::string json_path =
      bench::json_flag_path(argc, argv, "BENCH_table2.json");
  if (!json_path.empty()) {
    telemetry::Json p = telemetry::Json::object();
    p.set("bench", telemetry::Json::str("table2"));
    p.set("rows", bench::table_json(t));
    p.set("c_vs_b_speedup", telemetry::Json::number(
                                static_cast<double>(cycles_b) /
                                static_cast<double>(cycles_c)));
    p.set("c_vs_a_speedup", telemetry::Json::number(
                                static_cast<double>(cycles_a) /
                                static_cast<double>(cycles_c)));
    bench::write_manifest(json_path, "bench_table2", std::move(p));
  }
  return 0;
}
