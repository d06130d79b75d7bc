// Reproduces paper Table 1: operation-count formulas for field
// multiplication in F(2^233) — plain LD (A), LD with rotating registers
// (B), LD with fixed registers (C) — evaluated as closed forms and as
// measured counts from the traced implementations, across a sweep of
// word counts n.
#include <cstdio>

#include "common/rng.h"
#include "gf2/traced.h"
#include "manifest.h"
#include "report.h"

using namespace eccm0;
using costmodel::OpCounts;
using costmodel::OpRecorder;

namespace {

OpCounts measure(void (*fn)(std::span<Word>, std::span<const Word>,
                            std::span<const Word>, OpRecorder&),
                 std::size_t n) {
  Rng rng(42 + n);
  std::vector<Word> x(n), y(n), v(2 * n);
  rng.fill(x);
  rng.fill(y);
  x[n - 1] &= 0x1FF;  // emulate a 9-bit top word like K-233's
  y[n - 1] &= 0x1FF;
  OpRecorder rec;
  fn(v, x, y, rec);
  return rec.counts();
}

std::string triple(const OpCounts& c) {
  return bench::fmt_u64(c.mem_read) + "/" + bench::fmt_u64(c.mem_write) +
         "/" + bench::fmt_u64(c.xor_ops);
}

}  // namespace

int main(int argc, char** argv) {
  bench::banner(
      "Table 1 - operation counts (read/write/xor) for LD multiplication "
      "methods");
  std::printf("Method A: plain Lopez-Dahab (w=4)\n");
  std::printf("Method B: LD with rotating registers\n");
  std::printf("Method C: LD with fixed registers (this paper)\n\n");

  bench::Table t({"n", "A paper", "A measured", "B paper", "B measured",
                  "C paper", "C measured"});
  for (std::size_t n : {4u, 6u, 8u, 9u}) {
    t.add_row({std::to_string(n),
               triple(gf2::traced::paper_ld_plain(n)),
               triple(measure(&gf2::traced::mul_ld_plain, n)),
               triple(gf2::traced::paper_ld_rotating(n)),
               triple(measure(&gf2::traced::mul_ld_rotating, n)),
               triple(gf2::traced::paper_ld_fixed(n)),
               triple(measure(&gf2::traced::mul_ld_fixed, n))});
  }
  t.print();

  std::printf(
      "\nPaper formulas: A = 16n^2+23n / 8n^2+30n / 8n^2+30n-7\n"
      "                B = 8n^2+39n-8 / 46n / 8n^2+38n-7\n"
      "                C = 8n^2+24n+1 / 31n+1 / 8n^2+30n-7\n"
      "Shift count: paper 42n-21 for all methods; measured values track\n"
      "the same linear form (LUT generation + inter-pass shifts).\n"
      "Residual deltas on the linear terms come from LUT-generation\n"
      "bookkeeping the paper's closed forms elide; the quadratic terms\n"
      "(the memory-traffic mechanism) match exactly.\n");

  const std::string json_path =
      bench::json_flag_path(argc, argv, "BENCH_table1.json");
  if (!json_path.empty()) {
    telemetry::Json p = telemetry::Json::object();
    p.set("bench", telemetry::Json::str("table1"));
    p.set("rows", bench::table_json(t));
    bench::write_manifest(json_path, "bench_table1", std::move(p));
  }
  return 0;
}
