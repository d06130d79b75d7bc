// Reproduces paper Figure 1: the data layout of the LD-with-fixed-
// registers multiplication for n = 8 — which words of the partial-product
// vector C live in registers vs memory, how often the inner loop touches
// each word, and the per-pass structure (8 LUT lookups + add, then the
// 4-bit shift).
#include <cstdio>

#include "gf2/traced.h"
#include "manifest.h"
#include "report.h"

using namespace eccm0;

int main(int argc, char** argv) {
  constexpr std::size_t n = 8;
  const std::size_t w0 = gf2::traced::fixed_window_base(n);

  bench::banner(
      "Figure 1 - LD with fixed registers, n = 8: residency and access "
      "map of the partial-product vector C");

  // Inner-loop touch counts: word s is hit once per pass for every (k, l)
  // pair with k + l = s; multiplicity 8 - |s - 7|, times 8 passes.
  std::printf("word      ");
  for (std::size_t i = 0; i < 2 * n; ++i) std::printf("C%-4zu", i);
  std::printf("\nresidency ");
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const bool reg = i >= w0 && i <= w0 + n;
    std::printf("%-5s", reg ? "REG" : "mem");
  }
  std::printf("\ntouches   ");
  for (std::size_t i = 0; i < 2 * n; ++i) {
    const int mult =
        static_cast<int>(n) - std::abs(static_cast<int>(i) - 7);
    std::printf("%-5d", 8 * std::max(0, mult));
  }
  std::printf("\n\n");

  std::printf(
      "The n+1 = 9 most frequently used words C[%zu..%zu] are pinned in\n"
      "registers (r4-r7 hold C5..C8, r8-r12 hold C3,C4,C9,C10,C11 in the\n"
      "Thumb kernel); C[0..%zu] and C[%zu..15] stay in RAM.\n\n",
      w0, w0 + n, w0 - 1, w0 + n + 1);

  std::printf("Per outer pass (j = 7..0):\n");
  std::printf("  y nibble -> LUT index u; 8 words of T[u] are read and\n");
  std::printf("  XOR-accumulated into C at offset k (k = 0..7);\n");
  std::printf("  then C <<= 4 (skipped on the final pass).\n\n");

  // Demonstrate on live data that out-of-window accesses are the minority.
  const std::size_t in_window = []() {
    std::size_t cnt = 0;
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t l = 0; l < n; ++l) {
        const std::size_t idx = k + l;
        if (idx >= gf2::traced::fixed_window_base(n) &&
            idx <= gf2::traced::fixed_window_base(n) + n) {
          ++cnt;
        }
      }
    }
    return cnt;
  }();
  std::printf(
      "Inner-loop accumulations hitting registers: %zu/64 per pass "
      "(%.0f%%)\n",
      in_window, 100.0 * static_cast<double>(in_window) / 64.0);

  const std::string json_path =
      bench::json_flag_path(argc, argv, "BENCH_fig1.json");
  if (!json_path.empty()) {
    using telemetry::Json;
    Json p = Json::object();
    p.set("bench", Json::str("fig1"));
    p.set("n", Json::number(static_cast<std::uint64_t>(n)));
    p.set("window_base", Json::number(static_cast<std::uint64_t>(w0)));
    Json words = Json::array();
    for (std::size_t i = 0; i < 2 * n; ++i) {
      const bool reg = i >= w0 && i <= w0 + n;
      const int mult =
          static_cast<int>(n) - std::abs(static_cast<int>(i) - 7);
      Json word = Json::object();
      word.set("word", Json::number(static_cast<std::uint64_t>(i)));
      word.set("residency", Json::str(reg ? "REG" : "mem"));
      word.set("touches",
               Json::number(static_cast<std::uint64_t>(8 * std::max(0, mult))));
      words.push(std::move(word));
    }
    p.set("words", std::move(words));
    p.set("in_window_per_pass",
          Json::number(static_cast<std::uint64_t>(in_window)));
    p.set("accumulations_per_pass", Json::number(std::uint64_t{64}));
    bench::write_manifest(json_path, "bench_fig1", std::move(p));
  }
  return 0;
}
