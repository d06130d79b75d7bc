// Memory-reliability campaign: SRAM bit errors vs codeword protection.
//
// Sweeps raw storage bit-error rates against the three armvm memory
// models (raw SRAM, parity-per-word, SECDED(39,32)) with the VM field
// multiplication spliced into a live sect233k1 wTNAF kP, classifying
// every run as correct / corrected / detected / crashed / silent-wrong
// under each PR-2 software countermeasure profile. Headlines: the BER
// at which each scheme's silent-wrong rate leaves 0%, and the
// cycle/energy overhead each codeword scheme charges on a clean kernel
// run (wait-states priced at the Table-3 kMemWait rate).
//
// The JSON mirror is fully deterministic — classification counts and
// simulated costs only, no wall-clock numbers — so CI can require the
// parallel re-run to be byte-identical to the committed baseline. The
// campaign front-end (tables + payload) is shared with `ecctool
// memfault` (campaigns.h).
//
// Flags (bench::Args): --runs=N (default 200 per cell), --quick (40),
//        --seed=S, --curve=NAME (sect233k1 default; secp curves splice
//        the Montgomery-mul kernel into a Jacobian wNAF kP), --threads=N
//        (0 = hardware concurrency; tallies identical for any value),
//        --engine=E, --scrub=N (SECDED scrub period in accesses,
//        default 1024, 0 = off),
//        --json[=PATH] (default BENCH_memfault.json).
#include <chrono>
#include <cstdio>
#include <utility>

#include "campaigns.h"
#include "manifest.h"

using namespace eccm0;

int main(int argc, char** argv) {
  faultsim::MemCampaignConfig cfg;
  cfg.scrub_interval = 1024;
  bool quick = false;
  bench::Args args;
  args.seed = cfg.seed;
  args.threads = cfg.threads;
  args.add_flag("--quick", &quick);
  args.add_u64("--runs", &cfg.runs_per_cell);
  args.add_u64("--scrub", &cfg.scrub_interval);
  if (!args.parse(argc - 1, argv + 1, "BENCH_memfault.json") ||
      !args.positionals().empty() || !bench::check_curve(args.curve)) {
    return 2;
  }
  if (quick) cfg.runs_per_cell = 40;

  telemetry::MetricsRegistry metrics;
  const auto t0 = std::chrono::steady_clock::now();
  bench::MemCampaignRun run = bench::run_mem_campaign(cfg, args, metrics);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  std::printf("\ncampaign wall time: %.2f s (%u thread(s))\n", wall_seconds,
              run.result.config.threads);

  bench::banner("telemetry");
  metrics.print(stdout);

  if (args.json) {
    // Deterministic payload only: byte-identical for any --threads, so
    // the CI gate can strict-compare against the committed baseline.
    bench::write_manifest(args.json_path, "bench_memfault",
                          std::move(run.payload), &args, &metrics);
  }

  // The bench doubles as an assertion of the acceptance criterion:
  // there must be a swept BER at which raw RAM leaks silent-wrong
  // results while SECDED holds silent-wrong at exactly 0 — the
  // codeword scheme has to buy measurable integrity, not just cycles.
  const faultsim::MemModelReport* raw = nullptr;
  const faultsim::MemModelReport* secded = nullptr;
  for (const auto& rep : run.result.models) {
    if (rep.config == armvm::MemModelConfig::raw()) raw = &rep;
    if (rep.config.kind == armvm::MemModelKind::kSecded) secded = &rep;
  }
  if (raw != nullptr && secded != nullptr) {
    bool separated = false;
    for (std::size_t c = 0; c < raw->cells.size(); ++c) {
      for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
        if (raw->cells[c].per_profile[p].silent > 0 &&
            secded->cells[c].per_profile[p].silent == 0) {
          separated = true;
        }
      }
    }
    if (!separated) {
      std::fprintf(stderr,
                   "FAIL: no swept BER separates raw (silent > 0) from "
                   "SECDED (silent == 0)\n");
      return 1;
    }
    if (secded->clean_cycles <= raw->clean_cycles) {
      std::fprintf(stderr,
                   "FAIL: SECDED charged no wait-state overhead over raw\n");
      return 1;
    }
  }
  return 0;
}
