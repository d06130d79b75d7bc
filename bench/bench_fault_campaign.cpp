// Fault-injection campaign: detection coverage of the hardened kP path.
//
// Runs seeded fault injections (register flips, RAM flips, instruction
// skips, opcode flips) against the armvm field-multiplication kernel
// inside a live sect233k1 wTNAF scalar multiplication, classifies every
// run under each countermeasure profile of ec::scalarmul_protected, and
// prints the coverage matrix: countermeasure set x fault model -> %
// silent corruption. The overhead table prices what each profile costs
// on a clean run (cycles and uJ, proposed-asm prices), and a final demo
// shows ECDSA verify-after-sign refusing a faulted signature. The
// campaign front-end itself (tables + payload) is shared with
// `ecctool campaign` (campaigns.h).
//
// Flags (bench::Args): --runs=N (default 1000 per model), --quick (25
//        per model), --seed=S, --curve=NAME (sect233k1 default; the
//        secp curves fault the Montgomery-mul kernel inside a Jacobian
//        wNAF ladder instead), --threads=N (batch-executor workers,
//        default 1, 0 = hardware concurrency; tallies identical for any
//        value), --json[=PATH] (default BENCH_fault_campaign.json).
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "campaigns.h"
#include "crypto/ecdsa.h"
#include "manifest.h"

namespace {

using namespace eccm0;

/// Coherence demo: one deterministic fault in the nonce multiplication
/// k*G. Returns {caught_with_check, escaped_without_check}.
std::pair<bool, bool> ecdsa_coherence_demo() {
  crypto::Ecdsa ecdsa;
  std::vector<std::uint8_t> seed(32, 0x5A);
  crypto::HmacDrbg drbg(seed);
  const crypto::KeyPair kp = ecdsa.generate(drbg);
  const char* msg = "fault campaign coherence demo";
  ecdsa.set_mul_tamper([](std::uint64_t idx, const gf2::Elem&,
                          const gf2::Elem&, gf2::Elem& r) {
    if (idx == 100) r[0] ^= 1u;  // one flipped bit inside k*G
  });
  bool caught = false;
  try {
    (void)ecdsa.sign(kp.d, msg, {.coherence_check = true});
  } catch (const ec::FaultDetectedError&) {
    caught = true;
  }
  bool escaped = false;
  try {
    const crypto::Signature sig = ecdsa.sign(kp.d, msg, {});
    // Without the check the faulty signature leaves the node; it cannot
    // verify, so a peer would reject it — but the node never knows.
    escaped = !ecdsa.verify(kp.q, msg, sig);
  } catch (const ec::FaultDetectedError&) {
  }
  return {caught, escaped};
}

}  // namespace

int main(int argc, char** argv) {
  faultsim::CampaignConfig cfg;
  bool quick = false;
  bench::Args args;
  args.seed = cfg.seed;
  args.threads = cfg.threads;
  args.add_flag("--quick", &quick);
  args.add_u64("--runs", &cfg.runs_per_model);
  if (!args.parse(argc - 1, argv + 1, "BENCH_fault_campaign.json") ||
      !args.positionals().empty() || !bench::check_curve(args.curve)) {
    return 2;
  }
  if (quick) cfg.runs_per_model = 25;

  telemetry::MetricsRegistry metrics;
  const auto t0 = std::chrono::steady_clock::now();
  bench::FaultCampaignRun run = bench::run_fault_campaign(cfg, args, metrics);
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_seconds = std::chrono::duration<double>(t1 - t0).count();

  // ECDSA verify-after-sign.
  bench::banner("ECDSA sign coherence check");
  const auto [caught, escaped] = ecdsa_coherence_demo();
  std::printf("faulted k*G with coherence check : %s\n",
              caught ? "FaultDetectedError (sign refused)" : "NOT DETECTED");
  std::printf("same fault, no coherence check   : %s\n",
              escaped ? "invalid signature released silently"
                      : "signature unexpectedly fine");
  std::printf("\ncampaign wall time: %.2f s (%u thread(s))\n", wall_seconds,
              run.result.config.threads);

  bench::banner("telemetry");
  metrics.print(stdout);

  if (args.json) {
    // Wall time and thread count stay out of the persisted payload: the
    // manifest must be byte-identical for a fixed seed (CI compares the
    // parallel rerun's payload against the committed serial baseline).
    run.payload.set("ecdsa_coherence_detected",
                    telemetry::Json::boolean(caught));
    run.payload.set("ecdsa_unchecked_escape", telemetry::Json::boolean(escaped));
    bench::write_manifest(args.json_path, "bench_fault_campaign",
                          std::move(run.payload), &args, &metrics);
  }

  // The bench doubles as an assertion: with every countermeasure on,
  // nothing silent may survive, and without them faults must be visible.
  bool unprotected_sees_silent = false;
  for (const auto& m : run.result.models) {
    if (m.per_profile[0].silent > 0) unprotected_sees_silent = true;
    if (m.per_profile[faultsim::kNumProfiles - 1].silent != 0) {
      std::fprintf(stderr, "FAIL: silent corruption under full protection\n");
      return 1;
    }
  }
  if (!unprotected_sees_silent) {
    std::fprintf(stderr, "FAIL: no silent corruption without protection?\n");
    return 1;
  }
  if (!caught || !escaped) {
    std::fprintf(stderr, "FAIL: ECDSA coherence demo inconclusive\n");
    return 1;
  }
  return 0;
}
