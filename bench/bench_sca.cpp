// Leakage assessment of the reproduced implementation, both detectors:
//
//   1. Constant-trace verification of the K-233 VM kernels under the two
//      criteria (timing = pc/class/cycle stream; addresses = timing +
//      memory-address stream), plus the host-level op-mix checks
//      (Montgomery ladder exact; wTNAF expected-leaky; gf2::traced
//      pricing spread).
//   2. Fixed-vs-random TVLA over the simulated power rig, fanned out
//      through sim::BatchExecutor — bit-identical for any --threads.
//
// The bench is self-checking: it exits nonzero if the paper's
// constant-time story does not reproduce (mul/sqr/reduce/lut must verify
// timing-constant and TVLA-clean, the EEA inversion and wTNAF must be
// flagged). `--json[=PATH]` mirrors the verdicts and digests into
// BENCH_sca.json; CI regenerates it with --threads=4 and diffs the
// digests against the committed serial baseline. The constant-trace and
// TVLA front-ends are shared with `ecctool sca` (campaigns.h).
//
// Flags: --json[=PATH] --threads=N --seed=S --iters=N (traces per class)
//        --curve=NAME (sect233k1 default; a secp curve swaps in its
//        prime kernel set: the raw school-book product must verify
//        constant and TVLA-clean, while the Montgomery kernels' REDC
//        carry loop and the EEA inverse must be flagged; the host-level
//        op-mix checks stay sect233k1-scoped and are skipped).
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "campaigns.h"
#include "manifest.h"
#include "workloads/spec.h"

using namespace eccm0;

namespace {

const char* verdict(bool ok, const char* pass, const char* fail) {
  return ok ? pass : fail;
}

/// A kernel and the verdict the paper's constant-time story predicts
/// for it (timing-constant, or TVLA-leaky).
struct Expect {
  std::string kernel;
  bool expected;
};

std::vector<std::string> kernel_names(const std::vector<Expect>& list) {
  std::vector<std::string> names;
  for (const Expect& e : list) names.push_back(e.kernel);
  return names;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  args.seed = 0x5CA;
  args.iters = 40;  // TVLA traces per class
  if (!args.parse(argc - 1, argv + 1, "BENCH_sca.json") ||
      !args.positionals().empty() || !bench::check_curve(args.curve)) {
    return 2;
  }
  const workloads::CurveRef& curve = workloads::curve_from_name(args.curve);

  bool ok = true;
  telemetry::MetricsRegistry metrics;
  telemetry::Json json = bench::sca_payload(args, curve.name);

  // ---- 1. VM-level constant-trace verification -------------------------
  // Expected: timing-constant (the paper's constant-time story).
  std::vector<Expect> ct_expect;
  if (curve.binary_field) {
    ct_expect = {{"mul", true},  {"sqr", true}, {"reduce", true},
                 {"lut", true},  {"inv", false}};
  } else {
    // Only the raw school-book product is straight-line. Every
    // Montgomery-reduced kernel carries the operand-dependent REDC
    // carry-propagation loop plus the final conditional subtract, and
    // the EEA inverse branches on operand bits.
    const std::string& t = curve.kernel_tag;
    ct_expect = {{t + "-mul", true},   {t + "-mont", false},
                 {t + "-sqr", false},  {t + "-redc", false},
                 {t + "-inv", false}};
  }
  const std::vector<sca::CtReport> ct =
      bench::run_constant_trace(kernel_names(ct_expect), args, metrics, json);
  for (std::size_t i = 0; i < ct.size(); ++i) {
    if (ct[i].constant != ct_expect[i].expected) {
      std::fprintf(stderr, "FAIL: kernel '%s' timing verdict %d, expected %d\n",
                   ct_expect[i].kernel.c_str(), ct[i].constant,
                   ct_expect[i].expected);
      ok = false;
    }
  }
  if (curve.binary_field) {
    std::printf(
        "\nmul and sqr FLAG on 'addresses': their lookup tables are indexed\n"
        "by operand nibbles/bytes. On the cacheless M0+ that stream costs\n"
        "the same cycles and energy regardless, so 'timing' is the paper's\n"
        "constant-time claim; 'addresses' is what a cache-bearing host\n"
        "would additionally need.\n");
  } else {
    std::printf(
        "\nOnly the raw school-book product is straight-line on GF(p):\n"
        "the Montgomery kernels' REDC carry loop and conditional subtract\n"
        "retire an operand-dependent cycle count, and the EEA inverse\n"
        "branches on operand bits — a constant-time port would need a\n"
        "carry-save REDC and a Fermat ladder inverse.\n");
  }

  // ---- 2. Host-level op-mix checks (sect233k1 scope) -------------------
  // The op-mix auditors target the paper's binary-field reproduction
  // (ladder uniformity, wTNAF scalar dependence, gf2::traced pricing);
  // the prime stack's cost accounting is audited by the campaign cost
  // profiles instead.
  if (!curve.binary_field) {
    bench::banner("Host-level operation-mix checks: skipped (sect233k1 scope)");
  } else {
  bench::banner("Host-level operation-mix checks");
  const sca::LadderReport lad = sca::check_ladder_op_mix(8, args.seed);
  std::printf("ladder  per-step mix %lluM %lluS %lluA over %llu steps: %s\n",
              static_cast<unsigned long long>(lad.step_mix.mul),
              static_cast<unsigned long long>(lad.step_mix.sqr),
              static_cast<unsigned long long>(lad.step_mix.add),
              static_cast<unsigned long long>(lad.steps),
              verdict(lad.uniform, "UNIFORM", "NON-UNIFORM"));
  if (!lad.uniform) ok = false;

  const sca::WtnafReport wt = sca::check_wtnaf_op_mix(8, args.seed, 4);
  std::printf("wTNAF   total field ops per kP in [%llu, %llu]: %s\n",
              static_cast<unsigned long long>(wt.min_total),
              static_cast<unsigned long long>(wt.max_total),
              verdict(!wt.uniform, "FLAGGED (scalar-dependent)", "uniform?!"));
  if (wt.uniform) ok = false;

  const sca::TracedMixReport tm = sca::check_traced_op_mix(64, args.seed);
  std::printf(
      "traced  sqr %s, mul spread %.3f%% (live-range trim, tol %.1f%%), "
      "inv spread %.1f%% %s\n",
      verdict(tm.sqr_uniform, "exact", "NON-UNIFORM"), 100.0 * tm.mul_spread,
      100.0 * tm.tolerance, 100.0 * tm.inv_spread,
      verdict(tm.inv_flagged, "FLAGGED", "uniform?!"));
  if (!tm.sqr_uniform || !tm.mul_within_tolerance || !tm.inv_flagged) {
    ok = false;
  }
  using telemetry::Json;
  Json ladder = Json::object();
  ladder.set("uniform", Json::boolean(lad.uniform));
  ladder.set("steps", Json::number(lad.steps));
  ladder.set("mul", Json::number(lad.step_mix.mul));
  ladder.set("sqr", Json::number(lad.step_mix.sqr));
  ladder.set("add", Json::number(lad.step_mix.add));
  json.set("ladder", std::move(ladder));
  Json wtnaf = Json::object();
  wtnaf.set("uniform", Json::boolean(wt.uniform));
  wtnaf.set("min_total", Json::number(wt.min_total));
  wtnaf.set("max_total", Json::number(wt.max_total));
  json.set("wtnaf", std::move(wtnaf));
  Json traced = Json::object();
  traced.set("sqr_uniform", Json::boolean(tm.sqr_uniform));
  traced.set("mul_spread", Json::number(tm.mul_spread));
  traced.set("inv_spread", Json::number(tm.inv_spread));
  json.set("traced_mix", std::move(traced));
  }

  // ---- 3. TVLA fixed-vs-random on the power rig ------------------------
  // Expected: TVLA-leaky.
  std::vector<Expect> tvla_expect;
  if (curve.binary_field) {
    tvla_expect = {{"mul", false}, {"sqr", false}, {"inv", true}};
  } else {
    const std::string& t = curve.kernel_tag;
    tvla_expect = {{t + "-mul", false}, {t + "-mont", true}, {t + "-inv", true}};
  }
  const std::vector<sca::TvlaCampaignResult> tv =
      bench::run_tvla(kernel_names(tvla_expect), args, metrics, json);
  for (std::size_t i = 0; i < tv.size(); ++i) {
    if (tv[i].summary.leaky != tvla_expect[i].expected) {
      std::fprintf(stderr, "FAIL: kernel '%s' TVLA leaky=%d, expected %d\n",
                   tvla_expect[i].kernel.c_str(), tv[i].summary.leaky,
                   tvla_expect[i].expected);
      ok = false;
    }
  }
  std::printf(
      "\nThe rig's power model is class-based, so TVLA here detects\n"
      "operand-dependent control flow: the straight-line kernels are\n"
      "CLEAN, the EEA inversion's data-dependent loop is LEAKY (plus a\n"
      "trace-length leak). 'confirmed' counts cycles over threshold in\n"
      "both independent halves with the same sign (duplicated test);\n"
      "'raw' excursions alone are small-sample noise. The t-digest is\n"
      "invariant under --threads.\n");

  bench::banner("telemetry");
  metrics.print(stdout);

  json.set("self_check", telemetry::Json::str(ok ? "pass" : "fail"));
  if (args.json && !bench::write_manifest(args.json_path, "bench_sca",
                                          std::move(json), &args, &metrics)) {
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr, "\nself-check FAILED\n");
    return 1;
  }
  return 0;
}
