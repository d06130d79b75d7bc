// Symbol-attributed profile of the paper's core workload: the K-233
// field-kernel mix of one wTNAF w=4 `kP` (the same schedule as
// bench_vm_throughput), run traced with a Profiler + MemHeatmap attached
// to each kernel machine.
//
// Outputs:
//   - per-function flat/inclusive cycle, instruction and Table-3 energy
//     attribution for every machine (mul_fixed, sqr, inv), self-checked
//     to match the Cpu's own RunStats *exactly*;
//   - a per-word RAM heatmap of the product vector v[0..15], fixed-
//     register vs plain-memory multiplication — the observational proof
//     of the paper's register-pinning claim (v[3..11] near-zero traffic);
//   - with --json[=PATH] (bench::Args convention, opt-in) a
//     BENCH_profile.json mirror, plus profile_trace.json (Chrome
//     trace-event / Perfetto, simulated 48 MHz clock) and
//     profile_flame.txt (collapsed stacks for flamegraph.pl).
#include <cstdio>
#include <initializer_list>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "armvm/cpu.h"
#include "asmkernels/gen.h"
#include "campaigns.h"
#include "ec/costing.h"
#include "manifest.h"
#include "profile/heatmap.h"
#include "profile/profiler.h"
#include "profile/trace_export.h"
#include "service/payloads.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

using namespace eccm0;
using armvm::Cpu;

namespace {

constexpr std::size_t kRamSize = workloads::kKernelRamSize;

/// One registry kernel with a per-context Profiler + MemHeatmap fanned
/// in via a TeeSink — the image is shared, the sinks are private.
struct Machine {
  std::string name;
  workloads::KernelMachine km;
  profile::Profiler prof;
  profile::MemHeatmap heat;
  armvm::TeeSink tee;
  armvm::Memory& mem;
  Cpu& cpu;

  explicit Machine(const std::string& kernel_name)
      : name(kernel_name),
        km(workloads::kernel(kernel_name)),
        prof(km.prog()),
        heat(kRamSize),
        mem(km.mem()),
        cpu(km.cpu()) {
    tee.add(&prof);
    tee.add(&heat);
    cpu.set_trace_sink(&tee);
  }

  void call() { km.call(); }
};

bool check_totals(Machine& m) {
  const armvm::RunStats s = m.cpu.stats();
  const double model_pj = s.energy().energy_pj;
  const double prof_pj = m.prof.total_energy_pj();
  if (m.prof.total_cycles() != s.cycles ||
      m.prof.total_instructions() != s.instructions || prof_pj != model_pj) {
    std::fprintf(stderr,
                 "FAIL [%s]: profiler totals diverge from RunStats "
                 "(cycles %llu vs %llu, instr %llu vs %llu, "
                 "energy %.3f vs %.3f pJ)\n",
                 m.name.c_str(),
                 static_cast<unsigned long long>(m.prof.total_cycles()),
                 static_cast<unsigned long long>(s.cycles),
                 static_cast<unsigned long long>(m.prof.total_instructions()),
                 static_cast<unsigned long long>(s.instructions), prof_pj,
                 model_pj);
    return false;
  }
  // The root frame's inclusive cost must also be the whole run.
  for (const auto& f : m.prof.functions()) {
    if (f.name == "entry" && f.inclusive_cycles != s.cycles) {
      std::fprintf(stderr,
                   "FAIL [%s]: root inclusive cycles %llu != RunStats %llu\n",
                   m.name.c_str(),
                   static_cast<unsigned long long>(f.inclusive_cycles),
                   static_cast<unsigned long long>(s.cycles));
      return false;
    }
  }
  return true;
}

void print_functions(Machine& m) {
  const armvm::RunStats s = m.cpu.stats();
  std::printf("[%s] %llu instructions, %llu cycles, %.3f uJ\n",
              m.name.c_str(), static_cast<unsigned long long>(s.instructions),
              static_cast<unsigned long long>(s.cycles),
              s.energy().energy_uj());
  bench::print_functions(m.prof.functions(), s.cycles);
  std::printf("\n");
}

/// Loads/stores per named RAM region of one machine.
void print_regions(const Machine& m,
                   std::span<const profile::MemHeatmap::Region> regions) {
  std::printf("%s RAM regions:\n", m.name.c_str());
  bench::Table t({"region", "loads", "stores", "peak word"});
  for (const auto& rep : m.heat.summarize(regions)) {
    t.add_row({rep.name, bench::fmt_u64(rep.loads), bench::fmt_u64(rep.stores),
               bench::fmt_u64(rep.peak_word_traffic)});
  }
  t.print();
}

/// The Perfetto timeline and collapsed stacks of the given machines.
void export_traces(std::initializer_list<Machine*> machines) {
  std::vector<profile::NamedProfile> tracks;
  for (Machine* m : machines) tracks.push_back({m->name, &m->prof});
  if (!profile::write_text_file("profile_trace.json",
                                profile::chrome_trace_json(tracks)) ||
      !profile::write_text_file("profile_flame.txt",
                                profile::collapsed_stack_text(tracks))) {
    std::fprintf(stderr, "warning: could not write trace exports\n");
  } else {
    std::printf("\nwrote profile_trace.json (Perfetto / chrome://tracing) "
                "and profile_flame.txt (flamegraph.pl)\n");
  }
}

/// The payload both curve families share: the kP field-op mix and each
/// machine's totals, function table and call sites.
telemetry::Json profile_json(const std::string& kind,
                             const ec::FieldOpCounts& ops,
                             std::initializer_list<Machine*> machines) {
  using telemetry::Json;
  Json p = Json::object();
  p.set("bench", Json::str("profile"));
  Json workload = Json::object();
  workload.set("kind", Json::str(kind));
  workload.set("mul", Json::number(ops.mul));
  workload.set("sqr", Json::number(ops.sqr));
  workload.set("inv", Json::number(ops.inv));
  p.set("workload", std::move(workload));
  Json all = Json::object();
  for (Machine* m : machines) {
    const armvm::RunStats s = m->cpu.stats();
    Json mj = Json::object();
    mj.set("instructions", Json::number(s.instructions));
    mj.set("cycles", Json::number(s.cycles));
    mj.set("energy_uj", Json::number(s.energy().energy_uj()));
    mj.set("totals_match_runstats", Json::boolean(true));
    mj.set("functions", service::functions_payload(m->prof.functions()));
    Json sites = Json::array();
    for (const auto& cs : m->prof.call_sites()) {
      Json cj = Json::object();
      cj.set("site_pc", Json::number(std::uint64_t{cs.site_pc}));
      cj.set("caller", Json::str(cs.caller));
      cj.set("callee", Json::str(cs.callee));
      cj.set("count", Json::number(cs.count));
      sites.push(std::move(cj));
    }
    mj.set("call_sites", std::move(sites));
    all.set(m->name, std::move(mj));
  }
  p.set("machines", std::move(all));
  return p;
}

/// `--curve=secpNNNr1` profile: the curve's Montgomery kernel mix of one
/// Jacobian wNAF w=4 kP. The register-pinning heatmap comparison is a
/// sect233k1 claim (there is no "plain" comparator kernel on GF(p)), so
/// this path reports attribution + the Montgomery operand regions only.
int run_prime_profile(const bench::Args& args,
                      const workloads::CurveRef& curve) {
  bench::banner("kP field-kernel profile - symbol attribution (GF(p))");

  const ec::FieldOpCounts& ops = workloads::op_mix(curve);
  std::printf("kP workload (Jacobian wNAF w=4, %s): %llu mul, %llu sqr, "
              "%llu inv\n\n",
              curve.name.c_str(), static_cast<unsigned long long>(ops.mul),
              static_cast<unsigned long long>(ops.sqr),
              static_cast<unsigned long long>(ops.inv));

  Machine mont(curve.kernel_tag + "-mont");
  Machine sqr(curve.kernel_tag + "-sqr");
  Machine inv(curve.kernel_tag + "-inv");

  const workloads::PrimeOperands& od = workloads::PrimeOperands::standard(curve);
  for (Machine* m : {&mont, &sqr, &inv}) {
    workloads::load_prime_modulus(m->mem, curve);
  }
  workloads::load_prime_mul_inputs(mont.mem, od.x, od.y);
  workloads::load_prime_mul_inputs(sqr.mem, od.x, od.y);
  workloads::load_prime_inv_input(inv.mem, od.a);

  // All three prime kernels are rerunnable without an operand reload.
  for (std::uint64_t i = 0; i < ops.mul; ++i) mont.call();
  for (std::uint64_t i = 0; i < ops.sqr; ++i) sqr.call();
  for (std::uint64_t i = 0; i < ops.inv; ++i) inv.call();

  bool ok = true;
  for (Machine* m : {&mont, &sqr, &inv}) ok = check_totals(*m) && ok;
  if (!ok) return 1;
  for (Machine* m : {&mont, &sqr, &inv}) print_functions(*m);

  const unsigned n = curve.limbs;
  const profile::MemHeatmap::Region kMontRegions[] = {
      {"t (wide)", asmkernels::kWideOff, 2 * n},
      {"out (reduced)", asmkernels::kOutOff, n},
      {"x (multiplier)", asmkernels::kXOff, n},
      {"y (multiplicand)", asmkernels::kYOff, n},
      {"modulus", asmkernels::kPModOff, n},
  };
  print_regions(mont, kMontRegions);
  export_traces({&mont, &sqr, &inv});

  if (args.json) {
    bench::write_manifest(
        args.json_path, "bench_profile",
        profile_json("Jacobian wNAF w=4 kP field-kernel mix, " + curve.name,
                     ops, {&mont, &sqr, &inv}),
        &args);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Args args;
  if (!args.parse(argc - 1, argv + 1, "BENCH_profile.json") ||
      !args.positionals().empty()) {
    return 2;
  }
  if (!bench::check_curve(args.curve)) return 2;
  const workloads::CurveRef& curve = workloads::curve_from_name(args.curve);
  if (!curve.binary_field) return run_prime_profile(args, curve);

  bench::banner(
      "kP field-kernel profile - symbol attribution + RAM heatmap");

  // Field-op mix of one real wTNAF w=4 kP on sect233k1 (same schedule
  // as bench_vm_throughput, one shared definition in workloads).
  const ec::FieldOpCounts& ops = workloads::kp_mix_sect233k1();
  std::printf("kP workload (wTNAF w=4, sect233k1): %llu mul, %llu sqr, "
              "%llu inv\n\n",
              static_cast<unsigned long long>(ops.mul),
              static_cast<unsigned long long>(ops.sqr),
              static_cast<unsigned long long>(ops.inv));

  // Registry names: "mul" is the fixed-register multiplier, "mul-plain"
  // the memory-resident comparator for the heatmap claim only — same
  // operands, same call count as the fixed machine.
  Machine mul("mul");
  mul.name = "mul_fixed";
  Machine sqr("sqr");
  Machine inv("inv");
  Machine plain("mul-plain");
  plain.name = "mul_plain";

  const workloads::KernelOperands& od = workloads::KernelOperands::standard();
  workloads::load_mul_inputs(mul.mem, od.x, od.y);
  workloads::load_mul_inputs(plain.mem, od.x, od.y);
  workloads::load_sqr_table(sqr.mem);
  workloads::load_sqr_input(sqr.mem, od.a);

  for (std::uint64_t i = 0; i < ops.mul; ++i) {
    mul.call();
    plain.call();
  }
  for (std::uint64_t i = 0; i < ops.sqr; ++i) sqr.call();
  for (std::uint64_t i = 0; i < ops.inv; ++i) {
    workloads::load_inv_input(inv.mem, od.a);
    inv.call();
  }

  // --- Self-check: attribution totals equal RunStats exactly. ---------
  bool ok = true;
  for (Machine* m : {&mul, &sqr, &inv, &plain}) ok = check_totals(*m) && ok;
  if (!ok) return 1;

  for (Machine* m : {&mul, &sqr, &inv}) print_functions(*m);

  // --- Heatmap: the fixed-register claim, per product word. ----------
  std::printf("product-word RAM traffic per multiplication "
              "(%llu calls each):\n",
              static_cast<unsigned long long>(ops.mul));
  bench::Table ht({"v word", "fixed loads", "fixed stores", "plain loads",
                   "plain stores", "pinned"});
  std::uint64_t fixed_pinned = 0, plain_pinned = 0;
  for (std::size_t w = 0; w < 16; ++w) {
    const std::size_t idx = asmkernels::kVOff / 4 + w;
    const bool pinned = w >= 3 && w <= 11;
    if (pinned) {
      fixed_pinned += mul.heat.traffic_at(idx);
      plain_pinned += plain.heat.traffic_at(idx);
    }
    ht.add_row({"v[" + std::to_string(w) + "]",
                bench::fmt_u64(mul.heat.loads_at(idx)),
                bench::fmt_u64(mul.heat.stores_at(idx)),
                bench::fmt_u64(plain.heat.loads_at(idx)),
                bench::fmt_u64(plain.heat.stores_at(idx)),
                pinned ? "yes" : ""});
  }
  ht.print();
  std::printf("\npinned words v[3..11] traffic: fixed %llu vs plain %llu "
              "(%.1fx)\n\n",
              static_cast<unsigned long long>(fixed_pinned),
              static_cast<unsigned long long>(plain_pinned),
              static_cast<double>(plain_pinned) /
                  static_cast<double>(fixed_pinned == 0 ? 1 : fixed_pinned));
  if (plain_pinned <= 10 * fixed_pinned) {
    std::fprintf(stderr,
                 "FAIL: fixed-register claim not observed (plain %llu <= "
                 "10x fixed %llu)\n",
                 static_cast<unsigned long long>(plain_pinned),
                 static_cast<unsigned long long>(fixed_pinned));
    return 1;
  }

  const profile::MemHeatmap::Region kMulRegions[] = {
      {"v (product)", asmkernels::kVOff, 16},
      {"x (multiplier)", asmkernels::kXOff, 8},
      {"y (multiplicand)", asmkernels::kYOff, 8},
      {"LUT (16x8)", asmkernels::kLutOff, 16 * 8},
  };
  print_regions(mul, kMulRegions);
  export_traces({&mul, &sqr, &inv});

  // JSON is opt-in (the standard --json convention); the smoke run under
  // ctest exercises only the self-checks above.
  if (!args.json) return 0;
  using telemetry::Json;
  Json p = profile_json("wTNAF w=4 kP field-kernel mix, sect233k1", ops,
                        {&mul, &sqr, &inv});
  Json heatmap = Json::object();
  heatmap.set("pinned_words", Json::str("v[3..11]"));
  heatmap.set("fixed_pinned_traffic", Json::number(fixed_pinned));
  heatmap.set("plain_pinned_traffic", Json::number(plain_pinned));
  heatmap.set("claim_observed", Json::boolean(true));
  Json words = Json::array();
  for (std::size_t word = 0; word < 16; ++word) {
    const std::size_t idx = asmkernels::kVOff / 4 + word;
    Json wj = Json::object();
    wj.set("word", Json::number(std::uint64_t{word}));
    wj.set("fixed_loads", Json::number(mul.heat.loads_at(idx)));
    wj.set("fixed_stores", Json::number(mul.heat.stores_at(idx)));
    wj.set("plain_loads", Json::number(plain.heat.loads_at(idx)));
    wj.set("plain_stores", Json::number(plain.heat.stores_at(idx)));
    words.push(std::move(wj));
  }
  heatmap.set("v_words", std::move(words));
  p.set("heatmap", std::move(heatmap));
  bench::write_manifest(args.json_path, "bench_profile", std::move(p), &args);
  return 0;
}
