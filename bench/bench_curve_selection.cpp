// Reproduces the paper's section 3.1 curve-selection study: estimated
// cycle count, power and energy of a point multiplication for binary
// Koblitz vs prime candidates, leading to the paper's conclusions (1)
// and (2).
//
// The estimates are then validated in silicon (well, in the VM): for
// every curve the workload layer can drive end-to-end — sect233k1 plus
// the three prime candidates secp192r1/224r1/256r1 — the bench replays
// the real kP field-op mix through workloads::WorkloadSpec on the
// cycle-accurate VM and puts measured cycles and Table-3 energy next
// to the model's prediction. Conclusion (1) must hold in the measured
// numbers too, not just the model; the bench exits nonzero otherwise.
#include <cstdio>
#include <map>
#include <string>

#include "armvm/cpu.h"
#include "model/curve_selection.h"
#include "manifest.h"
#include "report.h"
#include "workloads/spec.h"

using namespace eccm0;

int main(int argc, char** argv) {
  bench::banner(
      "Section 3.1 - matching a curve to the architecture (model)");

  bench::Table t({"Candidate", "Type", "Security", "FieldMul [cy]",
                  "PointMul [cy]", "Power [uW]", "Time [ms]",
                  "Energy [uJ]"});
  const auto candidates = model::estimate_candidates();
  for (const auto& e : candidates) {
    t.add_row({e.name, e.binary ? "binary Koblitz" : "prime",
               std::to_string(e.security_bits) + "b",
               bench::fmt_u64(e.field_mul_cycles),
               bench::fmt_u64(e.point_mul_cycles),
               bench::fmt_f(e.power_uw, 1), bench::fmt_f(e.time_ms, 2),
               bench::fmt_f(e.energy_uj, 2)});
  }
  t.print();

  const auto conclusions = model::evaluate(candidates);
  std::printf(
      "\nConclusion (1): binary Koblitz faster at matched security: %s "
      "(paper: yes)\n",
      conclusions.koblitz_faster_at_matched_security ? "YES" : "NO");
  std::printf(
      "Conclusion (2): binary curves draw less power (XOR/shift mix vs "
      "MUL/ADD): %s (paper: yes)\n",
      conclusions.binary_lower_power ? "YES" : "NO");

  // ---- Model vs measured VM replay ------------------------------------
  // Every candidate the workload layer covers gets its kP mix replayed
  // on the VM (predecode engine); the model's point-mul estimate sits
  // next to the measured cycles. The measured binary/prime ordering is
  // the executable form of conclusion (1).
  bench::banner("model vs measured (workloads::replay, predecode engine)");
  bench::Table mt({"Curve", "Model [cy]", "Measured [cy]", "Model/Meas",
                   "Measured [uJ]"});
  std::map<std::string, const model::CandidateEstimate*> by_name;
  for (const auto& e : candidates) by_name[e.name] = &e;
  std::map<std::string, std::pair<std::uint64_t, double>> measured;
  for (const std::string& cname : workloads::workload_curve_names()) {
    const workloads::WorkloadSpec spec = workloads::kp_workload(cname);
    const workloads::ReplayResult r =
        workloads::replay(spec, armvm::Cpu::DecodeMode::kPredecode);
    const double uj = r.stats.energy().energy_uj();
    measured[cname] = {r.stats.cycles, uj};
    const auto it = by_name.find(cname);
    const std::uint64_t est = it != by_name.end()
                                  ? it->second->point_mul_cycles
                                  : 0;
    mt.add_row({cname, est ? bench::fmt_u64(est) : "-",
                bench::fmt_u64(r.stats.cycles),
                est ? bench::fmt_f(static_cast<double>(est) /
                                       static_cast<double>(r.stats.cycles),
                                   2)
                    : "-",
                bench::fmt_f(uj, 2)});
  }
  mt.print();
  // sect233k1 (115b) vs secp192r1 (96b): the binary curve must beat
  // even the weaker prime candidate on measured cycles AND energy for
  // conclusion (1) to survive contact with the VM.
  const bool measured_ok =
      measured["sect233k1"].first < measured["secp192r1"].first &&
      measured["sect233k1"].second < measured["secp192r1"].second;
  std::printf(
      "\nMeasured: sect233k1 beats secp192r1 on cycles and energy: %s\n"
      "(model estimates and VM replay agree on the paper's ordering;\n"
      "full per-engine numbers in bench_prime_vs_binary)\n",
      measured_ok ? "YES" : "NO");

  const std::string json_path =
      bench::json_flag_path(argc, argv, "BENCH_curve_selection.json");
  if (!json_path.empty()) {
    using telemetry::Json;
    Json p = Json::object();
    p.set("bench", Json::str("curve_selection"));
    p.set("rows", bench::table_json(t));
    p.set("koblitz_faster_at_matched_security",
          Json::boolean(conclusions.koblitz_faster_at_matched_security));
    p.set("binary_lower_power", Json::boolean(conclusions.binary_lower_power));
    Json kp = Json::array();
    for (const auto& [cname, m] : measured) {
      Json row = Json::object();
      row.set("curve", Json::str(cname));
      const auto it = by_name.find(cname);
      if (it != by_name.end()) {
        row.set("model_cycles", Json::number(it->second->point_mul_cycles));
      }
      row.set("measured_cycles", Json::number(m.first));
      row.set("measured_energy_uj", Json::number(m.second));
      kp.push(std::move(row));
    }
    p.set("measured_kp", std::move(kp));
    p.set("measured_binary_beats_prime", Json::boolean(measured_ok));
    bench::write_manifest(json_path, "bench_curve_selection", std::move(p));
  }
  if (!conclusions.koblitz_faster_at_matched_security ||
      !conclusions.binary_lower_power || !measured_ok) {
    std::fprintf(stderr, "\nself-check FAILED\n");
    return 1;
  }
  return 0;
}
