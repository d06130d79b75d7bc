#include "campaigns.h"

#include <cstdio>
#include <stdexcept>

#include "armvm/dispatch.h"
#include "service/payloads.h"
#include "telemetry/progress.h"
#include "workloads/spec.h"

namespace eccm0::bench {

using telemetry::Json;

namespace {

std::string pct(double rate) { return fmt_f(rate * 100.0, 1) + "%"; }

std::string fmt_ber(double ber) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0e", ber);
  return buf;
}

const char* verdict(bool ok, const char* pass = "PASS",
                    const char* fail = "FLAG") {
  return ok ? pass : fail;
}

}  // namespace

bool check_curve(const std::string& name) {
  try {
    (void)workloads::curve_from_name(name);
    return true;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return false;
  }
}

FaultCampaignRun run_fault_campaign(faultsim::CampaignConfig cfg,
                                    const Args& args,
                                    telemetry::MetricsRegistry& metrics) {
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  cfg.engine = armvm::decode_mode_from_name(args.engine);
  cfg.curve = args.curve;
  telemetry::ProgressMeter progress(
      telemetry::progress_mode_from_name(args.progress), "fault campaign",
      cfg.runs_per_model * faultsim::kNumFaultModels);
  cfg.metrics = &metrics;
  cfg.progress = &progress;

  const std::string title =
      "Fault-injection campaign: hardened kP on " + cfg.curve;
  banner(title.c_str());
  std::printf("seed 0x%llx, %llu injections per fault model, %u thread(s)"
              "\n\n",
              static_cast<unsigned long long>(cfg.seed),
              static_cast<unsigned long long>(cfg.runs_per_model),
              cfg.threads);
  FaultCampaignRun run{faultsim::run_kp_campaign(cfg), Json()};
  const faultsim::CampaignResult& res = run.result;
  const auto& profiles = faultsim::protection_profiles();

  // Coverage matrix: % of injections that escape as silent corruption.
  std::vector<std::string> header{"silent corruption"};
  for (const auto& m : res.models) {
    header.push_back(faultsim::fault_model_name(m.model));
  }
  Table coverage(std::move(header));
  for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
    std::vector<std::string> row{profiles[p].name};
    for (const auto& m : res.models) {
      row.push_back(pct(m.per_profile[p].silent_rate()));
    }
    coverage.add_row(std::move(row));
  }
  coverage.print();

  // Outcome detail per fault model.
  for (const auto& m : res.models) {
    banner(faultsim::fault_model_name(m.model));
    Table t({"profile", "correct", "detected", "crashed", "silent"});
    for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
      const auto& o = m.per_profile[p];
      t.add_row({profiles[p].name, fmt_u64(o.correct), fmt_u64(o.detected),
                 fmt_u64(o.crashed), fmt_u64(o.silent)});
    }
    t.print();
  }

  // What the countermeasures cost when nothing goes wrong.
  banner("clean-run overhead (proposed-asm prices)");
  Table cost({"profile", "Fmul", "Fsqr", "Finv", "cycles", "overhead",
              "energy uJ"});
  const std::uint64_t base_cycles = res.costs[0].cycles;
  for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
    const auto& c = res.costs[p];
    const double over =
        100.0 * (static_cast<double>(c.cycles) / base_cycles - 1.0);
    cost.add_row({profiles[p].name, fmt_u64(c.ops.mul), fmt_u64(c.ops.sqr),
                  fmt_u64(c.ops.inv), fmt_u64(c.cycles),
                  fmt_f(over, 2) + "%", fmt_f(c.energy_uj, 2)});
  }
  cost.print();
  run.payload = service::campaign_payload(res);
  return run;
}

MemCampaignRun run_mem_campaign(faultsim::MemCampaignConfig cfg,
                                const Args& args,
                                telemetry::MetricsRegistry& metrics) {
  cfg.seed = args.seed;
  cfg.threads = args.threads;
  cfg.engine = armvm::decode_mode_from_name(args.engine);
  cfg.curve = args.curve;
  telemetry::ProgressMeter progress(
      telemetry::progress_mode_from_name(args.progress), "mem campaign",
      cfg.runs_per_cell * cfg.bers.size() * cfg.models.size());
  cfg.metrics = &metrics;
  cfg.progress = &progress;

  banner("Memory-fault campaign: SRAM bit errors vs codeword models");
  std::printf("seed 0x%llx, curve %s, %llu runs per (model x BER) cell, "
              "%u thread(s), engine %s, SECDED scrub every %llu accesses\n\n",
              static_cast<unsigned long long>(cfg.seed), cfg.curve.c_str(),
              static_cast<unsigned long long>(cfg.runs_per_cell), cfg.threads,
              armvm::decode_mode_name(cfg.engine),
              static_cast<unsigned long long>(cfg.scrub_interval));
  MemCampaignRun run{faultsim::run_mem_campaign(cfg), Json()};
  const faultsim::MemCampaignResult& res = run.result;
  run.payload = service::mem_campaign_payload(res);
  const auto& profiles = faultsim::protection_profiles();

  // Silent-corruption matrices: model x BER, weakest and strongest
  // software profile. The strongest row is the paper-level claim: what
  // leaks through scalarmul_protected when the SRAM itself goes bad.
  for (unsigned p : {0u, faultsim::kNumProfiles - 1}) {
    banner(("silent corruption, software profile '" +
            std::string(profiles[p].name) + "'")
               .c_str());
    std::vector<std::string> header{"model \\ BER"};
    for (double b : cfg.bers) header.push_back(fmt_ber(b));
    Table m(std::move(header));
    for (const auto& rep : res.models) {
      std::vector<std::string> row{armvm::mem_model_name(rep.config.kind)};
      for (const auto& cell : rep.cells) {
        row.push_back(pct(cell.per_profile[p].silent_rate()));
      }
      m.add_row(std::move(row));
    }
    m.print();
  }

  // Outcome detail per model.
  for (const auto& rep : res.models) {
    banner(armvm::mem_model_name(rep.config.kind));
    Table t({"BER", "profile", "correct", "corrected", "detected", "crashed",
             "silent", "hw-fix", "scrub-fix"});
    for (const auto& cell : rep.cells) {
      for (unsigned p = 0; p < faultsim::kNumProfiles; ++p) {
        const auto& o = cell.per_profile[p];
        t.add_row({fmt_ber(cell.ber), profiles[p].name, fmt_u64(o.correct),
                   fmt_u64(o.corrected), fmt_u64(o.detected),
                   fmt_u64(o.crashed), fmt_u64(o.silent),
                   fmt_u64(cell.hw_corrections),
                   fmt_u64(cell.scrub_corrections)});
      }
    }
    t.print();
  }

  // What each codeword scheme costs when nothing goes wrong: one clean
  // VM mul kernel call, wait-states included (Table-3 kMemWait pricing).
  banner("clean-run codeword overhead (one VM mul kernel call)");
  Table cost({"model", "wait-states", "cycles", "cycle overhead", "energy pJ",
              "energy overhead"});
  const std::uint64_t base_cycles = res.models.front().clean_cycles;
  const double base_pj = res.models.front().clean_energy_pj;
  for (const auto& rep : res.models) {
    const double cyc_over =
        100.0 * (static_cast<double>(rep.clean_cycles) /
                     static_cast<double>(base_cycles) -
                 1.0);
    const double pj_over = 100.0 * (rep.clean_energy_pj / base_pj - 1.0);
    cost.add_row({armvm::mem_model_name(rep.config.kind),
                  std::to_string(rep.config.wait_states),
                  fmt_u64(rep.clean_cycles), fmt_f(cyc_over, 2) + "%",
                  fmt_f(rep.clean_energy_pj, 0), fmt_f(pj_over, 2) + "%"});
  }
  cost.print();

  // Headline: where does each scheme start leaking silent corruption?
  banner("silent-wrong onset (first BER in sweep with silent > 0)");
  Table onset({"model", "unprotected kP", "scalarmul_protected"});
  for (const Json& h : run.payload.get("headline")->items()) {
    onset.add_row({h.get("model")->as_string(),
                   h.get("first_silent_ber_unprotected")->as_string(),
                   h.get("first_silent_ber_protected")->as_string()});
  }
  onset.print();
  return run;
}

Json sca_payload(const Args& args, const std::string& curve) {
  Json p = Json::object();
  p.set("bench", Json::str("sca"));
  p.set("curve", Json::str(curve));
  p.set("seed", Json::number(args.seed));
  p.set("traces_per_class", Json::number(args.iters));
  return p;
}

std::vector<sca::CtReport> run_constant_trace(
    const std::vector<std::string>& kernels, const Args& args,
    telemetry::MetricsRegistry& metrics, Json& payload) {
  banner("Constant-trace verification (16 random operand draws)");
  Table t({"kernel", "timing", "addresses", "instrs", "cycles", "digest",
           "first divergence"});
  std::vector<sca::CtReport> reports;
  Json entries = Json::array();
  for (const std::string& kernel : kernels) {
    sca::CtConfig cfg;
    cfg.kernel = kernel;
    cfg.seed = args.seed;
    cfg.engine = armvm::decode_mode_from_name(args.engine);
    cfg.metrics = &metrics;
    const sca::CtReport& rep =
        reports.emplace_back(sca::check_kernel_constant_trace(cfg));
    Json entry = service::ct_payload(rep);
    std::string where = "-";
    if (rep.first.diverged) {
      where = "#" + std::to_string(rep.first.index) + " " +
              rep.first.symbol_a + " (" + rep.first.reason + ")";
    }
    std::string cycles = std::to_string(rep.ref_cycles);
    if (rep.min_cycles != rep.max_cycles) {
      cycles = std::to_string(rep.min_cycles) + ".." +
               std::to_string(rep.max_cycles);
    }
    t.add_row({kernel, verdict(rep.constant), verdict(rep.constant_addresses),
               fmt_u64(rep.trace_len), cycles,
               entry.get("digest")->as_string(), where});
    entries.push(std::move(entry));
  }
  t.print();
  payload.set("constant_trace", std::move(entries));
  return reports;
}

std::vector<sca::TvlaCampaignResult> run_tvla(
    const std::vector<std::string>& kernels, const Args& args,
    telemetry::MetricsRegistry& metrics, Json& payload) {
  banner("TVLA fixed-vs-random (Welch t, |t| > 4.5)");
  Table t({"kernel", "traces", "cycles", "max|t|", "raw>thr", "confirmed",
           "len-leak", "verdict", "t-digest"});
  telemetry::ProgressMeter progress(
      telemetry::progress_mode_from_name(args.progress), "tvla traces",
      kernels.size() * 2 * args.iters);
  std::vector<sca::TvlaCampaignResult> results;
  Json entries = Json::array();
  for (const std::string& kernel : kernels) {
    sca::TvlaCampaignConfig cfg;
    cfg.kernel = kernel;
    cfg.traces_per_class = static_cast<unsigned>(args.iters);
    cfg.seed = args.seed;
    cfg.threads = args.threads;
    cfg.engine = armvm::decode_mode_from_name(args.engine);
    cfg.metrics = &metrics;
    cfg.progress = &progress;
    const sca::TvlaCampaignResult& res =
        results.emplace_back(sca::run_tvla_campaign(cfg));
    const sca::TvlaSummary& s = res.summary;
    Json entry = service::tvla_payload(kernel, res);
    t.add_row({kernel, fmt_u64(res.traces), fmt_u64(s.compared_cycles),
               fmt_f(s.max_abs_t), fmt_u64(s.cycles_over_raw),
               fmt_u64(s.cycles_over), s.length_leak ? "yes" : "no",
               verdict(!s.leaky, "CLEAN", "LEAKY"),
               entry.get("t_digest")->as_string()});
    entries.push(std::move(entry));
  }
  t.print();
  payload.set("tvla", std::move(entries));
  return results;
}

void print_functions(
    const std::vector<profile::Profiler::FunctionStats>& functions,
    std::uint64_t total_cycles) {
  Table t({"function", "calls", "instrs", "self cyc", "incl cyc", "self uJ",
           "self %"});
  for (const auto& f : functions) {
    t.add_row({f.name, fmt_u64(f.calls), fmt_u64(f.instructions),
               fmt_u64(f.self_cycles), fmt_u64(f.inclusive_cycles),
               fmt_f(f.self_energy_pj() * 1e-6, 4),
               fmt_f(100.0 * static_cast<double>(f.self_cycles) /
                         static_cast<double>(total_cycles),
                     1)});
  }
  t.print();
}

}  // namespace eccm0::bench
