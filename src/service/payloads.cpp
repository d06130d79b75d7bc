#include "service/payloads.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "armvm/dispatch.h"
#include "profile/heatmap.h"
#include "sim/batch.h"
#include "workloads/registry.h"

namespace eccm0::service {

using telemetry::Json;

namespace {

std::string hex64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string pct(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%", rate * 100.0);
  return buf;
}

std::string fmt_ber(double ber) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.0e", ber);
  return buf;
}

Json ops_json(const ec::FieldOpCounts& ops) {
  Json o = Json::object();
  o.set("mul", Json::number(ops.mul));
  o.set("sqr", Json::number(ops.sqr));
  o.set("inv", Json::number(ops.inv));
  o.set("add", Json::number(ops.add));
  return o;
}

/// Codeword width of one 32-bit data word under each memory model.
std::uint64_t storage_bits_per_word(armvm::MemModelKind kind) {
  if (kind == armvm::MemModelKind::kParity) return 33;
  if (kind == armvm::MemModelKind::kSecded) return 39;
  return 32;
}

/// First swept BER at which `profile` leaks silent-wrong results under
/// this model, or "none-in-sweep".
std::string first_silent_ber(const faultsim::MemModelReport& rep,
                             unsigned profile) {
  for (const faultsim::MemCell& cell : rep.cells) {
    if (cell.per_profile[profile].silent > 0) return fmt_ber(cell.ber);
  }
  return "none-in-sweep";
}

}  // namespace

Json workload_payload(const workloads::WorkloadSpec& spec, unsigned reps,
                      const workloads::ReplayResult& result,
                      armvm::Cpu::DecodeMode engine,
                      const armvm::MemModelConfig& mem_model) {
  Json p = Json::object();
  p.set("workload", Json::str(spec.name));
  p.set("transaction", Json::str(spec.transaction));
  p.set("curve", Json::str(spec.curve.name));
  p.set("point_muls", Json::number(std::uint64_t{spec.point_muls}));
  p.set("reps", Json::number(std::uint64_t{reps}));
  p.set("engine", Json::str(armvm::decode_mode_name(engine)));
  p.set("mem_model", Json::str(armvm::mem_model_name(mem_model.kind)));
  p.set("ops", ops_json(spec.ops));
  p.set("instructions", Json::number(result.stats.instructions));
  p.set("cycles", Json::number(result.stats.cycles));
  p.set("energy_uj", Json::number(result.stats.energy().energy_uj()));
  p.set("fused_retired", Json::number(result.fused_retired));
  p.set("output_digest", Json::number(result.output_digest));
  return p;
}

Json campaign_payload(const faultsim::CampaignResult& result) {
  const auto& profiles = faultsim::protection_profiles();
  Json p = Json::object();
  p.set("bench", Json::str("fault_campaign"));
  p.set("curve", Json::str(result.config.curve));
  p.set("seed", Json::number(result.config.seed));
  p.set("runs_per_model", Json::number(result.config.runs_per_model));
  Json matrix = Json::object();
  for (unsigned i = 0; i < faultsim::kNumProfiles; ++i) {
    Json row = Json::object();
    for (const faultsim::ModelResult& m : result.models) {
      row.set(faultsim::fault_model_name(m.model),
              Json::str(pct(m.per_profile[i].silent_rate())));
    }
    matrix.set(profiles[i].name, std::move(row));
  }
  p.set("silent_rate_matrix", std::move(matrix));
  Json models = Json::array();
  for (const faultsim::ModelResult& m : result.models) {
    Json mj = Json::object();
    mj.set("model", Json::str(faultsim::fault_model_name(m.model)));
    mj.set("runs", Json::number(m.runs));
    mj.set("injected", Json::number(m.injected));
    Json per = Json::array();
    for (unsigned i = 0; i < faultsim::kNumProfiles; ++i) {
      const faultsim::OutcomeTally& t = m.per_profile[i];
      Json pj = Json::object();
      pj.set("profile", Json::str(profiles[i].name));
      pj.set("correct", Json::number(t.correct));
      pj.set("detected", Json::number(t.detected));
      pj.set("crashed", Json::number(t.crashed));
      pj.set("silent", Json::number(t.silent));
      pj.set("silent_rate", Json::number(t.silent_rate()));
      per.push(std::move(pj));
    }
    mj.set("profiles", std::move(per));
    models.push(std::move(mj));
  }
  p.set("models", std::move(models));
  Json overhead = Json::array();
  for (unsigned i = 0; i < faultsim::kNumProfiles; ++i) {
    const faultsim::ProfileCost& c = result.costs[i];
    Json cj = Json::object();
    cj.set("profile", Json::str(profiles[i].name));
    cj.set("fmul", Json::number(c.ops.mul));
    cj.set("fsqr", Json::number(c.ops.sqr));
    cj.set("finv", Json::number(c.ops.inv));
    cj.set("fadd", Json::number(c.ops.add));
    cj.set("cycles", Json::number(c.cycles));
    cj.set("energy_uj", Json::number(c.energy_uj));
    overhead.push(std::move(cj));
  }
  p.set("overhead", std::move(overhead));
  return p;
}

Json mem_campaign_payload(const faultsim::MemCampaignResult& result) {
  const auto& profiles = faultsim::protection_profiles();
  const faultsim::MemCampaignConfig& cfg = result.config;
  Json p = Json::object();
  p.set("bench", Json::str("memfault"));
  p.set("curve", Json::str(cfg.curve));
  p.set("seed", Json::number(cfg.seed));
  p.set("runs_per_cell", Json::number(cfg.runs_per_cell));
  p.set("engine", Json::str(armvm::decode_mode_name(cfg.engine)));
  p.set("scrub_interval", Json::number(cfg.scrub_interval));
  Json bers = Json::array();
  for (double b : cfg.bers) {
    Json bj = Json::object();
    bj.set("ber", Json::number(b));
    bers.push(std::move(bj));
  }
  p.set("bers", std::move(bers));
  Json overhead = Json::array();
  for (const faultsim::MemModelReport& rep : result.models) {
    Json oj = Json::object();
    oj.set("model", Json::str(armvm::mem_model_name(rep.config.kind)));
    oj.set("wait_states", Json::number(std::uint64_t{rep.config.wait_states}));
    oj.set("storage_bits_per_word",
           Json::number(storage_bits_per_word(rep.config.kind)));
    oj.set("clean_cycles", Json::number(rep.clean_cycles));
    oj.set("clean_energy_pj", Json::number(rep.clean_energy_pj));
    overhead.push(std::move(oj));
  }
  p.set("overhead", std::move(overhead));
  Json models = Json::array();
  for (const faultsim::MemModelReport& rep : result.models) {
    Json mj = Json::object();
    mj.set("model", Json::str(armvm::mem_model_name(rep.config.kind)));
    Json cells = Json::array();
    for (const faultsim::MemCell& c : rep.cells) {
      Json cj = Json::object();
      cj.set("ber", Json::number(c.ber));
      cj.set("flipped_bits", Json::number(c.flipped_bits));
      cj.set("hw_corrections", Json::number(c.hw_corrections));
      cj.set("scrub_corrections", Json::number(c.scrub_corrections));
      Json per = Json::array();
      for (unsigned i = 0; i < faultsim::kNumProfiles; ++i) {
        const faultsim::MemOutcomeTally& t = c.per_profile[i];
        Json pj = Json::object();
        pj.set("profile", Json::str(profiles[i].name));
        pj.set("correct", Json::number(t.correct));
        pj.set("corrected", Json::number(t.corrected));
        pj.set("detected", Json::number(t.detected));
        pj.set("crashed", Json::number(t.crashed));
        pj.set("silent", Json::number(t.silent));
        pj.set("silent_rate", Json::number(t.silent_rate()));
        per.push(std::move(pj));
      }
      cj.set("profiles", std::move(per));
      cells.push(std::move(cj));
    }
    mj.set("cells", std::move(cells));
    models.push(std::move(mj));
  }
  p.set("models", std::move(models));
  Json headline = Json::array();
  for (const faultsim::MemModelReport& rep : result.models) {
    Json hj = Json::object();
    hj.set("model", Json::str(armvm::mem_model_name(rep.config.kind)));
    hj.set("first_silent_ber_unprotected", Json::str(first_silent_ber(rep, 0)));
    hj.set("first_silent_ber_protected",
           Json::str(first_silent_ber(rep, faultsim::kNumProfiles - 1)));
    headline.push(std::move(hj));
  }
  p.set("headline", std::move(headline));
  return p;
}

Json ct_payload(const sca::CtReport& report) {
  Json p = Json::object();
  p.set("kernel", Json::str(report.target));
  p.set("timing_constant", Json::boolean(report.constant));
  p.set("addr_constant", Json::boolean(report.constant_addresses));
  p.set("instructions", Json::number(report.trace_len));
  p.set("min_cycles", Json::number(report.min_cycles));
  p.set("max_cycles", Json::number(report.max_cycles));
  p.set("digest", Json::str(hex64(report.digest)));
  return p;
}

Json tvla_payload(const std::string& kernel,
                  const sca::TvlaCampaignResult& result) {
  const sca::TvlaSummary& s = result.summary;
  Json p = Json::object();
  p.set("kernel", Json::str(kernel));
  p.set("traces", Json::number(result.traces));
  p.set("compared_cycles", Json::number(std::uint64_t{s.compared_cycles}));
  p.set("max_abs_t", Json::number(s.max_abs_t));
  p.set("cycles_over_raw", Json::number(std::uint64_t{s.cycles_over_raw}));
  p.set("cycles_over", Json::number(std::uint64_t{s.cycles_over}));
  p.set("length_leak", Json::boolean(s.length_leak));
  p.set("leaky", Json::boolean(s.leaky));
  p.set("t_digest", Json::str(hex64(result.t_digest)));
  return p;
}

Json functions_payload(
    const std::vector<profile::Profiler::FunctionStats>& functions) {
  Json fns = Json::array();
  for (const profile::Profiler::FunctionStats& f : functions) {
    Json fj = Json::object();
    fj.set("name", Json::str(f.name));
    fj.set("calls", Json::number(f.calls));
    fj.set("instructions", Json::number(f.instructions));
    fj.set("self_cycles", Json::number(f.self_cycles));
    fj.set("inclusive_cycles", Json::number(f.inclusive_cycles));
    fj.set("self_energy_pj", Json::number(f.self_energy_pj()));
    fj.set("inclusive_energy_pj", Json::number(f.inclusive_energy_pj()));
    fns.push(std::move(fj));
  }
  return fns;
}

// ---- kernel profiling ------------------------------------------------

void load_profile_operands(const std::string& kernel, armvm::Memory& mem) {
  const workloads::KernelInfo info =
      workloads::KernelRegistry::instance().info(kernel);
  if (info.binary_field) {
    const workloads::KernelOperands& od = workloads::KernelOperands::standard();
    workloads::load_mul_inputs(mem, od.x, od.y);
    workloads::load_sqr_table(mem);
    workloads::load_inv_input(mem, od.a);  // also the sqr input slot
    return;
  }
  const workloads::CurveRef& curve = workloads::curve_from_name(info.curve);
  const workloads::PrimeOperands& od = workloads::PrimeOperands::standard(curve);
  workloads::load_prime_modulus(mem, curve);
  workloads::load_prime_mul_inputs(mem, od.x, od.y);
  workloads::load_prime_inv_input(mem, od.a);
  workloads::load_prime_wide_input(mem, od.wide);  // consumed by -redc
}

namespace {

/// One execution context's share of a profile: a private KernelMachine
/// over the shared registry image, with its own Profiler + MemHeatmap
/// fanned in through a TeeSink.
KernelProfile profile_context(const std::string& kernel, unsigned calls,
                              armvm::Cpu::DecodeMode engine,
                              const armvm::MemModelConfig& mem_model) {
  workloads::KernelMachine km(workloads::kernel(kernel), engine, mem_model);
  profile::Profiler prof(km.prog());
  profile::MemHeatmap heat(workloads::kKernelRamSize);
  armvm::TeeSink tee({&prof, &heat});
  km.cpu().set_trace_sink(&tee);
  for (unsigned c = 0; c < calls; ++c) {
    load_profile_operands(kernel, km.mem());
    km.call();
  }
  KernelProfile part;
  part.contexts = 1;
  part.stats = km.cpu().stats();
  part.functions = prof.functions();
  part.loads.resize(heat.words());
  part.stores.resize(heat.words());
  for (std::size_t w = 0; w < heat.words(); ++w) {
    part.loads[w] = heat.loads_at(w);
    part.stores[w] = heat.stores_at(w);
  }
  return part;
}

}  // namespace

KernelProfile profile_kernel(const std::string& kernel, unsigned calls,
                             armvm::Cpu::DecodeMode engine,
                             const armvm::MemModelConfig& mem_model,
                             unsigned threads,
                             telemetry::MetricsRegistry* metrics) {
  sim::BatchExecutor pool(threads);
  pool.set_metrics(metrics);
  const unsigned contexts = std::max(1u, std::min(pool.threads(), calls));
  std::vector<unsigned> share(contexts, calls / contexts);
  for (unsigned c = 0; c < calls % contexts; ++c) ++share[c];
  const std::vector<KernelProfile> parts =
      pool.map<KernelProfile>(contexts, [&](std::size_t c) {
        return profile_context(kernel, share[c], engine, mem_model);
      });

  KernelProfile all;
  all.contexts = contexts;
  std::map<std::string, profile::Profiler::FunctionStats> merged;
  for (const KernelProfile& p : parts) {
    all.stats.instructions += p.stats.instructions;
    all.stats.cycles += p.stats.cycles;
    all.stats.histogram += p.stats.histogram;
    all.loads.resize(std::max(all.loads.size(), p.loads.size()));
    all.stores.resize(all.loads.size());
    for (std::size_t w = 0; w < p.loads.size(); ++w) {
      all.loads[w] += p.loads[w];
      all.stores[w] += p.stores[w];
    }
    for (const profile::Profiler::FunctionStats& f : p.functions) {
      profile::Profiler::FunctionStats& m = merged[f.name];
      m.name = f.name;
      m.addr = f.addr;
      m.calls += f.calls;
      m.instructions += f.instructions;
      m.self_cycles += f.self_cycles;
      m.inclusive_cycles += f.inclusive_cycles;
      m.self_hist += f.self_hist;
      m.inclusive_hist += f.inclusive_hist;
    }
  }
  for (auto& [name, f] : merged) all.functions.push_back(std::move(f));
  std::stable_sort(all.functions.begin(), all.functions.end(),
                   [](const auto& a, const auto& b) {
                     return a.self_cycles > b.self_cycles;
                   });
  return all;
}

Json profile_payload(const std::string& kernel, unsigned calls,
                     const KernelProfile& profile) {
  Json p = Json::object();
  p.set("kernel", Json::str(kernel));
  p.set("calls", Json::number(std::uint64_t{calls}));
  p.set("instructions", Json::number(profile.stats.instructions));
  p.set("cycles", Json::number(profile.stats.cycles));
  p.set("energy_uj", Json::number(profile.stats.energy().energy_uj()));
  p.set("functions", functions_payload(profile.functions));
  return p;
}

}  // namespace eccm0::service
