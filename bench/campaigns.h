// Campaign front-ends shared by the bench mains and their ecctool twins:
//
//   bench_fault_campaign  <->  ecctool campaign   run_fault_campaign
//   bench_memfault        <->  ecctool memfault   run_mem_campaign
//   bench_sca             <->  ecctool sca        run_constant_trace,
//                                                 run_tvla
//
// Each routine takes a config its caller already parsed (defaults,
// --runs / --quick, model or BER restrictions), applies the shared
// bench::Args flags (seed, threads, engine, curve, progress), runs the
// library campaign, prints its tables and returns the result together
// with its payload. Payloads come from the service builders
// (service/payloads.h), so a bench, ecctool and a served request report
// one shape. The mains keep only their defaults, self-checks and extras.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faultsim/campaign.h"
#include "profile/profiler.h"
#include "report.h"
#include "sca/campaign.h"
#include "sca/ct_check.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"

namespace eccm0::bench {

/// Validate `--curve=`: an unknown name is reported on stderr with the
/// accepted set, and the caller exits 2.
bool check_curve(const std::string& name);

struct FaultCampaignRun {
  faultsim::CampaignResult result;
  telemetry::Json payload;  ///< service::campaign_payload(result)
};

/// The kP fault campaign: prints the silent-corruption coverage matrix,
/// the per-model outcome tallies and the clean-run overhead table.
FaultCampaignRun run_fault_campaign(faultsim::CampaignConfig cfg,
                                    const Args& args,
                                    telemetry::MetricsRegistry& metrics);

struct MemCampaignRun {
  faultsim::MemCampaignResult result;
  telemetry::Json payload;  ///< service::mem_campaign_payload(result)
};

/// The SRAM bit-error campaign: prints the model x BER silent-corruption
/// matrices (weakest and strongest software profile), the per-model
/// outcome tallies, the clean-run codeword overhead and the silent-wrong
/// onset per model.
MemCampaignRun run_mem_campaign(faultsim::MemCampaignConfig cfg,
                                const Args& args,
                                telemetry::MetricsRegistry& metrics);

/// Head of a leakage payload: bench tag, curve, seed, traces per class.
telemetry::Json sca_payload(const Args& args, const std::string& curve);

/// Constant-trace verification of each kernel: prints one table row per
/// kernel and sets payload["constant_trace"].
std::vector<sca::CtReport> run_constant_trace(
    const std::vector<std::string>& kernels, const Args& args,
    telemetry::MetricsRegistry& metrics, telemetry::Json& payload);

/// Fixed-vs-random TVLA of each kernel (`args.iters` traces per class):
/// prints one table row per kernel and sets payload["tvla"].
std::vector<sca::TvlaCampaignResult> run_tvla(
    const std::vector<std::string>& kernels, const Args& args,
    telemetry::MetricsRegistry& metrics, telemetry::Json& payload);

/// A profiler function table with each function's share of
/// `total_cycles`.
void print_functions(
    const std::vector<profile::Profiler::FunctionStats>& functions,
    std::uint64_t total_cycles);

}  // namespace eccm0::bench
