// The payload builders: the one JSON serializer of each result type.
//
// Every bench, every ecctool subcommand and every serve handler turns a
// library result into JSON through exactly one of these functions, so a
// served payload is byte-identical to the direct call by construction
// and each committed BENCH_*.json baseline has a single owner of its
// shape:
//
//   workloads::ReplayResult       workload_payload      (serve kp/ecdh/ecdsa)
//   faultsim::CampaignResult      campaign_payload      (BENCH_fault_campaign)
//   faultsim::MemCampaignResult   mem_campaign_payload  (BENCH_memfault)
//   sca::CtReport                 ct_payload            (BENCH_sca constant_trace[])
//   sca::TvlaCampaignResult       tvla_payload          (BENCH_sca tvla[])
//   profiler function table       functions_payload     (BENCH_profile functions[])
//
// Payloads carry deterministic data only (simulated cycles, counts,
// digests): no wall-clock numbers and nothing that depends on the
// thread count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "armvm/cpu.h"
#include "armvm/memmodel.h"
#include "faultsim/campaign.h"
#include "profile/profiler.h"
#include "sca/campaign.h"
#include "sca/ct_check.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "workloads/spec.h"

namespace eccm0::service {

/// Payload of the kp / ecdh / ecdsa ops: the workload identity, its
/// field-op mix, and the deterministic replay result (cycles,
/// instructions, fused pairs, output digest) under `engine`/`mem_model`.
telemetry::Json workload_payload(const workloads::WorkloadSpec& spec,
                                 unsigned reps,
                                 const workloads::ReplayResult& result,
                                 armvm::Cpu::DecodeMode engine,
                                 const armvm::MemModelConfig& mem_model);

/// The fault campaign: silent-rate matrix (profile x fault model), the
/// per-model outcome tallies of every protection profile, and the
/// clean-run countermeasure overhead.
telemetry::Json campaign_payload(const faultsim::CampaignResult& result);

/// The SRAM bit-error campaign: the BER sweep, each memory model's
/// clean-run codeword overhead, the per-cell outcome tallies and the
/// silent-wrong onset headline.
telemetry::Json mem_campaign_payload(const faultsim::MemCampaignResult& result);

/// The constant-trace verdicts of one kernel.
telemetry::Json ct_payload(const sca::CtReport& report);

/// The fixed-vs-random TVLA summary of one kernel.
telemetry::Json tvla_payload(const std::string& kernel,
                             const sca::TvlaCampaignResult& result);

/// A profiler function table: per-function calls, instructions, self/
/// inclusive cycles and Table-3 energy, in the order given.
telemetry::Json functions_payload(
    const std::vector<profile::Profiler::FunctionStats>& functions);

// ---- kernel profiling (ecctool profile, serve `profile`) ---------------

/// Write every operand slot the named kernel's family reads (binary:
/// mul inputs, square table, inverse input; prime: modulus, mul/inv
/// inputs, wide REDC input). Called before each profiled call so the
/// consumable slots are re-seeded and repeated calls replay one trace.
void load_profile_operands(const std::string& kernel, armvm::Memory& mem);

/// A kernel profile merged over its execution contexts.
struct KernelProfile {
  unsigned contexts = 0;
  armvm::RunStats stats;
  /// Merged per-function attribution, hottest self cycles first.
  std::vector<profile::Profiler::FunctionStats> functions;
  std::vector<std::uint64_t> loads;   ///< per RAM word
  std::vector<std::uint64_t> stores;  ///< per RAM word
};

/// Run `calls` calls of a registry kernel under the symbol-attributed
/// profiler and a RAM heatmap, fanned across up to `threads` execution
/// contexts (0 = hardware concurrency). Each context has private sinks,
/// merged in context order, so every total is thread-count invariant.
/// Throws std::invalid_argument for an unknown kernel.
KernelProfile profile_kernel(const std::string& kernel, unsigned calls,
                             armvm::Cpu::DecodeMode engine,
                             const armvm::MemModelConfig& mem_model,
                             unsigned threads = 1,
                             telemetry::MetricsRegistry* metrics = nullptr);

/// Payload of a kernel profile: totals plus the function table.
telemetry::Json profile_payload(const std::string& kernel, unsigned calls,
                                const KernelProfile& profile);

}  // namespace eccm0::service
