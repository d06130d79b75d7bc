// Parallel TVLA campaign over the VM kernels.
//
// Trace collection is embarrassingly parallel and runs through
// sim::BatchExecutor; the statistics are order-sensitive doubles, so
// accumulation happens afterwards, serially, in task-index order. The
// class schedule and every task's randomness are pure functions of
// (seed, task index) — task 2i is a fixed-class trace, task 2i+1 a
// random-class trace, each with its own Rng::split rig-noise stream —
// so the full result, down to the last bit of the t-trace digest, is
// identical for any --threads value.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "measure/power_trace.h"
#include "sca/tvla.h"

namespace eccm0::telemetry {
class MetricsRegistry;
class ProgressMeter;
}

namespace eccm0::sca {

struct TvlaCampaignConfig {
  std::string kernel = "mul";  ///< workloads::KernelRegistry name
  unsigned traces_per_class = 50;
  std::uint64_t seed = 0x7E57ED;
  unsigned threads = 1;  ///< 0 = hardware concurrency (sim::BatchExecutor)
  double threshold = 4.5;
  measure::RigConfig rig;  ///< rig.seed is ignored: re-split per task
  /// Execution engine (`--engine=`). Trace collection is traced, so the
  /// threaded engine falls back per-instruction; t-digests are
  /// engine-independent by construction.
  armvm::Cpu::DecodeMode engine = armvm::Cpu::kDefaultEngine;
  /// Optional telemetry (nullptr = off). The `tvla.trace_cycles`
  /// histogram is recorded at the serial index-ordered accumulation
  /// from trace lengths (simulated cycles), so it is thread-count-
  /// invariant; the progress meter ticks once per collected trace.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::ProgressMeter* progress = nullptr;
};

struct TvlaCampaignResult {
  TvlaSummary summary;
  std::vector<double> t_trace;  ///< per-cycle Welch t, export-ready
  /// Order-sensitive fold over the exact bit patterns of t_trace (plus
  /// both class trace lengths) — the thread-count-invariance witness the
  /// CI gate compares against the committed serial baseline.
  std::uint64_t t_digest = 0;
  std::uint64_t traces = 0;  ///< total traces collected (2 * per class)
};

/// Collect 2 * traces_per_class power traces of cfg.kernel (fixed
/// operands on even task indices, fresh random operands on odd ones) and
/// run the fixed-vs-random Welch test.
TvlaCampaignResult run_tvla_campaign(const TvlaCampaignConfig& cfg);

}  // namespace eccm0::sca
