// Host-side throughput of the armvm interpreter (simulated MIPS), on the
// workload every reproduction number in this repo is made of: the K-233
// field kernels in the mix a real wTNAF w=4 `kP` executes them.
//
// Three engines run the exact same instruction stream:
//   reference  — DecodeMode::kPerStep, the seed interpreter's
//                decode-every-retired-instruction loop
//   predecoded — DecodeMode::kPredecode, the construction-time decode
//                cache + tight run loop
//   threaded   — DecodeMode::kThreaded, token-threaded dispatch over the
//                same cache with basic-block superinstructions and
//                batched accounting (armvm/superinst.h)
// The bench asserts their cycle counts, per-class histograms, energy
// reports and kernel outputs are bit-identical, then reports the host
// speedups. A fourth section fans the threaded workload across a
// sim::BatchExecutor (`--threads N`, default hardware concurrency) —
// one execution context per worker over the same shared images — and
// asserts the batched digest matches the serial one (when the executor
// resolves to one worker the serial measurement IS the batched one, so
// batch_speedup is 1.0 by construction instead of measuring the same
// loop twice). Flags follow the shared bench::Args convention:
// `--json[=PATH]` (default BENCH_vm_throughput.json) writes the mirror,
// `--iters=N` scales the workload (reps), `--threads=N` sizes the
// batched section and `--enforce` turns the speedup targets (predecoded
// >= 3x reference, threaded >= 2.5x predecoded) into the exit code.
// Under --json the static+dynamic fusion census is also mirrored to
// fusion_report.json (the CI bench job uploads it as an artifact).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "armvm/cpu.h"
#include "armvm/dispatch.h"
#include "armvm/superinst.h"
#include "asmkernels/gen.h"
#include "ec/costing.h"
#include "manifest.h"
#include "report.h"
#include "sim/batch.h"
#include "telemetry/metrics.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"

using namespace eccm0;
using armvm::Cpu;

namespace {

struct WorkloadResult {
  armvm::RunStats stats;
  double seconds = 0.0;
  // Digest of every kernel-output word, to prove the engines computed
  // the same values (not just the same costs).
  std::uint64_t output_digest = 0;
  // Threaded-engine fusion census (zero on the other engines).
  std::uint64_t fused_retired = 0;
  std::uint64_t fused_blocks = 0;

  double mips() const {
    return static_cast<double>(stats.instructions) / seconds / 1e6;
  }
  double fused_fraction() const {
    return stats.instructions == 0
               ? 0.0
               : static_cast<double>(fused_retired) /
                     static_cast<double>(stats.instructions);
  }
};

void mix64(std::uint64_t& h, std::uint32_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
}

/// One `kP`'s worth of field-kernel executions (counts taken from a real
/// wTNAF w=4 sect233k1 run), repeated `reps` times on one engine.
WorkloadResult run_workload(Cpu::DecodeMode mode, const ec::FieldOpCounts& ops,
                            unsigned reps) {
  workloads::KernelMachine mul(workloads::kernel("mul"), mode);
  workloads::KernelMachine sqr(workloads::kernel("sqr"), mode);
  workloads::KernelMachine inv(workloads::kernel("inv"), mode);

  // Deterministic operands, same for every engine.
  const workloads::KernelOperands& od = workloads::KernelOperands::standard();
  workloads::load_mul_inputs(mul.mem(), od.x, od.y);
  workloads::load_sqr_table(sqr.mem());
  workloads::load_sqr_input(sqr.mem(), od.a);

  WorkloadResult r;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned rep = 0; rep < reps; ++rep) {
    for (std::uint64_t i = 0; i < ops.mul; ++i) mul.call();
    for (std::uint64_t i = 0; i < ops.sqr; ++i) sqr.call();
    for (std::uint64_t i = 0; i < ops.inv; ++i) {
      // The EEA kernel consumes its scratch state; re-seed the input so
      // every inversion runs the same (data-dependent) trace.
      workloads::load_inv_input(inv.mem(), od.a);
      inv.call();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.stats = mul.cpu().stats();
  r.stats.instructions += sqr.cpu().stats().instructions;
  r.stats.instructions += inv.cpu().stats().instructions;
  r.stats.cycles += sqr.cpu().stats().cycles + inv.cpu().stats().cycles;
  r.stats.histogram += sqr.cpu().stats().histogram;
  r.stats.histogram += inv.cpu().stats().histogram;
  r.fused_retired = mul.cpu().fused_retired() + sqr.cpu().fused_retired() +
                    inv.cpu().fused_retired();
  r.fused_blocks = mul.cpu().fused_blocks_entered() +
                   sqr.cpu().fused_blocks_entered() +
                   inv.cpu().fused_blocks_entered();
  for (int w = 0; w < 8; ++w) {
    mix64(r.output_digest,
          mul.mem().load32(armvm::kRamBase + asmkernels::kVOff + 4 * w));
    mix64(r.output_digest,
          sqr.mem().load32(armvm::kRamBase + asmkernels::kOutOff + 4 * w));
    mix64(r.output_digest,
          inv.mem().load32(armvm::kRamBase + asmkernels::kOutOff + 4 * w));
  }
  return r;
}

/// `reps` independent workload units fanned across the batch executor:
/// each task builds its own execution contexts over the registry's
/// shared images and runs one kP mix on the threaded engine. Returns the
/// combined digest (order-independent by construction: serial fold over
/// the per-task digests in index order).
WorkloadResult run_batched(const ec::FieldOpCounts& ops, unsigned reps,
                           unsigned threads,
                           telemetry::MetricsRegistry* metrics) {
  sim::BatchExecutor pool(threads);
  pool.set_metrics(metrics);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<WorkloadResult> parts = pool.map<WorkloadResult>(
      reps, [&](std::size_t) {
        return run_workload(Cpu::DecodeMode::kThreaded, ops, 1);
      });
  const auto t1 = std::chrono::steady_clock::now();
  WorkloadResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const WorkloadResult& p : parts) {
    r.stats.instructions += p.stats.instructions;
    r.stats.cycles += p.stats.cycles;
    r.stats.histogram += p.stats.histogram;
    r.fused_retired += p.fused_retired;
    r.fused_blocks += p.fused_blocks;
    mix64(r.output_digest, static_cast<std::uint32_t>(p.output_digest));
    mix64(r.output_digest, static_cast<std::uint32_t>(p.output_digest >> 32));
  }
  return r;
}

bool identical(const armvm::RunStats& a, const armvm::RunStats& b) {
  if (a.instructions != b.instructions || a.cycles != b.cycles) return false;
  for (int i = 0; i < static_cast<int>(costmodel::InstrClass::kCount); ++i) {
    if (a.histogram.cycles[i] != b.histogram.cycles[i]) return false;
  }
  const auto ea = a.energy(), eb = b.energy();
  return ea.energy_uj() == eb.energy_uj() && ea.time_ms() == eb.time_ms();
}

const char* dispatch_name() {
  return armvm::threaded_dispatch_uses_computed_goto() ? "computed-goto"
                                                       : "switch";
}

/// Static + dynamic fusion census: per-kernel block counts and coverage
/// from the frozen ThreadedImages, plus the dynamic coverage the
/// threaded workload run actually saw.
telemetry::Json fusion_report(const WorkloadResult& thr) {
  using telemetry::Json;
  Json p = Json::object();
  p.set("report", Json::str("superinstruction_fusion"));
  p.set("dispatch", Json::str(dispatch_name()));
  p.set("min_fuse_length",
        Json::number(static_cast<std::uint64_t>(armvm::kMinFuseLength)));
  Json kernels = Json::object();
  for (const std::string& name : workloads::KernelRegistry::instance().names()) {
    const armvm::ThreadedImage& img = workloads::kernel(name)->threaded();
    std::uint64_t longest = 0;
    for (const armvm::SuperBlock& b : img.blocks) {
      if (b.count > longest) longest = b.count;
    }
    Json k = Json::object();
    k.set("blocks", Json::number(static_cast<std::uint64_t>(img.blocks.size())));
    k.set("fused_slots", Json::number(img.fused_slots));
    k.set("valid_slots", Json::number(img.valid_slots));
    k.set("longest_block", Json::number(longest));
    k.set("coverage",
          Json::number(img.valid_slots == 0
                           ? 0.0
                           : static_cast<double>(img.fused_slots) /
                                 static_cast<double>(img.valid_slots)));
    kernels.set(name, std::move(k));
  }
  p.set("static", std::move(kernels));
  Json dynamic = Json::object();
  dynamic.set("workload", Json::str("wTNAF w=4 kP field-kernel mix"));
  dynamic.set("instructions", Json::number(thr.stats.instructions));
  dynamic.set("fused_retired", Json::number(thr.fused_retired));
  dynamic.set("fused_blocks_entered", Json::number(thr.fused_blocks));
  dynamic.set("fused_fraction", Json::number(thr.fused_fraction()));
  p.set("dynamic", std::move(dynamic));
  return p;
}

/// One engine's row of the mirror: the `head` members (engine name
/// first), then the run totals.
telemetry::Json engine_json(telemetry::Json head, const WorkloadResult& r) {
  using telemetry::Json;
  head.set("instructions", Json::number(r.stats.instructions));
  head.set("cycles", Json::number(r.stats.cycles));
  head.set("host_seconds", Json::number(r.seconds));
  return head;
}

telemetry::Json engine_head(const char* engine) {
  telemetry::Json head = telemetry::Json::object();
  head.set("engine", telemetry::Json::str(engine));
  return head;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned rounds = 3;
  bool enforce = false;  // --enforce: exit nonzero when a target is missed
  bench::Args args;
  args.iters = 3;    // reps
  args.threads = 0;  // 0 = hardware concurrency
  args.add_flag("--enforce", &enforce);
  if (!args.parse(argc - 1, argv + 1, "BENCH_vm_throughput.json") ||
      !args.positionals().empty()) {
    return 2;
  }
  // Zero work would make every rate NaN.
  const unsigned reps = args.iters == 0 ? 1 : static_cast<unsigned>(args.iters);
  const unsigned threads = args.threads;

  bench::banner("VM host throughput - threaded / pre-decoded / per-step");

  // Field-op mix of one real wTNAF w=4 kP on sect233k1.
  const ec::FieldOpCounts& ops = workloads::kp_mix_sect233k1();
  std::printf("kP workload (wTNAF w=4, sect233k1): %llu mul, %llu sqr, "
              "%llu inv per rep; %u rep(s), best of %u rounds\n"
              "threaded dispatch: %s\n\n",
              static_cast<unsigned long long>(ops.mul),
              static_cast<unsigned long long>(ops.sqr),
              static_cast<unsigned long long>(ops.inv), reps, rounds,
              armvm::threaded_dispatch_uses_computed_goto() ? "computed goto"
                                                            : "switch");

  WorkloadResult ref, pre, thr;
  for (unsigned round = 0; round < rounds; ++round) {
    WorkloadResult a = run_workload(Cpu::DecodeMode::kPerStep, ops, reps);
    WorkloadResult b = run_workload(Cpu::DecodeMode::kPredecode, ops, reps);
    WorkloadResult c = run_workload(Cpu::DecodeMode::kThreaded, ops, reps);
    if (!identical(a.stats, b.stats) || a.output_digest != b.output_digest ||
        !identical(a.stats, c.stats) || a.output_digest != c.output_digest) {
      std::fprintf(stderr,
                   "FAIL: engines diverged (cycles %llu / %llu / %llu, "
                   "digest %llx / %llx / %llx)\n",
                   static_cast<unsigned long long>(a.stats.cycles),
                   static_cast<unsigned long long>(b.stats.cycles),
                   static_cast<unsigned long long>(c.stats.cycles),
                   static_cast<unsigned long long>(a.output_digest),
                   static_cast<unsigned long long>(b.output_digest),
                   static_cast<unsigned long long>(c.output_digest));
      return 1;
    }
    if (round == 0 || a.mips() > ref.mips()) ref = a;
    if (round == 0 || b.mips() > pre.mips()) pre = b;
    if (round == 0 || c.mips() > thr.mips()) thr = c;
  }

  const double speedup = pre.mips() / ref.mips();
  const double threaded_speedup = thr.mips() / pre.mips();

  // Batched section: the same threaded workload fanned across the batch
  // executor. The one-thread digest is the determinism reference; when
  // the pool resolves to a single worker, the serial run IS the batched
  // run (measuring the identical loop twice only reports host noise).
  const unsigned pool_threads = sim::BatchExecutor(threads).threads();
  telemetry::MetricsRegistry metrics;
  const WorkloadResult serial1 = run_batched(ops, reps, 1, &metrics);
  const WorkloadResult batched =
      pool_threads <= 1 ? serial1 : run_batched(ops, reps, threads, &metrics);
  if (batched.output_digest != serial1.output_digest ||
      batched.stats.instructions != serial1.stats.instructions ||
      batched.stats.cycles != serial1.stats.cycles) {
    std::fprintf(stderr, "FAIL: batch executor diverged from serial\n");
    return 1;
  }
  const double batch_speedup = serial1.seconds / batched.seconds;
  // The single-worker regression gate: a one-worker pool must never pay
  // pool overhead (it runs the serial loop directly, so this is exact).
  // Multi-worker speedups are reported but not gated — they measure host
  // scheduling noise as much as the executor.
  if (pool_threads <= 1 && batch_speedup < 0.99) {
    std::fprintf(stderr,
                 "FAIL: batch executor slower than serial (%.3fx) at "
                 "%u thread(s)\n",
                 batch_speedup, pool_threads);
    return 1;
  }

  bench::Table t({"Engine", "sim instructions", "sim cycles", "host s",
                  "sim MIPS"});
  t.add_row({"per-step decode (seed)", bench::fmt_u64(ref.stats.instructions),
             bench::fmt_u64(ref.stats.cycles), bench::fmt_f(ref.seconds, 4),
             bench::fmt_f(ref.mips(), 1)});
  t.add_row({"pre-decoded cache", bench::fmt_u64(pre.stats.instructions),
             bench::fmt_u64(pre.stats.cycles), bench::fmt_f(pre.seconds, 4),
             bench::fmt_f(pre.mips(), 1)});
  t.add_row({"threaded + superinstructions",
             bench::fmt_u64(thr.stats.instructions),
             bench::fmt_u64(thr.stats.cycles), bench::fmt_f(thr.seconds, 4),
             bench::fmt_f(thr.mips(), 1)});
  t.add_row({"threaded, batched", bench::fmt_u64(batched.stats.instructions),
             bench::fmt_u64(batched.stats.cycles),
             bench::fmt_f(batched.seconds, 4),
             bench::fmt_f(batched.mips(), 1)});
  t.print();
  std::printf("\nSpeedups: pre-decoded %.2fx over per-step (target >= 3x), "
              "threaded %.2fx over pre-decoded (target >= 2.5x);\n"
              "cycle counts, histograms and energy reports bit-identical "
              "across all engines\n",
              speedup, threaded_speedup);
  std::printf("Fusion: %.1f%% of retirements inside superblocks "
              "(%llu blocks entered)\n",
              100.0 * thr.fused_fraction(),
              static_cast<unsigned long long>(thr.fused_blocks));
  std::printf("Batch executor: %.2fx over 1-thread serial (%u worker(s)), "
              "digest bit-identical\n",
              batch_speedup, pool_threads);

  if (args.json) {
    using telemetry::Json;
    Json p = Json::object();
    p.set("bench", Json::str("vm_throughput"));
    Json workload = Json::object();
    workload.set("kind", Json::str("wTNAF w=4 kP field-kernel mix, sect233k1"));
    workload.set("mul", Json::number(ops.mul));
    workload.set("sqr", Json::number(ops.sqr));
    workload.set("inv", Json::number(ops.inv));
    workload.set("reps", Json::number(std::uint64_t{reps}));
    p.set("workload", std::move(workload));
    Json reference = engine_json(engine_head("per-step decode"), ref);
    reference.set("sim_mips", Json::number(ref.mips()));
    p.set("reference", std::move(reference));
    Json predecoded = engine_json(engine_head("pre-decoded cache"), pre);
    predecoded.set("sim_mips", Json::number(pre.mips()));
    p.set("predecoded", std::move(predecoded));
    Json threaded_head = engine_head("token-threaded + superinstructions");
    threaded_head.set("dispatch", Json::str(dispatch_name()));
    Json threaded = engine_json(std::move(threaded_head), thr);
    threaded.set("sim_mips", Json::number(thr.mips()));
    threaded.set("fused_retired", Json::number(thr.fused_retired));
    threaded.set("fused_blocks_entered", Json::number(thr.fused_blocks));
    threaded.set("fused_fraction", Json::number(thr.fused_fraction()));
    p.set("threaded", std::move(threaded));
    Json batched_head = engine_head("threaded, batch executor");
    batched_head.set("threads", Json::number(std::uint64_t{pool_threads}));
    Json batch = engine_json(std::move(batched_head), batched);
    batch.set("batch_speedup", Json::number(batch_speedup));
    p.set("batched", std::move(batch));
    p.set("speedup", Json::number(speedup));
    p.set("threaded_speedup", Json::number(threaded_speedup));
    p.set("bit_identical", Json::boolean(true));
    bench::write_manifest(args.json_path, "bench_vm_throughput", std::move(p),
                          &args, &metrics);
    bench::write_manifest("fusion_report.json", "bench_vm_throughput:fusion",
                          fusion_report(thr));
  }
  return (enforce && (speedup < 3.0 || threaded_speedup < 2.5)) ? 2 : 0;
}
