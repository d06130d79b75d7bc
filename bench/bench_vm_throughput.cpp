// Host-side throughput of the armvm interpreter (simulated MIPS), on the
// workload every reproduction number in this repo is made of: the K-233
// field kernels in the mix a real wTNAF w=4 `kP` executes them — the
// paper's unrolled, fixed-register code — and, next to it, the secp192r1
// field kernels in the mix a w=4 `kP` on that curve executes them: the
// looping prime-field code with subroutine calls, where the threaded
// engine's speed comes from chaining blocks across branches. Both mixes
// run through workloads::replay_stream, the single-stream runner
// workloads::replay is built from, one stream after another: replay()
// itself runs its three streams concurrently, and this bench measures
// the engine on one core.
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
// batched section and `--enforce` turns the speedup targets (threaded
// >= kThreadedOverReference x reference and >= 2.5x predecoded on the
// K-233 mix, threaded >= kPrimeThreadedTarget x predecoded on the
// secp192r1 mix) into the exit code. Under --json the static+dynamic
// fusion census is also mirrored to fusion_report.json (the CI bench job
// uploads it as an artifact).
#include <array>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "armvm/cpu.h"
#include "armvm/superinst.h"
#include "ec/costing.h"
#include "manifest.h"
#include "report.h"
#include "sim/batch.h"
#include "telemetry/metrics.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

using namespace eccm0;
using armvm::Cpu;

namespace {

/// --enforce floor of threaded over per-step sim MIPS on the K-233 kP mix:
/// 3 x 2.5, the product of the old predecoded-over-per-step floor and the
/// threaded-over-predecoded one, so the default engine's floor over the
/// reference does not loosen. The default engine carries the margin the
/// predecoded ratio lacked: 30 solo --iters=2 runs on a 4-core x86-64
/// container read threaded/per-step 7.45-12.32x (median 10.39x; the one
/// run under 7.5x caught its threaded rounds in a slow host phase) while
/// predecoded/per-step missed 3x in 6 of them (2.52-3.45x).
constexpr double kThreadedOverReference = 7.5;

/// --enforce floor of threaded over predecoded sim MIPS on the secp192r1
/// kP mix: ~2.9x measured with block chaining (median of 42 solo runs;
/// ~2.0x without), so the floor keeps more than the margin of the K-233
/// gate (2.5x against ~2.7x measured) and still fails an engine that
/// stops chaining.
constexpr double kPrimeThreadedTarget = 2.3;

struct WorkloadResult {
  armvm::RunStats stats;
  double seconds = 0.0;
  // Digest of every kernel-output word, to prove the engines computed
  // the same values (not just the same costs).
  std::uint64_t output_digest = 0;
  // Threaded-engine fusion census (zero on the other engines).
  std::uint64_t fused_retired = 0;

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

/// One kP's field-kernel mix, `reps` times on one engine, one kernel
/// stream at a time: workloads::replay runs the three streams
/// concurrently, so timing it would credit the engine with their
/// overlap.
WorkloadResult run_mix(const workloads::WorkloadSpec& spec,
                       Cpu::DecodeMode mode, unsigned reps) {
  const workloads::ReplayImages images = workloads::ReplayImages::resolve(spec);
  std::array<workloads::StreamReplay, workloads::kKernelStreams> streams;
  const auto t0 = std::chrono::steady_clock::now();
  for (unsigned s = 0; s < workloads::kKernelStreams; ++s) {
    streams[s] = workloads::replay_stream(
        spec, images, static_cast<workloads::KernelStream>(s), mode,
        armvm::MemModelConfig{}, reps);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const workloads::ReplayResult rr = workloads::merge_streams(streams);
  WorkloadResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.stats = rr.stats;
  r.output_digest = rr.output_digest;
  r.fused_retired = rr.fused_retired;
  return r;
}

/// `reps` independent workload units fanned across the batch executor:
/// each task builds its own execution contexts over the registry's
/// shared images and runs one kP mix on the threaded engine. Returns the
/// combined digest (order-independent by construction: serial fold over
/// the per-task digests in index order).
WorkloadResult run_batched(const workloads::WorkloadSpec& spec, unsigned reps,
                           unsigned threads,
                           telemetry::MetricsRegistry* metrics) {
  sim::BatchExecutor pool(threads);
  pool.set_metrics(metrics);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<WorkloadResult> parts = pool.map<WorkloadResult>(
      reps, [&](std::size_t) {
        return run_mix(spec, Cpu::DecodeMode::kThreaded, 1);
      });
  const auto t1 = std::chrono::steady_clock::now();
  WorkloadResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (const WorkloadResult& p : parts) {
    r.stats.instructions += p.stats.instructions;
    r.stats.cycles += p.stats.cycles;
    r.stats.histogram += p.stats.histogram;
    r.fused_retired += p.fused_retired;
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

/// Dynamic coverage one threaded workload run saw.
telemetry::Json fusion_census(const char* workload, const WorkloadResult& r) {
  using telemetry::Json;
  Json d = Json::object();
  d.set("workload", Json::str(workload));
  d.set("instructions", Json::number(r.stats.instructions));
  d.set("fused_retired", Json::number(r.fused_retired));
  d.set("fused_fraction", Json::number(r.fused_fraction()));
  return d;
}

/// Static + dynamic fusion census: per-kernel block counts and coverage
/// from the frozen ThreadedImages, plus the dynamic coverage the
/// threaded workload runs actually saw.
telemetry::Json fusion_report(const WorkloadResult& thr,
                              const WorkloadResult& prime_thr) {
  using telemetry::Json;
  Json p = Json::object();
  p.set("report", Json::str("superinstruction_fusion"));
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
  p.set("dynamic", fusion_census("wTNAF w=4 kP field-kernel mix", thr));
  p.set("dynamic_secp192r1",
        fusion_census("w=4 kP field-kernel mix, secp192r1", prime_thr));
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
  const workloads::WorkloadSpec k233 = workloads::kp_workload("sect233k1");
  const ec::FieldOpCounts& ops = k233.ops;
  std::printf("kP workload (wTNAF w=4, sect233k1): %llu mul, %llu sqr, "
              "%llu inv per rep; %u rep(s), best of %u rounds\n\n",
              static_cast<unsigned long long>(ops.mul),
              static_cast<unsigned long long>(ops.sqr),
              static_cast<unsigned long long>(ops.inv), reps, rounds);

  WorkloadResult ref, pre, thr;
  for (unsigned round = 0; round < rounds; ++round) {
    WorkloadResult a = run_mix(k233, Cpu::DecodeMode::kPerStep, reps);
    WorkloadResult b = run_mix(k233, Cpu::DecodeMode::kPredecode, reps);
    WorkloadResult c = run_mix(k233, Cpu::DecodeMode::kThreaded, reps);
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
  const double threaded_over_reference = thr.mips() / ref.mips();

  // The secp192r1 mix: predecoded vs threaded only (the per-step
  // reference adds nothing the K-233 rows do not already show).
  const workloads::WorkloadSpec prime = workloads::kp_workload("secp192r1");
  WorkloadResult pre_p, thr_p;
  for (unsigned round = 0; round < rounds; ++round) {
    WorkloadResult b = run_mix(prime, Cpu::DecodeMode::kPredecode, reps);
    WorkloadResult c = run_mix(prime, Cpu::DecodeMode::kThreaded, reps);
    if (!identical(b.stats, c.stats) || b.output_digest != c.output_digest) {
      std::fprintf(stderr,
                   "FAIL: engines diverged on the secp192r1 mix (cycles "
                   "%llu / %llu, digest %llx / %llx)\n",
                   static_cast<unsigned long long>(b.stats.cycles),
                   static_cast<unsigned long long>(c.stats.cycles),
                   static_cast<unsigned long long>(b.output_digest),
                   static_cast<unsigned long long>(c.output_digest));
      return 1;
    }
    if (round == 0 || b.mips() > pre_p.mips()) pre_p = b;
    if (round == 0 || c.mips() > thr_p.mips()) thr_p = c;
  }
  const double prime_threaded_speedup = thr_p.mips() / pre_p.mips();

  // Batched section: the same threaded workload fanned across the batch
  // executor. The one-thread digest is the determinism reference; when
  // the pool resolves to a single worker, the serial run IS the batched
  // run (measuring the identical loop twice only reports host noise).
  const unsigned pool_threads = sim::BatchExecutor(threads).threads();
  telemetry::MetricsRegistry metrics;
  const WorkloadResult serial1 = run_batched(k233, reps, 1, &metrics);
  const WorkloadResult batched =
      pool_threads <= 1 ? serial1 : run_batched(k233, reps, threads, &metrics);
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
  t.add_row({"secp192r1 mix, pre-decoded",
             bench::fmt_u64(pre_p.stats.instructions),
             bench::fmt_u64(pre_p.stats.cycles), bench::fmt_f(pre_p.seconds, 4),
             bench::fmt_f(pre_p.mips(), 1)});
  t.add_row({"secp192r1 mix, threaded",
             bench::fmt_u64(thr_p.stats.instructions),
             bench::fmt_u64(thr_p.stats.cycles), bench::fmt_f(thr_p.seconds, 4),
             bench::fmt_f(thr_p.mips(), 1)});
  t.print();
  std::printf("\nSpeedups: threaded %.2fx over per-step (target >= %.1fx), "
              "threaded %.2fx over pre-decoded (target >= 2.5x), "
              "pre-decoded %.2fx over per-step;\n"
              "secp192r1 mix: threaded %.2fx over pre-decoded (target >= "
              "%.1fx);\n"
              "cycle counts, histograms and energy reports bit-identical "
              "across all engines\n",
              threaded_over_reference, kThreadedOverReference,
              threaded_speedup, speedup, prime_threaded_speedup,
              kPrimeThreadedTarget);
  std::printf("Fusion: %.1f%% of retirements inside superblocks; "
              "secp192r1 mix %.1f%%\n",
              100.0 * thr.fused_fraction(), 100.0 * thr_p.fused_fraction());
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
    Json threaded =
        engine_json(engine_head("token-threaded + superinstructions"), thr);
    threaded.set("sim_mips", Json::number(thr.mips()));
    threaded.set("fused_retired", Json::number(thr.fused_retired));
    threaded.set("fused_fraction", Json::number(thr.fused_fraction()));
    p.set("threaded", std::move(threaded));
    Json batched_head = engine_head("threaded, batch executor");
    batched_head.set("threads", Json::number(std::uint64_t{pool_threads}));
    Json batch = engine_json(std::move(batched_head), batched);
    batch.set("batch_speedup", Json::number(batch_speedup));
    p.set("batched", std::move(batch));
    Json prime_mix = Json::object();
    prime_mix.set("kind", Json::str("w=4 kP field-kernel mix, secp192r1"));
    prime_mix.set("mul", Json::number(prime.ops.mul));
    prime_mix.set("sqr", Json::number(prime.ops.sqr));
    prime_mix.set("inv", Json::number(prime.ops.inv));
    Json prime_pre = engine_json(engine_head("pre-decoded cache"), pre_p);
    prime_pre.set("sim_mips", Json::number(pre_p.mips()));
    prime_mix.set("predecoded", std::move(prime_pre));
    Json prime_thr =
        engine_json(engine_head("token-threaded + superinstructions"), thr_p);
    prime_thr.set("sim_mips", Json::number(thr_p.mips()));
    prime_thr.set("fused_retired", Json::number(thr_p.fused_retired));
    prime_thr.set("fused_fraction", Json::number(thr_p.fused_fraction()));
    prime_mix.set("threaded", std::move(prime_thr));
    prime_mix.set("threaded_speedup", Json::number(prime_threaded_speedup));
    p.set("secp192r1", std::move(prime_mix));
    p.set("speedup", Json::number(speedup));
    p.set("threaded_speedup", Json::number(threaded_speedup));
    p.set("bit_identical", Json::boolean(true));
    bench::write_manifest(args.json_path, "bench_vm_throughput", std::move(p),
                          &args, &metrics);
    bench::write_manifest("fusion_report.json", "bench_vm_throughput:fusion",
                          fusion_report(thr, thr_p));
  }
  return (enforce && (threaded_over_reference < kThreadedOverReference ||
                      threaded_speedup < 2.5 ||
                      prime_threaded_speedup < kPrimeThreadedTarget))
             ? 2
             : 0;
}
