// The workloads layer: registry caching/sharing semantics, the shared
// kP kernel mix, KernelMachine contexts over shared images, and replay()
// against the serial loop it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <set>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

#include "armvm/asm.h"
#include "armvm/fault.h"
#include "asmkernels/gen.h"
#include "workloads/kp_mix.h"
#include "workloads/registry.h"
#include "workloads/spec.h"

namespace eccm0::workloads {
namespace {

TEST(Registry, CachesOneImagePerKernel) {
  // Two lookups return the SAME shared image, not two assemblies.
  const armvm::ProgramRef a = kernel("mul");
  const armvm::ProgramRef b = kernel("mul");
  EXPECT_EQ(a.get(), b.get());
  EXPECT_GT(a->code().size(), 100u);
  EXPECT_NO_THROW(a->entry("entry"));
}

TEST(Registry, KnowsTheBuiltinKernels) {
  auto& reg = KernelRegistry::instance();
  for (const char* name : {"mul", "mul-raw", "mul-plain", "mul-plain-raw",
                           "sqr", "reduce", "lut", "inv", "mul163",
                           "mul163-raw", "mul163-plain", "mul163-plain-raw"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_FALSE(reg.contains("nonesuch"));
  EXPECT_THROW(kernel("nonesuch"), std::out_of_range);
  // names() lists every builtin (and any registered extras).
  const auto names = reg.names();
  const std::set<std::string> set(names.begin(), names.end());
  EXPECT_TRUE(set.count("mul"));
  EXPECT_TRUE(set.count("inv"));
}

TEST(Registry, RejectsDuplicateRegistration) {
  EXPECT_THROW(
      KernelRegistry::instance().add("mul", [] { return std::string(); }),
      std::invalid_argument);
  // Prime entries are just as protected as the historical binary names.
  EXPECT_THROW(
      KernelRegistry::instance().add("p192-mont",
                                     [] { return std::string(); }),
      std::invalid_argument);
}

TEST(Registry, NamesAreSortedAndCurveTagged) {
  auto& reg = KernelRegistry::instance();
  const auto names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  // 12 binary + 15 prime builtins (plus any test-registered extras).
  EXPECT_GE(names.size(), 27u);
  for (const auto& [tag, limbs] : std::vector<std::pair<std::string, unsigned>>{
           {"p192", 6u}, {"p224", 7u}, {"p256", 8u}}) {
    for (const char* suffix : {"-mul", "-mont", "-sqr", "-redc", "-inv"}) {
      const std::string name = tag + suffix;
      ASSERT_TRUE(reg.contains(name)) << name;
      const KernelInfo info = reg.info(name);
      EXPECT_FALSE(info.binary_field) << name;
      EXPECT_EQ(info.limbs, limbs) << name;
      EXPECT_EQ(info.curve.substr(0, 4), "secp") << name;
    }
  }
  EXPECT_TRUE(reg.info("mul").binary_field);
  EXPECT_EQ(reg.info("mul").curve, "sect233k1");
  EXPECT_THROW(reg.info("nonesuch"), std::out_of_range);
}

TEST(Registry, ConcurrentLookupsShareOneImage) {
  // Hammer the lazy-build path from several threads; every thread must
  // see the same pointer.
  std::vector<std::thread> threads;
  std::vector<const armvm::Program*> seen(8, nullptr);
  for (unsigned t = 0; t < 8; ++t) {
    threads.emplace_back([t, &seen] { seen[t] = kernel("mul163").get(); });
  }
  for (auto& th : threads) th.join();
  for (unsigned t = 1; t < 8; ++t) EXPECT_EQ(seen[t], seen[0]);
}

TEST(Registry, ConcurrentColdGetBuildsExactlyOnce) {
  // A freshly registered kernel is guaranteed cold (no other test can
  // have resolved it), so every thread races the first build. The
  // builder must run exactly once and all threads must see one image.
  static std::atomic<int> builds{0};
  KernelRegistry::instance().add(
      "test-cold-p192",
      [] {
        builds.fetch_add(1);
        return asmkernels::gen_prime_mul(6);
      },
      {"secp192r1", false, 6});
  std::vector<std::thread> threads;
  std::vector<const armvm::Program*> seen(8, nullptr);
  for (unsigned t = 0; t < 8; ++t) {
    threads.emplace_back(
        [t, &seen] { seen[t] = kernel("test-cold-p192").get(); });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (unsigned t = 0; t < 8; ++t) {
    ASSERT_NE(seen[t], nullptr);
    EXPECT_EQ(seen[t], seen[0]);
  }
}

TEST(Spec, CurveFromNameKnowsAllFourAndRejectsTheRest) {
  const auto names = workload_curve_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  EXPECT_EQ(names.size(), 4u);
  for (const char* n :
       {"secp192r1", "secp224r1", "secp256r1", "sect233k1"}) {
    const CurveRef& c = curve_from_name(n);
    EXPECT_EQ(c.name, n);
    EXPECT_GE(c.limbs, 6u);
  }
  EXPECT_FALSE(curve_from_name("secp256r1").binary_field);
  EXPECT_TRUE(curve_from_name("sect233k1").binary_field);
  try {
    (void)curve_from_name("secp521r1");
    FAIL() << "unknown curve accepted";
  } catch (const std::invalid_argument& e) {
    // The message must list the accepted names (the exit-2 usage text).
    EXPECT_NE(std::string(e.what()).find("sect233k1"), std::string::npos);
  }
  EXPECT_THROW(make_workload("keygen", "sect233k1"), std::invalid_argument);
}

TEST(KpMix, IsCachedAndPlausible) {
  const ec::FieldOpCounts& ops = kp_mix_sect233k1();
  EXPECT_EQ(&ops, &kp_mix_sect233k1());  // one cached derivation
  // One wTNAF w=4 kP on a 233-bit scalar: hundreds of muls, hundreds of
  // sqrs, a single final inversion (plus the table build's).
  EXPECT_GT(ops.mul, 100u);
  EXPECT_GT(ops.sqr, 100u);
  EXPECT_GE(ops.inv, 1u);
  EXPECT_LT(ops.inv, 10u);
}

TEST(KpMix, StandardOperandsAreInField) {
  const KernelOperands& od = KernelOperands::standard();
  EXPECT_EQ(&od, &KernelOperands::standard());
  EXPECT_LE(od.x[7], 0x1FFu);
  EXPECT_LE(od.y[7], 0x1FFu);
  EXPECT_LE(od.a[7], 0x1FFu);
  EXPECT_EQ(od.a[0] & 1u, 1u);  // nonzero inversion input
}

TEST(KernelMachine, ContextsOverOneImageAreIndependent) {
  KernelMachine m1("mul");
  KernelMachine m2("mul");
  EXPECT_EQ(&m1.prog(), &m2.prog());  // shared image

  const KernelOperands& od = KernelOperands::standard();
  load_mul_inputs(m1.mem(), od.x, od.y);
  load_mul_inputs(m2.mem(), od.x, od.y);
  const armvm::RunStats s1 = m1.call();
  const armvm::RunStats s2 = m2.call();
  EXPECT_EQ(s1.cycles, s2.cycles);
  EXPECT_EQ(s1.instructions, s2.instructions);
  // Same inputs, same outputs, in private RAMs.
  for (int w = 0; w < 8; ++w) {
    EXPECT_EQ(m1.mem().load32(armvm::kRamBase + asmkernels::kVOff + 4 * w),
              m2.mem().load32(armvm::kRamBase + asmkernels::kVOff + 4 * w));
  }
}

// The serial replay loop, kept as the reference replay() must equal: one
// machine per kernel, and per rep all mul calls, then all sqr calls,
// then all inv calls, on the calling thread.
ReplayResult serial_replay(const WorkloadSpec& spec, const ReplayImages& images,
                           armvm::Cpu::DecodeMode mode,
                           const armvm::MemModelConfig& mem_model,
                           unsigned reps) {
  KernelMachine mul(images.mul, mode, mem_model);
  KernelMachine sqr(images.sqr, mode, mem_model);
  KernelMachine inv(images.inv, mode, mem_model);

  unsigned out_words = 8;
  std::uint32_t mul_out_off = asmkernels::kVOff;
  if (spec.curve.binary_field) {
    const KernelOperands& od = KernelOperands::standard();
    load_mul_inputs(mul.mem(), od.x, od.y);
    load_sqr_table(sqr.mem());
    load_sqr_input(sqr.mem(), od.a);
  } else {
    const PrimeOperands& od = PrimeOperands::standard(spec.curve);
    load_prime_modulus(mul.mem(), spec.curve);
    load_prime_mul_inputs(mul.mem(), od.x, od.y);
    load_prime_modulus(sqr.mem(), spec.curve);
    load_prime_mul_inputs(sqr.mem(), od.x, od.y);
    load_prime_modulus(inv.mem(), spec.curve);
    load_prime_inv_input(inv.mem(), od.a);
    out_words = spec.curve.limbs;
    mul_out_off = asmkernels::kOutOff;
  }

  for (unsigned rep = 0; rep < reps; ++rep) {
    for (std::uint64_t i = 0; i < spec.ops.mul; ++i) mul.call();
    for (std::uint64_t i = 0; i < spec.ops.sqr; ++i) sqr.call();
    for (std::uint64_t i = 0; i < spec.ops.inv; ++i) {
      if (spec.curve.binary_field) {
        load_inv_input(inv.mem(), KernelOperands::standard().a);
      }
      inv.call();
    }
  }
  ReplayResult r;
  r.stats = mul.cpu().stats();
  r.stats.instructions +=
      sqr.cpu().stats().instructions + inv.cpu().stats().instructions;
  r.stats.cycles += sqr.cpu().stats().cycles + inv.cpu().stats().cycles;
  r.stats.histogram += sqr.cpu().stats().histogram;
  r.stats.histogram += inv.cpu().stats().histogram;
  r.fused_retired = mul.cpu().fused_retired() + sqr.cpu().fused_retired() +
                    inv.cpu().fused_retired();
  const auto mix = [&r](std::uint32_t v) {
    r.output_digest ^=
        v + 0x9E3779B97F4A7C15ull + (r.output_digest << 6) +
        (r.output_digest >> 2);
  };
  for (unsigned w = 0; w < out_words; ++w) {
    mix(mul.mem().load32(armvm::kRamBase + mul_out_off + 4 * w));
    mix(sqr.mem().load32(armvm::kRamBase + asmkernels::kOutOff + 4 * w));
    mix(inv.mem().load32(armvm::kRamBase + asmkernels::kOutOff + 4 * w));
  }
  return r;
}

void expect_same_replay(const ReplayResult& want, const ReplayResult& got) {
  EXPECT_EQ(want.stats.instructions, got.stats.instructions);
  EXPECT_EQ(want.stats.cycles, got.stats.cycles);
  EXPECT_TRUE(want.stats == got.stats) << "cycle histograms differ";
  EXPECT_EQ(want.output_digest, got.output_digest);
  EXPECT_EQ(want.fused_retired, got.fused_retired);
}

using Mode = armvm::Cpu::DecodeMode;

TEST(Replay, ConcurrentStreamsEqualTheSerialLoop) {
  // Every curve's kP and a protocol transaction on each field family, at
  // full size, on the default engine and raw RAM; then the mixes that
  // cost most per call (the per-step engine, protected RAM) once each.
  struct Case {
    const char* tx;
    const char* curve;
    Mode mode;
    armvm::MemModelConfig mem;
  };
  const armvm::MemModelConfig scrubbed = armvm::MemModelConfig::secded(2, 97);
  const Case cases[] = {
      {"kp", "sect233k1", Mode::kThreaded, {}},
      {"kp", "secp192r1", Mode::kThreaded, {}},
      {"kp", "secp224r1", Mode::kThreaded, {}},
      {"kp", "secp256r1", Mode::kThreaded, {}},
      {"ecdh", "sect233k1", Mode::kThreaded, {}},
      {"ecdsa", "secp192r1", Mode::kThreaded, {}},
      {"kp", "sect233k1", Mode::kPerStep, {}},
      {"kp", "sect233k1", Mode::kThreaded, scrubbed},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.tx) + "-" + c.curve + " engine#" +
                 std::to_string(static_cast<int>(c.mode)) + " mem#" +
                 std::to_string(static_cast<int>(c.mem.kind)));
    const WorkloadSpec spec = make_workload(c.tx, c.curve);
    const ReplayImages images = ReplayImages::resolve(spec);
    expect_same_replay(serial_replay(spec, images, c.mode, c.mem, 1),
                       replay(spec, images, c.mode, c.mem, 1));
  }
}

TEST(Replay, ConcurrentStreamsEqualTheSerialLoopOnEveryEngineMemoryAndReps) {
  // The whole engine x memory model x reps product on both field
  // families, over a shortened mix (the same kernels and operands; the
  // machines keep their RAM, registers and scrub clock from call to call
  // exactly as at full size).
  const armvm::MemModelConfig mems[] = {
      armvm::MemModelConfig::raw(), armvm::MemModelConfig::parity(),
      armvm::MemModelConfig::secded(2, 97)};
  for (const char* curve : {"sect233k1", "secp192r1"}) {
    WorkloadSpec spec = make_workload("kp", curve);
    spec.ops = {9, 11, 2, 0};
    const ReplayImages images = ReplayImages::resolve(spec);
    for (const Mode mode : {Mode::kPerStep, Mode::kThreaded}) {
      for (const armvm::MemModelConfig& mem : mems) {
        for (const unsigned reps : {1u, 3u}) {
          SCOPED_TRACE(std::string(curve) + " engine#" +
                       std::to_string(static_cast<int>(mode)) + " mem#" +
                       std::to_string(static_cast<int>(mem.kind)) +
                       " reps " + std::to_string(reps));
          expect_same_replay(serial_replay(spec, images, mode, mem, reps),
                             replay(spec, images, mode, mem, reps));
        }
      }
    }
  }
}

TEST(Replay, ConcurrentCallersEachEqualTheSerialLoop) {
  // Replays in flight at once, as under serve's workers, share the
  // host's cores between them (down to running their streams inline);
  // each still equals the serial loop.
  const WorkloadSpec spec = make_workload("ecdh", "sect233k1");
  const ReplayImages images = ReplayImages::resolve(spec);
  const ReplayResult want = serial_replay(spec, images, Mode::kThreaded, {}, 1);
  std::vector<ReplayResult> got(4);
  std::vector<std::thread> callers;
  for (std::size_t t = 0; t < got.size(); ++t) {
    callers.emplace_back(
        [&, t] { got[t] = replay(spec, images, Mode::kThreaded); });
  }
  for (std::thread& c : callers) c.join();
  for (const ReplayResult& r : got) expect_same_replay(want, r);
}

TEST(Replay, StreamsMergeIntoTheReplay) {
  // replay() is its three single-stream replays, merged.
  const WorkloadSpec spec = make_workload("ecdsa", "sect233k1");
  const ReplayImages images = ReplayImages::resolve(spec);
  std::array<StreamReplay, kKernelStreams> streams;
  for (unsigned s = 0; s < kKernelStreams; ++s) {
    streams[s] = replay_stream(spec, images, static_cast<KernelStream>(s),
                               Mode::kThreaded, {}, 2);
  }
  EXPECT_GT(streams[0].stats.instructions, 0u);
  EXPECT_EQ(streams[0].output.size(), 8u);
  expect_same_replay(replay(spec, images, Mode::kThreaded, {}, 2),
                     merge_streams(streams));
}

// A kernel that counts its calls in a private RAM word at `counter_off`
// and, on call number `fault_call` (0 = never), does an unaligned word
// load one byte past the counter: an AlignmentFault whose address names
// the stream that raised it.
armvm::ProgramRef counting_kernel(std::uint32_t counter_off,
                                  unsigned fault_call) {
  std::string src = "entry: ldr r0, =" +
                    std::to_string(armvm::kRamBase + counter_off) + R"(
    ldr r1, [r0, #0]
    adds r1, #1
    str r1, [r0, #0]
)";
  if (fault_call != 0) {
    src += "    ldr r2, =" + std::to_string(fault_call) + R"(
    cmp r1, r2
    bne done
    adds r0, #1
    ldr r1, [r0, #0]
)";
  }
  src += "done: bx lr\n";
  return armvm::assemble(src);
}

// Counter words above every loader's slots, one per stream.
constexpr std::uint32_t kCounterOff[kKernelStreams] = {0x780, 0x790, 0x7A0};

ReplayImages counting_images(const std::array<unsigned, kKernelStreams>& fault_call) {
  return ReplayImages{counting_kernel(kCounterOff[0], fault_call[0]),
                      counting_kernel(kCounterOff[1], fault_call[1]),
                      counting_kernel(kCounterOff[2], fault_call[2])};
}

struct Thrown {
  std::string type;
  armvm::FaultKind kind{};
  std::uint32_t address = 0;
};

template <typename F>
Thrown fault_of(F&& run) {
  try {
    run();
  } catch (const armvm::Fault& f) {
    return {typeid(f).name(), f.kind(), f.address()};
  }
  ADD_FAILURE() << "no fault raised";
  return {};
}

TEST(Replay, RethrowsTheFailureTheSerialLoopHitsFirst) {
  // Three reps; a stream's k-th call falls in rep (k - 1) / its calls
  // per rep.
  struct Case {
    const char* what;
    ec::FieldOpCounts ops;
    std::array<unsigned, kKernelStreams> fault_call;
    unsigned stream;  // whose fault the serial loop hits first
  };
  const Case cases[] = {
      {"one stream: sqr in rep 1", {4, 3, 2, 0}, {0, 5, 0}, 1},
      {"mul in rep 2, inv in rep 0: not the lowest stream index",
       {4, 3, 2, 0},
       {9, 0, 2},
       2},
      {"mul and sqr in rep 1: mul first", {4, 3, 2, 0}, {5, 4, 0}, 0},
      {"all three in rep 2", {4, 3, 2, 0}, {12, 7, 6}, 0},
      // inv fails at once, while mul still has most of rep 0 to run: mul
      // must not stop at inv's failure, since the serial loop reaches
      // mul's first.
      {"mul at the end of rep 0, inv at its first call",
       {1u << 16, 1, 1, 0},
       {1u << 16, 0, 1},
       0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    WorkloadSpec spec = make_workload("kp", "secp192r1");
    spec.ops = c.ops;
    const ReplayImages images = counting_images(c.fault_call);
    for (const Mode mode : {Mode::kPerStep, Mode::kThreaded}) {
      const Thrown want =
          fault_of([&] { serial_replay(spec, images, mode, {}, 3); });
      const Thrown got = fault_of([&] { replay(spec, images, mode, {}, 3); });
      EXPECT_EQ(want.address, armvm::kRamBase + kCounterOff[c.stream] + 1);
      EXPECT_EQ(got.type, want.type);
      EXPECT_EQ(got.kind, armvm::FaultKind::kAlignmentFault);
      EXPECT_EQ(got.kind, want.kind);
      EXPECT_EQ(got.address, want.address);
    }
  }
  // A memory model the Memory constructor rejects fails at set-up.
  const WorkloadSpec spec = make_workload("kp", "sect233k1");
  const ReplayImages images = ReplayImages::resolve(spec);
  const armvm::MemModelConfig bad{armvm::MemModelKind::kParity, 1, 100};
  EXPECT_THROW(serial_replay(spec, images, Mode::kThreaded, bad, 1),
               std::invalid_argument);
  EXPECT_THROW(replay(spec, images, Mode::kThreaded, bad, 1),
               std::invalid_argument);
}

std::size_t live_threads() {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    (void)e;
    ++n;
  }
  return n;
}

TEST(Replay, AFailedStreamStopsTheOthersAndNoThreadOutlivesTheCall) {
  // mul faults on its first call; sqr and inv have 2^28 calls each, tens
  // of seconds of work, which they may skip only by stopping at their
  // next call boundary.
  WorkloadSpec spec = make_workload("kp", "secp192r1");
  spec.ops = {1, std::uint64_t{1} << 28, std::uint64_t{1} << 28, 0};
  const ReplayImages images = counting_images({1, 0, 0});
  const bool proc = std::filesystem::exists("/proc/self/task");
  const std::size_t threads_before = proc ? live_threads() : 0;
  const auto t0 = std::chrono::steady_clock::now();
  const Thrown got = fault_of([&] { replay(spec, images, Mode::kThreaded); });
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(got.address, armvm::kRamBase + kCounterOff[0] + 1);
  EXPECT_LT(seconds, 2.0);
  // The machines are gone (the ProgramRefs are back to the test's own),
  // and so is every stream thread.
  EXPECT_EQ(images.sqr.use_count(), 1);
  EXPECT_EQ(images.inv.use_count(), 1);
  if (proc) {
    EXPECT_EQ(live_threads(), threads_before);
  }
}

}  // namespace
}  // namespace eccm0::workloads
