// Native-host micro-benchmarks (google-benchmark) of the field layer:
// how fast the portable kernels actually run on this machine, plus the
// cost of the instrumented and VM-executed paths.
#include <benchmark/benchmark.h>

#include <vector>

#include "workloads/runner.h"
#include "common/rng.h"
#include "gf2/field.h"
#include "gf2/k233.h"
#include "gf2/traced.h"
#include "gbench_main.h"

using namespace eccm0;
using gf2::k233::Fe;
using gf2::k233::Prod;

namespace {

Fe random_fe(Rng& rng) {
  Fe f;
  rng.fill(f);
  f[7] &= gf2::k233::kTopMask;
  return f;
}

void BM_K233_MulLd(benchmark::State& state) {
  Rng rng(1);
  const Fe a = random_fe(rng), b = random_fe(rng);
  Prod v;
  for (auto _ : state) {
    gf2::k233::mul_ld(v, a, b);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_K233_MulLd);

void BM_K233_MulKaratsuba(benchmark::State& state) {
  Rng rng(2);
  const Fe a = random_fe(rng), b = random_fe(rng);
  Prod v;
  for (auto _ : state) {
    gf2::k233::mul_karatsuba(v, a, b);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_K233_MulKaratsuba);

void BM_K233_MulModular(benchmark::State& state) {
  Rng rng(3);
  const Fe a = random_fe(rng), b = random_fe(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf2::k233::mul(a, b));
  }
}
BENCHMARK(BM_K233_MulModular);

void BM_K233_Sqr(benchmark::State& state) {
  Rng rng(4);
  const Fe a = random_fe(rng);
  Fe r;
  for (auto _ : state) {
    gf2::k233::sqr(r, a);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_K233_Sqr);

void BM_K233_Reduce(benchmark::State& state) {
  Rng rng(5);
  Prod p;
  rng.fill(p);
  p[15] = 0;
  Fe r;
  for (auto _ : state) {
    gf2::k233::reduce(r, p);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_K233_Reduce);

void BM_K233_Inv(benchmark::State& state) {
  Rng rng(6);
  const Fe a = random_fe(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf2::k233::inv(a));
  }
}
BENCHMARK(BM_K233_Inv);

void BM_GenericField_Mul(benchmark::State& state) {
  const auto& f = state.range(0) == 163 ? gf2::GF2Field::f163()
                                        : gf2::GF2Field::f283();
  Rng rng(7);
  const auto a = f.random(rng);
  const auto b = f.random(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.mul(a, b));
  }
}
BENCHMARK(BM_GenericField_Mul)->Arg(163)->Arg(283);

void BM_Traced_MulFixed(benchmark::State& state) {
  Rng rng(8);
  std::vector<Word> x(8), y(8), v(16);
  rng.fill(x);
  rng.fill(y);
  for (auto _ : state) {
    costmodel::OpRecorder rec;
    gf2::traced::mul_ld_fixed(v, x, y, rec);
    benchmark::DoNotOptimize(rec.counts().mem_read);
  }
}
BENCHMARK(BM_Traced_MulFixed);

void BM_Vm_MulFixedKernel(benchmark::State& state) {
  static asmkernels::KernelVm vm;
  Rng rng(9);
  const Fe a = random_fe(rng), b = random_fe(rng);
  for (auto _ : state) {
    auto r = vm.mul(asmkernels::MulKernel::kFixedRegisters, a, b, true);
    benchmark::DoNotOptimize(r.stats.cycles);
  }
  state.SetLabel("simulated M0+ cycles per op: ~4500");
}
BENCHMARK(BM_Vm_MulFixedKernel);

}  // namespace

int main(int argc, char** argv) {
  return eccm0::bench::gbench_main(argc, argv, "bench_host_field",
                                   "BENCH_host_field.json");
}
