// Native-host micro-benchmarks of the curve layer: scalar-multiplication
// algorithm comparison and protocol round trips.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "crypto/ecdh.h"
#include "crypto/ecdsa.h"
#include "ec/scalarmul.h"
#include "gbench_main.h"

using namespace eccm0;
using ec::AffinePoint;
using ec::BinaryCurve;
using mpint::UInt;

namespace {

const BinaryCurve& curve() { return BinaryCurve::sect233k1(); }
AffinePoint gen() { return AffinePoint::make(curve().gx, curve().gy); }

UInt scalar(std::uint64_t seed) {
  Rng rng(seed);
  return UInt::random_below(rng, curve().order);
}

void BM_Wtnaf(benchmark::State& state) {
  ec::CurveOps ops(curve());
  const auto w = static_cast<unsigned>(state.range(0));
  const UInt k = scalar(1);
  const auto table = ec::make_wtnaf_table(ops, gen(), w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::mul_wtnaf(ops, table, k));
  }
}
BENCHMARK(BM_Wtnaf)->Arg(2)->Arg(4)->Arg(6);

void BM_WtnafWithPrecomp(benchmark::State& state) {
  ec::CurveOps ops(curve());
  const UInt k = scalar(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::mul_wtnaf(ops, gen(), k, 4));
  }
}
BENCHMARK(BM_WtnafWithPrecomp);

void BM_Wnaf(benchmark::State& state) {
  ec::CurveOps ops(curve());
  const UInt k = scalar(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::mul_wnaf(ops, gen(), k, 4));
  }
}
BENCHMARK(BM_Wnaf);

void BM_Ladder(benchmark::State& state) {
  ec::CurveOps ops(curve());
  const UInt k = scalar(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::mul_ladder(ops, gen(), k));
  }
}
BENCHMARK(BM_Ladder);

void BM_Naive(benchmark::State& state) {
  ec::CurveOps ops(curve());
  const UInt k = scalar(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec::mul_naive(ops, gen(), k));
  }
}
BENCHMARK(BM_Naive);

void BM_TnafRecode(benchmark::State& state) {
  const UInt k = scalar(6);
  for (auto _ : state) {
    const auto rho = ec::partmod(k, curve());
    benchmark::DoNotOptimize(ec::wtnaf_digits(rho, curve().mu, 4));
  }
}
BENCHMARK(BM_TnafRecode);

void BM_EcdhAgreement(benchmark::State& state) {
  const crypto::Ecdh ecdh;
  std::vector<std::uint8_t> seed{1, 2, 3};
  crypto::HmacDrbg rng(seed);
  const auto alice = ecdh.generate(rng);
  const auto bob = ecdh.generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdh.shared_secret(alice.d, bob.q));
  }
}
BENCHMARK(BM_EcdhAgreement);

void BM_EcdsaSign(benchmark::State& state) {
  const crypto::Ecdsa ecdsa;
  std::vector<std::uint8_t> seed{4, 5, 6};
  crypto::HmacDrbg rng(seed);
  const auto kp = ecdsa.generate(rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdsa.sign(kp.d, "benchmark message"));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  const crypto::Ecdsa ecdsa;
  std::vector<std::uint8_t> seed{7, 8, 9};
  crypto::HmacDrbg rng(seed);
  const auto kp = ecdsa.generate(rng);
  const auto sig = ecdsa.sign(kp.d, "benchmark message");
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecdsa.verify(kp.q, "benchmark message", sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

}  // namespace

int main(int argc, char** argv) {
  return eccm0::bench::gbench_main(argc, argv, "bench_host_point",
                                   "BENCH_host_point.json");
}
