#include <algorithm>
#include <stdexcept>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {

namespace ew = eccm0::workloads;

namespace {

/// Committed reference values of one reps=1 replay
/// (BENCH_prime_vs_binary.json, "transactions"); identical on every
/// engine and memory-model-independent in digest.
struct Reference {
  const char* tx;
  const char* curve;
  std::uint64_t cycles;
  std::uint64_t digest;
};

constexpr Reference kReferences[] = {
    {"kp", "sect233k1", 2342174, 0xdf7a41e773943c8aull},
    {"ecdh", "sect233k1", 4833234, 0xdf7a41e773943c8aull},
    {"ecdsa", "sect233k1", 7175408, 0xdf7a41e773943c8aull},
    {"kp", "secp192r1", 9030379, 0xc836150db02f1733ull},
    {"ecdh", "secp192r1", 17703633, 0xc836150db02f1733ull},
    {"ecdsa", "secp192r1", 26687277, 0xc836150db02f1733ull},
};

}  // namespace

Catalog Catalog::build(double* build_ms) {
  Catalog c;
  double resolve_ms = 0.0;
  for (const Reference& ref : kReferences) {
    Entry e;
    e.name = std::string(ref.tx) + "-" + ref.curve;
    {
      Tracer::Scope span(tracer(), "workloads.make_workload");
      e.spec = ew::make_workload(ref.tx, ref.curve);
    }
    const Clock::time_point t0 = Clock::now();
    {
      Tracer::Scope span(tracer(), "workloads.ReplayImages::resolve");
      e.images = ew::ReplayImages::resolve(e.spec);
    }
    resolve_ms += ms_between(t0, Clock::now());
    e.want_cycles = ref.cycles;
    e.want_digest = ref.digest;
    c.entries_.push_back(std::move(e));
  }
  if (build_ms != nullptr) *build_ms = resolve_ms;
  return c;
}

std::size_t Catalog::index_of(const std::string& tx,
                              const std::string& curve) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].spec.transaction == tx &&
        entries_[i].spec.curve.name == curve) {
      return i;
    }
  }
  throw std::out_of_range("perfbench: no catalog entry " + tx + "-" + curve);
}

ReplayCheck replay_checked(const Entry& e) {
  ReplayCheck c;
  {
    Tracer::Scope span(tracer(), "workloads.replay");
    c.result = ew::replay(e.spec, e.images, default_engine());
  }
  c.ok = c.result.stats.cycles == e.want_cycles &&
         c.result.output_digest == e.want_digest;
  return c;
}

std::vector<std::size_t> seeded_pass(std::uint64_t seed, std::uint64_t pass,
                                     const std::vector<std::size_t>& items) {
  std::vector<std::size_t> order = items;
  eccm0::Rng rng = eccm0::Rng(seed).split(pass);
  // Fisher-Yates with the repo's splittable RNG.
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

}  // namespace perfbench
