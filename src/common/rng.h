// Deterministic pseudo-random generator for tests, benches and examples.
//
// Everything in this repo that needs randomness takes an explicit Rng so
// experiments are reproducible run to run (no hidden global state).
#pragma once

#include <cstdint>
#include <span>

#include "common/words.h"

namespace eccm0 {

/// SplitMix64: tiny, high-quality, deterministic. Not cryptographic; the
/// crypto module layers an HMAC-DRBG on top when key material is needed.
class Rng {
 public:
  explicit constexpr Rng(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  constexpr Word next_word() { return static_cast<Word>(next_u64()); }

  /// Uniform value in [0, bound) for bound > 0.
  constexpr std::uint64_t next_below(std::uint64_t bound) {
    return next_u64() % bound;
  }

  constexpr void fill(std::span<Word> out) {
    for (Word& w : out) w = next_word();
  }

  /// Derive an independent child stream as a pure function of the
  /// current state and `id`; the parent is not advanced. Child streams
  /// for distinct ids are decorrelated from each other and from the
  /// parent's own output sequence. Parallel campaigns split one child
  /// per task from the campaign seed, so every task's randomness is a
  /// function of (seed, task index) alone — never of scheduling order
  /// or thread count.
  constexpr Rng split(std::uint64_t id) const {
    // SplitMix64 finalizer over the state perturbed by a golden-ratio
    // multiple of the id (id 0 must not alias the parent state).
    std::uint64_t z = state_ + 0x9E3779B97F4A7C15ull * (id + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return Rng(z ^ (z >> 31));
  }

 private:
  std::uint64_t state_;
};

}  // namespace eccm0
