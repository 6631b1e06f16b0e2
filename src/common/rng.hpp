// Deterministic random number generation.
//
// Every stochastic element of the reproduction (radio jitter, UMTS latency
// tails, sensor noise, boat tracks) draws from a seeded generator so that
// tests and benchmarks are exactly reproducible. We use xoshiro256**
// seeded through SplitMix64, the combination recommended by the xoshiro
// authors; it satisfies the UniformRandomBitGenerator concept so it also
// composes with <random> if ever needed.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace contory {

/// SplitMix64: used to expand a single 64-bit seed into generator state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t Next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — fast, high-quality, 256-bit state PRNG.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose entire stream is a pure function of
  /// `seed`. Identical seeds yield identical simulations.
  explicit Rng(std::uint64_t seed = 0xc047'0e5eedULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return Next(); }
  std::uint64_t Next() noexcept;

  /// Uniform double in [0, 1).
  double NextDouble() noexcept;

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) noexcept;

  /// Normal (Gaussian) deviate via Box–Muller.
  double Normal(double mean, double stddev) noexcept;

  /// Log-normal deviate parameterized by the *underlying* normal's mu and
  /// sigma. Used for heavy-tailed UMTS connection latencies.
  double LogNormal(double mu, double sigma) noexcept;

  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p) noexcept;

  /// Multiplicative jitter: value * Uniform(1-spread, 1+spread).
  /// Models the paper's "office environment with background noise".
  double Jitter(double value, double spread) noexcept;

  /// Forks an independent child generator; the child's stream is a pure
  /// function of this generator's current state. Use one child per
  /// subsystem so adding draws in one module never perturbs another.
  Rng Fork() noexcept;

 private:
  std::array<std::uint64_t, 4> s_;
};

}  // namespace contory
