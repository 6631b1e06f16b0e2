#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace contory {
namespace {

constexpr std::uint64_t Rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm{seed};
  for (auto& word : s_) word = sm.Next();
}

std::uint64_t Rng::Next() noexcept {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() noexcept {
  // 53 top bits -> uniform in [0, 1) with full double precision.
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * NextDouble();
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection-free modulo is fine here: span is tiny relative to 2^64 in
  // every call site (hop counts, node picks), so bias is negligible.
  return lo + static_cast<std::int64_t>(span == 0 ? Next() : Next() % span);
}

double Rng::Normal(double mean, double stddev) noexcept {
  // Box–Muller; one deviate per call keeps the generator stateless beyond s_.
  double u1 = NextDouble();
  const double u2 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::LogNormal(double mu, double sigma) noexcept {
  return std::exp(Normal(mu, sigma));
}

bool Rng::Bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

double Rng::Jitter(double value, double spread) noexcept {
  return value * Uniform(1.0 - spread, 1.0 + spread);
}

Rng Rng::Fork() noexcept {
  Rng child{Next()};
  return child;
}

}  // namespace contory
