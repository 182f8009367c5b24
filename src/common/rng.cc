#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace lmp {
namespace {

std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed the four lanes via SplitMix64 as recommended by the xoshiro authors.
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = SplitMix64(sm);
}

std::uint64_t Rng::Next() {
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

std::uint64_t Rng::NextBounded(std::uint64_t bound) {
  assert(bound > 0);
  // Lemire's method without bias correction is fine for simulation use,
  // but the debiased loop is cheap; keep it exact.
  std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    std::uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::NextInRange(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(NextBounded(span));
}

bool Rng::NextBernoulli(double p) { return NextDouble() < p; }

ZipfGenerator::ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed)
    : n_(n), theta_(theta), rng_(seed) {
  assert(n > 0);
  assert(theta > 0.0 && theta < 1.0);
  zetan_ = Zeta(n_, theta_);
  const double zeta2 = Zeta(2, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

double ZipfGenerator::Zeta(std::uint64_t n, double theta) const {
  double sum = 0.0;
  for (std::uint64_t i = 1; i <= n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return sum;
}

std::uint64_t ZipfGenerator::Next() {
  const double u = rng_.NextDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  const auto idx = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return idx >= n_ ? n_ - 1 : idx;
}

}  // namespace lmp
