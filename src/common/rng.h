// Deterministic random number generation.
//
// All stochastic behaviour in the simulator and workloads flows through Rng
// so experiments are reproducible from a seed.  ZipfGenerator produces the
// skewed access patterns used by the migration and placement ablations.
#pragma once

#include <cstdint>
#include <vector>

namespace lmp {

// xoshiro256** — fast, high-quality, deterministic.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  std::uint64_t Next();

  // Uniform in [0, bound). bound must be > 0.
  std::uint64_t NextBounded(std::uint64_t bound);

  // Uniform double in [0, 1).
  double NextDouble();

  // Uniform in [lo, hi] inclusive.
  std::int64_t NextInRange(std::int64_t lo, std::int64_t hi);

  // True with probability p.
  bool NextBernoulli(double p);

  // Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = NextBounded(i);
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

// Zipf-distributed integers over [0, n).  theta in (0, 1) is the usual
// YCSB-style skew parameter (0.99 ~ heavily skewed).  Uses the Gray et al.
// rejection-free method with precomputed constants; O(1) per sample.
class ZipfGenerator {
 public:
  ZipfGenerator(std::uint64_t n, double theta, std::uint64_t seed = 42);

  std::uint64_t Next();

  std::uint64_t n() const { return n_; }
  double theta() const { return theta_; }

 private:
  double Zeta(std::uint64_t n, double theta) const;

  std::uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  Rng rng_;
};

}  // namespace lmp
