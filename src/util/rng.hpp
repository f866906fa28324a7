// Deterministic, fast pseudo-random number generation for the whole library.
//
// All stochastic components (annealing sweeps, noise injection, instance
// generators, shot sampling) take an explicit `Rng&` so experiments are
// reproducible from a single seed.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace nck {

/// Schedule-independent derived stream seed: a splitmix64 finalizer over a
/// base seed and up to two indices. This is the one place the library's
/// determinism idiom lives: a family of workers shares one `base` and each
/// unit of work draws its sample stream from `stream_seed(base, i, j)`, so
/// results never depend on which thread claimed the work or how many
/// threads exist. Used by
/// SolverPool (per task/candidate), nck_serve (per admission serial), and
/// the decomposer (per round/subproblem).
std::uint64_t stream_seed(std::uint64_t base, std::uint64_t a,
                          std::uint64_t b = 0) noexcept;

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation, re-expressed in C++). Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64,
  /// so that nearby seeds yield uncorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept;

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t below(std::uint64_t n) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal deviate (Marsaglia polar method).
  double gaussian() noexcept;

  /// Normal deviate with the given mean and standard deviation.
  double gaussian(double mean, double stddev) noexcept;

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// Fisher-Yates shuffle of a whole vector.
  template <typename T>
  void shuffle(std::vector<T>& v) noexcept {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Spawns an independent child stream (used to give each OpenMP worker
  /// its own generator without sharing state).
  Rng split() noexcept;

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace nck
