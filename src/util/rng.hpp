// Deterministic, fast pseudo-random number generation for the whole library.
//
// All stochastic components (annealing sweeps, noise injection, instance
// generators, shot sampling) take an explicit `Rng&` so experiments are
// reproducible from a single seed.
#pragma once

#include <array>
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

/// One xoshiro256** 1.0 step (Blackman & Vigna, public domain reference
/// implementation): sets `out` to the output of state `s` and advances it.
/// `W` is std::uint64_t, or a vector of them that steps one stream per lane
/// (the lockstep annealer, anneal/packed.cpp), which is why the output is
/// not returned: a 32-byte vector must not cross a function boundary by
/// value in baseline-ISA code. The multiplications by 5 and 9 are spelled
/// as shifts so no vector target needs a 64-bit multiply.
template <typename W>
[[gnu::always_inline]] inline void xoshiro256ss(W (&s)[4], W& out) noexcept {
  const W x = (s[1] << 2) + s[1];
  const W r = (x << 7) | (x >> 57);
  out = (r << 3) + r;
  const W t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = (s[3] << 45) | (s[3] >> 19);
}

/// The double in [0, 1) that Rng::uniform makes of one 64-bit output: its
/// 53 high bits, scaled.
inline double unit_interval(std::uint64_t bits) noexcept {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

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

  result_type operator()() noexcept {
    result_type out = 0;
    xoshiro256ss(s_, out);
    return out;
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept { return unit_interval((*this)()); }

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

  /// The four xoshiro state words, so a lane of the lockstep annealer can
  /// load a stream and store it back; the Gaussian spare stays here.
  std::array<std::uint64_t, 4> words() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_words(const std::array<std::uint64_t, 4>& words) noexcept {
    for (std::size_t k = 0; k < 4; ++k) s_[k] = words[k];
  }

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace nck
