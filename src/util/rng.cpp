#include "util/rng.hpp"

#include <cmath>

namespace nck {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t stream_seed(std::uint64_t base, std::uint64_t a,
                          std::uint64_t b) noexcept {
  std::uint64_t z = base ^ (0x9E3779B97F4A7C15ull * (a + 1)) ^
                    (0xBF58476D1CE4E5B9ull * (b + 1));
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ull;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBull;
  z ^= z >> 31;
  return z;
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& w : s_) w = splitmix64(x);
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

std::uint64_t Rng::below(std::uint64_t n) noexcept {
  // Lemire's nearly-divisionless bounded generation; the slight modulo bias
  // of the simple fallback is irrelevant for n far below 2^64, but we keep
  // the rejection loop for exactness.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  return lo + static_cast<std::int64_t>(
                  below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::gaussian() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double f = std::sqrt(-2.0 * std::log(s) / s);
  spare_ = v * f;
  has_spare_ = true;
  return u * f;
}

double Rng::gaussian(double mean, double stddev) noexcept {
  return mean + stddev * gaussian();
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

Rng Rng::split() noexcept {
  return Rng((*this)() ^ 0xA0761D6478BD642Full);
}

}  // namespace nck
