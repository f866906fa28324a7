#include "qubo/brute_force.hpp"

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace nck {
namespace {

std::vector<bool> unpack(std::uint64_t bits, std::size_t n) {
  std::vector<bool> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = (bits >> i) & 1u;
  return x;
}

}  // namespace

BruteForceResult brute_force_minimize(const Qubo& q,
                                      std::size_t max_ground_states,
                                      double tie_eps) {
  const std::size_t n = q.num_variables();
  if (n > 30) {
    throw std::invalid_argument("brute_force_minimize: too many variables");
  }
  const std::uint64_t total = 1ull << n;

  // Pass 1: find the minimum energy in parallel.
  double min_energy = std::numeric_limits<double>::infinity();
#pragma omp parallel
  {
    double local_min = std::numeric_limits<double>::infinity();
    std::vector<bool> x(n);
#pragma omp for schedule(static)
    for (std::int64_t bits = 0; bits < static_cast<std::int64_t>(total);
         ++bits) {
      for (std::size_t i = 0; i < n; ++i) x[i] = (bits >> i) & 1;
      local_min = std::min(local_min, q.energy(x));
    }
#pragma omp critical
    min_energy = std::min(min_energy, local_min);
  }

  // Pass 2: collect ground states in deterministic order.
  BruteForceResult result;
  result.min_energy = min_energy;
  std::vector<bool> x(n);
  for (std::uint64_t bits = 0; bits < total; ++bits) {
    for (std::size_t i = 0; i < n; ++i) x[i] = (bits >> i) & 1u;
    if (q.energy(x) <= min_energy + tie_eps) {
      if (result.ground_states.size() >= max_ground_states) {
        result.truncated = true;
        break;
      }
      result.ground_states.push_back(unpack(bits, n));
    }
  }
  return result;
}

std::vector<double> ancilla_projected_minima(const Qubo& q, std::size_t d,
                                             std::size_t a) {
  if (d + a > 28) {
    throw std::invalid_argument(
        "ancilla_projected_minima: constraint too large");
  }
  if (q.num_variables() > d + a) {
    throw std::invalid_argument(
        "ancilla_projected_minima: QUBO touches variables beyond d + a");
  }
  std::vector<double> minima(1ull << d,
                             std::numeric_limits<double>::infinity());
  std::vector<bool> bits(d + a);
  for (std::uint64_t x = 0; x < (1ull << d); ++x) {
    double best = std::numeric_limits<double>::infinity();
    for (std::uint64_t z = 0; z < (1ull << a); ++z) {
      const std::uint64_t full = x | (z << d);
      for (std::size_t i = 0; i < d + a; ++i) bits[i] = (full >> i) & 1u;
      best = std::min(best, q.energy(bits));
    }
    minima[x] = best;
  }
  return minima;
}

}  // namespace nck
