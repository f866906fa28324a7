#include "qubo/heuristic.hpp"

#include <algorithm>
#include <cmath>

namespace nck {
namespace {

// Local view used by all samplers: adjacency lists plus the energy delta of
// flipping one variable, maintained incrementally.
struct FlipState {
  const Qubo& q;
  std::vector<std::vector<std::pair<Qubo::Var, double>>> adj;
  std::vector<bool> x;
  double energy;

  FlipState(const Qubo& q_, std::vector<bool> start)
      : q(q_), adj(q_.adjacency()), x(std::move(start)), energy(q_.energy(x)) {}

  // Energy change if variable i were flipped.
  double delta(std::size_t i) const {
    const double sign = x[i] ? -1.0 : 1.0;
    double d = sign * q.linear(static_cast<Qubo::Var>(i));
    for (const auto& [j, c] : adj[i]) {
      if (x[j]) d += sign * c;
    }
    return d;
  }

  void flip(std::size_t i, double d) {
    x[i] = !x[i];
    energy += d;
  }
};

std::vector<bool> random_state(std::size_t n, Rng& rng) {
  std::vector<bool> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = rng.bernoulli(0.5);
  return x;
}

void metropolis_sweep(FlipState& s, double beta, Rng& rng) {
  const std::size_t n = s.x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double d = s.delta(i);
    if (d <= 0.0 || rng.uniform() < std::exp(-beta * d)) {
      s.flip(i, d);
    }
  }
}

}  // namespace

std::vector<double> beta_schedule(std::size_t num_sweeps) {
  std::vector<double> betas(num_sweeps);
  if (betas.empty()) return betas;
  if (betas.size() == 1) {
    betas[0] = kBetaFinal;
    return betas;
  }
  const double log_ratio = std::log(kBetaFinal / kBetaInitial);
  const double denom = static_cast<double>(betas.size() - 1);
  for (std::size_t k = 0; k < betas.size(); ++k) {
    betas[k] =
        kBetaInitial * std::exp(log_ratio * static_cast<double>(k) / denom);
  }
  betas.front() = kBetaInitial;
  betas.back() = kBetaFinal;
  return betas;
}

Sample anneal_once(const Qubo& q, std::size_t num_sweeps, Rng& rng) {
  FlipState s(q, random_state(q.num_variables(), rng));
  if (q.num_variables() == 0) return {s.x, s.energy};
  for (double beta : beta_schedule(num_sweeps)) {
    metropolis_sweep(s, beta, rng);
  }
  // Quench to the nearest local minimum for a clean readout.
  return greedy_descent(q, std::move(s.x));
}

Sample greedy_descent(const Qubo& q, std::vector<bool> start) {
  start.resize(q.num_variables(), false);
  FlipState s(q, std::move(start));
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t i = 0; i < s.x.size(); ++i) {
      const double d = s.delta(i);
      if (d < -Qubo::kEps) {
        s.flip(i, d);
        improved = true;
      }
    }
  }
  return {std::move(s.x), s.energy};
}

Sample tabu_search(const Qubo& q, std::vector<bool> start,
                   std::size_t max_iters) {
  if (max_iters == 0) return greedy_descent(q, std::move(start));
  start.resize(q.num_variables(), false);
  FlipState s(q, std::move(start));
  const std::size_t n = s.x.size();
  if (n == 0) return greedy_descent(q, std::move(s.x));
  const std::size_t tenure = std::min<std::size_t>(20, n / 4) + 1;
  const std::size_t stall_iters = max_iters / 4 + 1;

  std::vector<bool> best = s.x;
  double best_energy = s.energy;
  std::vector<std::size_t> tabu_until(n, 0);
  std::size_t stall = 0;
  for (std::size_t iter = 1;
       iter <= max_iters && stall < stall_iters; ++iter) {
    std::size_t move = n;
    double move_delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = s.delta(i);
      const bool tabu = tabu_until[i] >= iter;
      if (tabu && s.energy + d >= best_energy - Qubo::kEps) continue;
      if (move == n || d < move_delta - Qubo::kEps) {
        move = i;
        move_delta = d;
      }
    }
    if (move == n) break;  // everything tabu and nothing aspirates
    s.flip(move, move_delta);
    tabu_until[move] = iter + tenure;
    if (s.energy < best_energy - Qubo::kEps) {
      best_energy = s.energy;
      best = s.x;
      stall = 0;
    } else {
      ++stall;
    }
  }
  // Quench the best state: tabu may have stepped off a local minimum last.
  return greedy_descent(q, std::move(best));
}

std::vector<Sample> boltzmann_sample(const Qubo& q, double beta,
                                     std::size_t num_samples, Rng& rng,
                                     std::size_t burn_in_sweeps,
                                     std::size_t thin_sweeps) {
  FlipState s(q, random_state(q.num_variables(), rng));
  for (std::size_t i = 0; i < burn_in_sweeps; ++i) metropolis_sweep(s, beta, rng);
  std::vector<Sample> out;
  out.reserve(num_samples);
  for (std::size_t k = 0; k < num_samples; ++k) {
    for (std::size_t i = 0; i < thin_sweeps; ++i) metropolis_sweep(s, beta, rng);
    out.push_back({s.x, s.energy});
  }
  return out;
}

}  // namespace nck
