// Heuristic QUBO samplers: single-flip Metropolis simulated annealing and a
// greedy descent. These serve two roles:
//  * generic heuristic minimization for problems beyond brute-force reach;
//  * the low-temperature Boltzmann sampler that approximates the ideal QAOA
//    output distribution for circuits too wide to state-vector-simulate
//    (see DESIGN.md, hardware substitutions).
#pragma once

#include <vector>

#include "qubo/qubo.hpp"
#include "util/rng.hpp"

namespace nck {

/// Inverse-temperature endpoints of every annealing schedule here: the
/// lockstep kernel's ramp and tempering ladder (anneal/packed.hpp) and the
/// scalar reference read.
inline constexpr double kBetaInitial = 0.05;
inline constexpr double kBetaFinal = 6.0;

struct Sample {
  std::vector<bool> x;
  double energy = 0.0;
};

/// Per-sweep inverse-temperature ramp: geometric interpolation from
/// kBetaInitial to kBetaFinal with both endpoints exact — the last sweep
/// runs at kBetaFinal (the previous cumulative-multiplication ramp drifted
/// off the endpoint, and a single-sweep schedule stayed at the initial
/// beta, i.e. never annealed). A one-sweep schedule is {kBetaFinal}.
std::vector<double> beta_schedule(std::size_t num_sweeps);

/// One simulated-annealing read of `num_sweeps` full-variable Metropolis
/// sweeps from a random start, then a greedy quench. Deterministic given
/// rng; the scalar reference the lockstep kernel is timed against.
Sample anneal_once(const Qubo& q, std::size_t num_sweeps, Rng& rng);

/// Greedy single-flip descent to a local minimum from the given start.
Sample greedy_descent(const Qubo& q, std::vector<bool> start);

/// Deterministic tabu search of at most `max_iters` single-flip moves from
/// the given start (qbsolv's classical sub-QUBO solver); 0 moves is plain
/// greedy_descent. Each move flips the best admissible variable — lowest
/// energy delta, ties to the lowest index — where admissible means not
/// tabu, or tabu but beating the best energy seen (aspiration). A flipped
/// variable stays tabu for min(20, n / 4) + 1 moves (qbsolv-style), and the
/// search stops after max_iters / 4 + 1 non-improving moves in a row. Unlike
/// greedy_descent this crosses small uphill barriers, which matters for
/// compiled programs whose hard-constraint scale flattens the soft
/// landscape: a one-soft-unit ridge (e.g. swapping a set cover's two
/// halves for the full block) is invisible to pure descent. Returns the
/// best state visited. No randomness: identical inputs give identical
/// outputs on any thread count.
Sample tabu_search(const Qubo& q, std::vector<bool> start,
                   std::size_t max_iters);

/// Draws `num_samples` samples approximately from the Boltzmann distribution
/// exp(-beta * E(x)) via Metropolis with burn-in; used as the wide-circuit
/// QAOA surrogate.
std::vector<Sample> boltzmann_sample(const Qubo& q, double beta,
                                     std::size_t num_samples, Rng& rng,
                                     std::size_t burn_in_sweeps = 64,
                                     std::size_t thin_sweeps = 4);

}  // namespace nck
