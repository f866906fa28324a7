// Exact QUBO minimization by exhaustive enumeration, OpenMP-parallel over
// the state space. Usable up to ~28 variables; the synthesizer verification
// and ground-truth checks for small studies rely on it.
#pragma once

#include <optional>
#include <vector>

#include "qubo/qubo.hpp"

namespace nck {

struct BruteForceResult {
  double min_energy = 0.0;
  /// All minimizing assignments found, up to `max_ground_states`
  /// (deterministic order: ascending as binary integers, bit i = x_i).
  std::vector<std::vector<bool>> ground_states;
  bool truncated = false;  // true if more minimizers exist than returned
};

/// Enumerates all 2^n assignments. Throws if n > 30.
/// Energies within `tie_eps` of the minimum count as ground states.
BruteForceResult brute_force_minimize(const Qubo& q,
                                      std::size_t max_ground_states = 4096,
                                      double tie_eps = 1e-6);

/// Convenience: minimum energy only.
double brute_force_min_energy(const Qubo& q);

/// Ancilla projection of a per-constraint QUBO over variables [0, d) with
/// trailing ancillas [d, d+a): element x of the result (x read as a binary
/// integer, bit i = x_i) is min over the 2^a ancilla settings z of
/// f(x, z). This is the function whose argmin the certifier compares with
/// the constraint's satisfying set, and whose per-x maximum bounds the
/// worst-case penalty a constraint contributes. Throws if d + a > 28 or
/// the QUBO touches variables beyond d + a.
std::vector<double> ancilla_projected_minima(const Qubo& q, std::size_t d,
                                             std::size_t a);

}  // namespace nck
