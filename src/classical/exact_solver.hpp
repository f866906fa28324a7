// Native exact solver for generalized NchooseK programs: depth-first branch
// and bound with per-constraint count propagation. Serves as the ground
// truth for Definition 8 classification (which needs the maximum achievable
// number of satisfied soft constraints) and as the classical baseline the
// paper implements with Z3.
#pragma once

#include <optional>
#include <vector>

#include "core/env.hpp"

namespace nck {

struct ClassicalSolution {
  bool feasible = false;            // all hard constraints satisfiable?
  std::vector<bool> assignment;     // a witness (empty if infeasible)
  std::size_t soft_satisfied = 0;   // softs satisfied by the witness
  std::size_t soft_total = 0;
  std::size_t nodes_explored = 0;   // search effort metric
};

/// Finds an assignment satisfying every hard constraint and maximizing the
/// number of satisfied soft constraints (Definition 6 semantics).
ClassicalSolution solve_exact(const Env& env);

/// Exhaustive reference solver (<= 25 variables) used to validate
/// solve_exact in tests.
ClassicalSolution solve_brute_force(const Env& env);

}  // namespace nck
