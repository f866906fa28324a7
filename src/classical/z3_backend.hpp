// Z3-based classical execution of NchooseK programs — the baseline the
// paper uses both to validate quantum results and for the Fig 12 timing
// study. Two modes are provided:
//   * solve_with_z3:       direct encoding (pseudo-Boolean counts + MaxSAT
//                          over soft constraints) — fast;
//   * solve_qubo_with_z3:  minimize a compiled QUBO's objective with Z3's
//                          optimizer — the paper reports this is drastically
//                          slower (10 vertices < 1 s, 20 vertices ~90 s),
//                          which bench_fig12 reproduces in shape.
#pragma once

#if NCK_HAVE_Z3

#include <optional>

#include "classical/exact_solver.hpp"
#include "core/env.hpp"
#include "qubo/qubo.hpp"

namespace nck {

/// Solves the program exactly with Z3 (same contract as solve_exact): a
/// MaxSAT optimization over the soft constraints, or a plain satisfiability
/// check when there are none.
ClassicalSolution solve_with_z3(const Env& env);

struct QuboSolveResult {
  std::vector<bool> assignment;
  double energy = 0.0;
};

/// Minimizes a QUBO objective with Z3's optimizer. Exponentially slower than
/// the direct encoding on structured problems; exists to reproduce the
/// paper's QUBO-through-Z3 comparison.
QuboSolveResult solve_qubo_with_z3(const Qubo& q, unsigned timeout_ms = 0);

}  // namespace nck

#endif  // NCK_HAVE_Z3
