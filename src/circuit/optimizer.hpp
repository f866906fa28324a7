// Derivative-free classical optimizer for the QAOA outer loop: Nelder-Mead
// (Qiskit's COBYLA analogue for our purposes: tens of objective
// evaluations, each a quantum "job").
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace nck {

using Objective = std::function<double(const std::vector<double>&)>;

struct OptimizeResult {
  std::vector<double> x;
  double value = 0.0;
  std::size_t evaluations = 0;  // objective calls ("jobs" in IBM terms)
};

/// Step of the initial simplex along each axis from x0.
inline constexpr double kNelderMeadInitialStep = 0.4;
/// Stop once the simplex's values spread less than this.
inline constexpr double kNelderMeadTolerance = 1e-3;

/// Minimizes `f` from `x0` in at most about `max_evaluations` calls (the
/// initial simplex may finish a round past it).
OptimizeResult nelder_mead(const Objective& f, std::vector<double> x0,
                           std::size_t max_evaluations);

}  // namespace nck
