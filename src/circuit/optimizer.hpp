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

struct NelderMeadOptions {
  std::size_t max_evaluations = 60;
  double initial_step = 0.4;
  double tolerance = 1e-4;  // simplex spread stopping criterion
};

OptimizeResult nelder_mead(const Objective& f, std::vector<double> x0,
                           const NelderMeadOptions& options = {});

}  // namespace nck
