// Exhaustive verification that a synthesized QUBO realizes its constraint,
// for tests and bench_sec6b_qubo_quality.
#pragma once

#include <string>

#include "synth/synthesizer.hpp"

namespace nck {

struct SynthesisCheck {
  bool ok = false;
  double observed_gap = 0.0;  // min energy over violating assignments
  std::string error;          // empty when ok
};

/// For every assignment x of the d pattern variables, computes
/// min_z f(x, z) over the 2^a ancilla settings and checks:
/// valid x -> min == 0 (within eps); invalid x -> min >= gap - eps.
SynthesisCheck verify_synthesis(const ConstraintPattern& pattern,
                                const SynthesizedQubo& synth,
                                double eps = 1e-6);

}  // namespace nck
