// Compilation of a generalized NchooseK program to a single QUBO
// (Section V). Every constraint is synthesized individually (via the
// SynthEngine and its pattern cache), remapped into program variable space
// with fresh ancilla indices, then summed — exploiting QUBO compositionality.
//
// Soft constraints are normalized so that the cheapest violation of each
// costs 1; hard constraints are scaled by a factor strictly larger than the
// total achievable soft penalty, so that any assignment violating a hard
// constraint has higher energy than every hard-feasible assignment.
#pragma once

#include "core/env.hpp"
#include "obs/obs.hpp"
#include "qubo/qubo.hpp"
#include "synth/engine.hpp"

namespace nck {

/// Extra energy margin added on top of the soft-penalty bound when scaling
/// hard constraints: the cheapest hard violation costs max_soft_energy +
/// kHardMargin. The annealer plan key mixes it, and CertifyOptions starts
/// from it.
inline constexpr double kHardMargin = 1.0;

struct CompiledQubo {
  Qubo qubo;
  std::size_t num_problem_vars = 0;  // QUBO vars [0, n) are program variables
  std::size_t num_ancillas = 0;      // QUBO vars [n, n + a) are ancillas
  double hard_scale = 1.0;           // factor applied to hard constraints
  double max_soft_energy = 0.0;      // upper bound on total soft penalty

  std::size_t num_qubo_vars() const noexcept {
    return num_problem_vars + num_ancillas;
  }

  /// Projects a full QUBO assignment down to the program variables.
  std::vector<bool> project(const std::vector<bool>& full) const {
    return {full.begin(),
            full.begin() + static_cast<std::ptrdiff_t>(num_problem_vars)};
  }
};

/// Compiles `env` using (and warming) the given synthesis engine.
/// Throws std::runtime_error if any constraint cannot be synthesized.
/// When `trace` is non-null, records a "compile" span, this run's
/// synthesis-engine deltas (requests, cache hits/misses, builtin/Z3/LP
/// calls) as counters, and the QUBO shape as gauges.
CompiledQubo compile(const Env& env, SynthEngine& engine,
                     obs::Trace* trace = nullptr);

/// Convenience overload with a default-configured engine.
CompiledQubo compile(const Env& env);

/// Maximum over x of (min over ancillas of f(x, z)) for a synthesized
/// constraint QUBO — the worst-case penalty the constraint can contribute.
/// Exposed for tests; requires num_vars + num_ancillas <= 24.
double max_min_penalty(const SynthesizedQubo& synth);

}  // namespace nck
