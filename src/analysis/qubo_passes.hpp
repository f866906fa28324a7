// QUBO- and backend-level static-analysis passes: coefficient dynamic range
// against the annealer's integrated-control-error (ICE) noise model, minor-
// embedding feasibility pre-checks against the device topology, and width/
// depth pre-estimates against a heavy-hex circuit device.
//
// Error-severity diagnostics here are *necessary-condition* violations
// (e.g. more logical edges than physical couplers): they only fire when the
// backend provably cannot run the problem, so Solver can abort on them
// without ever rejecting a runnable program.
#pragma once

#include "analysis/diagnostic.hpp"
#include "anneal/topology.hpp"
#include "core/compile.hpp"
#include "graph/graph.hpp"

namespace nck {

struct QuboPassOptions {
  /// ICE model: Gaussian noise stddev on each h/J relative to the largest
  /// absolute coefficient (matches AnnealerSamplerOptions::ice_sigma).
  double ice_sigma = 0.015;
  /// Terms with |coefficient| < noise_floor_factor * ice_sigma * max|c|
  /// are flagged as statistically indistinguishable from control error.
  double noise_floor_factor = 1.0;
  /// Embedding pre-check: warn when the chain-length lower bound uses more
  /// than this fraction of the operable qubits (heuristic embedders rarely
  /// reach full-device utilization).
  double embedding_yield_fraction = 0.5;
  /// QAOA depth assumed by the circuit pre-estimate.
  int qaoa_p = 1;
  /// Modeled SWAP overhead: CX gates per quadratic term routed on the
  /// sparse heavy-hex lattice (2 CX for the ZZ interaction + inserted SWAPs).
  double cx_per_quadratic_term = 5.0;
  /// Per-CX depolarizing error used for the depth/fidelity budget (matches
  /// NoiseModel::error_cx); warn when the estimated circuit fidelity drops
  /// below fidelity_budget.
  double error_cx = 0.004;
  double fidelity_budget = 0.5;
};

/// Coefficient dynamic-range analysis of the compiled QUBO in Ising form
/// (the representation the ICE noise perturbs).
void analyze_coefficient_range(const CompiledQubo& compiled,
                               const QuboPassOptions& options,
                               AnalysisReport& report);

/// Minor-embedding feasibility pre-check against `device`.
void analyze_embedding_feasibility(const CompiledQubo& compiled,
                                   const Device& device,
                                   const QuboPassOptions& options,
                                   AnalysisReport& report);

/// Width/depth pre-estimate against a circuit device coupling map.
void analyze_circuit_feasibility(const CompiledQubo& compiled,
                                 const Graph& coupling,
                                 const QuboPassOptions& options,
                                 AnalysisReport& report);

}  // namespace nck
