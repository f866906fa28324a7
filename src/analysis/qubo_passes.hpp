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

/// Coefficient dynamic-range analysis of the compiled QUBO in Ising form
/// (the representation the ICE noise perturbs), against the modeled
/// device's kDefaultIceSigma.
void analyze_coefficient_range(const CompiledQubo& compiled,
                               AnalysisReport& report);

/// Minor-embedding feasibility pre-check against `device`.
void analyze_embedding_feasibility(const CompiledQubo& compiled,
                                   const Device& device,
                                   AnalysisReport& report);

/// Width/depth pre-estimate against a circuit device coupling map, at the
/// modeled device's kDefaultQaoaDepth and kDefaultErrorCx.
void analyze_circuit_feasibility(const CompiledQubo& compiled,
                                 const Graph& coupling,
                                 AnalysisReport& report);

}  // namespace nck
