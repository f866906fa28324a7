// Variable-interaction graph of a generalized NchooseK program: one vertex
// per program variable, one edge per pair of variables that co-occur in a
// constraint. Because every constraint synthesizes to a QUBO over exactly
// its own variables (plus constraint-local ancillas), this is the nonzero
// quadratic structure of the summed program QUBO — the graph whose
// partition (decompose::plan_partition) defines the qbsolv-style
// decomposition seam: variables in different components never share a
// quadratic term, and a BFS-grown part bounds the clamped boundary of its
// sub-QUBO.
#pragma once

#include "core/env.hpp"
#include "graph/graph.hpp"

namespace nck {

/// Builds the interaction graph over [0, env.num_vars()). Variables in no
/// constraint are isolated vertices (degree 0).
Graph variable_interaction_graph(const Env& env);

}  // namespace nck
