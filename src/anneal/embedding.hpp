// Minor embedding of a logical interaction graph into a hardware topology,
// following the Cai-Macready-Roy heuristic that minorminer implements:
// iteratively route every logical variable to a connected chain of physical
// qubits via weighted shortest paths, squeezing out qubit overuse by growing
// the penalty on shared qubits until chains are disjoint.
//
// Chain-length blow-up on Pegasus is what makes the paper's D-Wave qubit
// counts exceed the NchooseK variable counts (Section VIII-A).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "qubo/qubo.hpp"
#include "util/rng.hpp"

namespace nck {

struct Embedding {
  /// chains[v] = physical qubits representing logical variable v
  /// (connected in the physical graph, pairwise disjoint across chains).
  std::vector<std::vector<Graph::Vertex>> chains;

  std::size_t total_qubits() const;
  std::size_t max_chain_length() const;
};

struct EmbedOptions {
  std::size_t max_passes = 64;   // improvement sweeps before giving up
  double penalty_base = 4.0;     // per-pass growth of the overuse penalty
  std::size_t tries = 5;         // independent restarts (region grows each try)
};

/// Interaction graph of a QUBO: one vertex per QUBO variable, one edge per
/// nonzero quadratic term. This is the graph that must minor-embed.
Graph interaction_graph(const Qubo& qubo);

/// Attempts to embed `logical` into `physical`. Qubits that are isolated in
/// `physical` (e.g. masked-out defective qubits) are never used.
/// Returns std::nullopt if no valid embedding was found within the budget.
std::optional<Embedding> find_embedding(const Graph& logical,
                                        const Graph& physical, Rng& rng,
                                        const EmbedOptions& options = {});

struct EmbeddingCheck {
  bool ok = false;
  std::string error;
};

/// Checks the three minor-embedding invariants: every chain non-empty and
/// connected in `physical`, chains pairwise disjoint, and every logical edge
/// realized by at least one physical coupler between the two chains.
EmbeddingCheck validate_embedding(const Graph& logical, const Graph& physical,
                                  const Embedding& embedding);

}  // namespace nck
