// Classical graph routines used to verify quantum results (Definition 8
// classification needs ground truths) and to seed greedy baselines.
#pragma once

#include <optional>
#include <vector>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace nck {

/// True if `in_cover[v]` (one flag per vertex) covers every edge.
bool is_vertex_cover(const Graph& g, const std::vector<bool>& in_cover);

/// Number of cut edges for the given side assignment.
std::size_t cut_size(const Graph& g, const std::vector<bool>& side);

/// True if `color` (one entry per vertex, values in [0, num_colors)) is a
/// proper coloring: no edge joins two same-colored vertices.
bool is_proper_coloring(const Graph& g, std::span<const int> color,
                        int num_colors);

/// True if `color` is a clique cover with `num_colors` classes: every pair
/// of same-colored vertices must be adjacent.
bool is_clique_cover(const Graph& g, std::span<const int> color,
                     int num_colors);

/// Exact minimum vertex cover size via branch and bound (exponential; fine
/// for the study sizes <= ~60 vertices with pruning).
std::size_t minimum_vertex_cover_size(const Graph& g);

/// Exact maximum cut value via branch and bound with a greedy bound
/// (exponential; intended for n <= ~30).
std::size_t maximum_cut_size(const Graph& g);

/// Exact chromatic-style test: can the graph be properly colored with k
/// colors? Backtracking with degree-ordered vertices.
bool k_colorable(const Graph& g, int k);

/// Can the vertices be partitioned into at most k cliques? (Equivalent to
/// k-coloring the complement graph.)
bool clique_coverable(const Graph& g, int k);

/// Greedy 2-approximation for vertex cover (edge matching heuristic);
/// useful as an upper bound inside the exact search and as a baseline.
std::vector<bool> greedy_vertex_cover(const Graph& g);

}  // namespace nck
