// Simple undirected graph used throughout the problem encoders, the
// embedding engine and the device topologies.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace nck {

/// Undirected simple graph with contiguous vertex ids [0, num_vertices).
/// Stores both an adjacency list (for traversal) and an edge list (for
/// iteration in deterministic order). Self-loops and parallel edges are
/// rejected.
class Graph {
 public:
  using Vertex = std::uint32_t;
  using Edge = std::pair<Vertex, Vertex>;  // always stored with first < second

  Graph() = default;
  explicit Graph(std::size_t num_vertices);

  std::size_t num_vertices() const noexcept { return adjacency_.size(); }
  std::size_t num_edges() const noexcept { return edges_.size(); }

  /// Adds edge {u, v}. Returns false (and does nothing) if the edge already
  /// exists or u == v. Both endpoints must be existing vertices.
  bool add_edge(Vertex u, Vertex v);

  bool has_edge(Vertex u, Vertex v) const noexcept;

  std::span<const Vertex> neighbors(Vertex v) const noexcept {
    return adjacency_[v];
  }
  std::size_t degree(Vertex v) const noexcept { return adjacency_[v].size(); }

  std::span<const Edge> edges() const noexcept { return edges_; }

  /// All vertex pairs {u, v}, u < v, that are *not* edges (needed by the
  /// clique-cover encoding, which constrains absent edges).
  std::vector<Edge> complement_edges() const;

  /// True if every vertex is reachable from vertex 0 (or the graph is empty).
  bool connected() const;

  /// Induced subgraph on `keep` (ids are remapped to 0..keep.size()-1,
  /// in the order given).
  Graph induced_subgraph(std::span<const Vertex> keep) const;

 private:
  std::vector<std::vector<Vertex>> adjacency_;
  std::vector<Edge> edges_;
};

/// Disjoint-set forest with union by size and path halving.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n);

  std::size_t find(std::size_t x) noexcept;
  /// Returns true if the two elements were in different sets.
  bool unite(std::size_t a, std::size_t b) noexcept;
  std::size_t num_sets() const noexcept { return num_sets_; }

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::size_t> size_;
  std::size_t num_sets_;
};

}  // namespace nck
