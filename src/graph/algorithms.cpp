#include "graph/algorithms.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace nck {

bool is_vertex_cover(const Graph& g, const std::vector<bool>& in_cover) {
  if (in_cover.size() != g.num_vertices()) return false;
  for (const auto& [u, v] : g.edges()) {
    if (!in_cover[u] && !in_cover[v]) return false;
  }
  return true;
}

std::size_t cut_size(const Graph& g, const std::vector<bool>& side) {
  std::size_t cut = 0;
  for (const auto& [u, v] : g.edges()) {
    if (side[u] != side[v]) ++cut;
  }
  return cut;
}

bool is_proper_coloring(const Graph& g, std::span<const int> color,
                        int num_colors) {
  if (color.size() != g.num_vertices()) return false;
  for (std::size_t v = 0; v < color.size(); ++v) {
    if (color[v] < 0 || color[v] >= num_colors) return false;
  }
  for (const auto& [u, v] : g.edges()) {
    if (color[u] == color[v]) return false;
  }
  return true;
}

bool is_clique_cover(const Graph& g, std::span<const int> color,
                     int num_colors) {
  if (color.size() != g.num_vertices()) return false;
  for (std::size_t v = 0; v < color.size(); ++v) {
    if (color[v] < 0 || color[v] >= num_colors) return false;
  }
  const auto n = static_cast<Graph::Vertex>(g.num_vertices());
  for (Graph::Vertex u = 0; u < n; ++u) {
    for (Graph::Vertex v = u + 1; v < n; ++v) {
      if (color[u] == color[v] && !g.has_edge(u, v)) return false;
    }
  }
  return true;
}

namespace {

// Branch and bound for minimum vertex cover: repeatedly pick an uncovered
// edge and branch on which endpoint joins the cover.
struct VcSearch {
  const Graph& g;
  std::vector<bool> in_cover;
  std::size_t best;

  explicit VcSearch(const Graph& g_) : g(g_), in_cover(g_.num_vertices(), false) {
    const auto greedy = greedy_vertex_cover(g);
    best = static_cast<std::size_t>(
        std::count(greedy.begin(), greedy.end(), true));
  }

  std::optional<Graph::Edge> uncovered_edge() const {
    for (const auto& e : g.edges()) {
      if (!in_cover[e.first] && !in_cover[e.second]) return e;
    }
    return std::nullopt;
  }

  void search(std::size_t size) {
    if (size >= best) return;
    const auto e = uncovered_edge();
    if (!e) {
      best = size;
      return;
    }
    for (Graph::Vertex v : {e->first, e->second}) {
      in_cover[v] = true;
      search(size + 1);
      in_cover[v] = false;
    }
  }
};

}  // namespace

std::size_t minimum_vertex_cover_size(const Graph& g) {
  VcSearch s(g);
  s.search(0);
  return s.best;
}

namespace {

// Max cut branch and bound: assign vertices in order; bound assumes every
// undecided edge could still be cut.
struct CutSearch {
  const Graph& g;
  std::vector<int> side;  // -1 undecided, 0/1 assigned
  std::size_t best = 0;

  explicit CutSearch(const Graph& g_) : g(g_), side(g_.num_vertices(), -1) {}

  void search(std::size_t v, std::size_t cut, std::size_t undecided_edges) {
    if (cut + undecided_edges <= best) return;
    if (v == g.num_vertices()) {
      best = std::max(best, cut);
      return;
    }
    for (int s = 0; s <= (v == 0 ? 0 : 1); ++s) {  // fix vertex 0 to break symmetry
      side[v] = s;
      std::size_t new_cut = cut;
      std::size_t resolved = 0;
      for (Graph::Vertex w : g.neighbors(static_cast<Graph::Vertex>(v))) {
        if (side[w] != -1 && w < v) {
          ++resolved;
          if (side[w] != s) ++new_cut;
        }
      }
      // Edges from v to already-assigned lower-index vertices become decided.
      search(v + 1, new_cut, undecided_edges - resolved);
      side[v] = -1;
    }
  }
};

}  // namespace

std::size_t maximum_cut_size(const Graph& g) {
  if (g.num_vertices() == 0) return 0;
  CutSearch s(g);
  s.search(0, 0, g.num_edges());
  return s.best;
}

namespace {

bool color_search(const Graph& g, std::span<const Graph::Vertex> order,
                  std::vector<int>& color, int k, std::size_t idx) {
  if (idx == order.size()) return true;
  const Graph::Vertex v = order[idx];
  // Symmetry breaking: vertex may only use colors 0..min(idx, k-1).
  const int limit = std::min<int>(k - 1, static_cast<int>(idx));
  for (int c = 0; c <= limit; ++c) {
    bool ok = true;
    for (Graph::Vertex w : g.neighbors(v)) {
      if (color[w] == c) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    color[v] = c;
    if (color_search(g, order, color, k, idx + 1)) return true;
    color[v] = -1;
  }
  return false;
}

}  // namespace

bool k_colorable(const Graph& g, int k) {
  if (k <= 0) return g.num_vertices() == 0;
  std::vector<Graph::Vertex> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](Graph::Vertex a, Graph::Vertex b) {
    return g.degree(a) > g.degree(b);
  });
  std::vector<int> color(g.num_vertices(), -1);
  return color_search(g, order, color, k, 0);
}

int chromatic_number(const Graph& g, int max_k) {
  if (g.num_vertices() == 0) return 0;
  for (int k = 1; k <= max_k; ++k) {
    if (k_colorable(g, k)) return k;
  }
  throw std::runtime_error("chromatic_number: exceeds max_k");
}

bool clique_coverable(const Graph& g, int k) {
  // Clique cover of G == proper coloring of the complement of G.
  Graph complement(g.num_vertices());
  for (const auto& [u, v] : g.complement_edges()) complement.add_edge(u, v);
  return k_colorable(complement, k);
}

int clique_cover_number(const Graph& g, int max_k) {
  if (g.num_vertices() == 0) return 0;
  for (int k = 1; k <= max_k; ++k) {
    if (clique_coverable(g, k)) return k;
  }
  throw std::runtime_error("clique_cover_number: exceeds max_k");
}

std::vector<bool> greedy_vertex_cover(const Graph& g) {
  std::vector<bool> cover(g.num_vertices(), false);
  for (const auto& [u, v] : g.edges()) {
    if (!cover[u] && !cover[v]) {
      cover[u] = true;
      cover[v] = true;
    }
  }
  return cover;
}

std::vector<int> greedy_coloring(const Graph& g) {
  std::vector<int> color(g.num_vertices(), -1);
  std::vector<Graph::Vertex> order(g.num_vertices());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](Graph::Vertex a, Graph::Vertex b) {
    return g.degree(a) > g.degree(b);
  });
  for (Graph::Vertex v : order) {
    std::vector<bool> used(g.num_vertices() + 1, false);
    for (Graph::Vertex w : g.neighbors(v)) {
      if (color[w] >= 0) used[static_cast<std::size_t>(color[w])] = true;
    }
    int c = 0;
    while (used[static_cast<std::size_t>(c)]) ++c;
    color[v] = c;
  }
  return color;
}

}  // namespace nck
