#include "circuit/coupling.hpp"

#include <array>
#include <algorithm>
#include <stdexcept>
#include <vector>

namespace nck {

Graph heavy_hex_lattice(int rows) {
  if (rows < 2) throw std::invalid_argument("heavy_hex_lattice: rows < 2");

  // Row sizes: 10, 11, ..., 11, 10.
  std::vector<int> row_size(static_cast<std::size_t>(rows), 11);
  row_size.front() = 10;
  row_size.back() = 10;

  // Assign ids: rows interleaved with their bridge qubits, in reading order.
  std::vector<std::vector<Graph::Vertex>> row_ids(row_size.size());
  std::vector<std::array<Graph::Vertex, 3>> bridge_ids(
      static_cast<std::size_t>(rows - 1));
  Graph::Vertex next = 0;
  for (int r = 0; r < rows; ++r) {
    for (int i = 0; i < row_size[static_cast<std::size_t>(r)]; ++i) {
      row_ids[static_cast<std::size_t>(r)].push_back(next++);
    }
    if (r + 1 < rows) {
      for (int b = 0; b < 3; ++b) {
        bridge_ids[static_cast<std::size_t>(r)][static_cast<std::size_t>(b)] =
            next++;
      }
    }
  }

  Graph g(next);
  // Linear chains within each row.
  for (const auto& ids : row_ids) {
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      g.add_edge(ids[i], ids[i + 1]);
    }
  }
  // Bridges: attachment points alternate across gaps, clamped to row length.
  for (int r = 0; r + 1 < rows; ++r) {
    const bool even_gap = (r % 2) == 0;
    const int points[3] = {even_gap ? 0 : 2, even_gap ? 4 : 6,
                           even_gap ? 8 : 10};
    for (int b = 0; b < 3; ++b) {
      const auto& top = row_ids[static_cast<std::size_t>(r)];
      const auto& bottom = row_ids[static_cast<std::size_t>(r) + 1];
      const std::size_t pt =
          std::min<std::size_t>(static_cast<std::size_t>(points[b]),
                                top.size() - 1);
      const std::size_t pb =
          std::min<std::size_t>(static_cast<std::size_t>(points[b]),
                                bottom.size() - 1);
      const Graph::Vertex bridge =
          bridge_ids[static_cast<std::size_t>(r)][static_cast<std::size_t>(b)];
      g.add_edge(top[pt], bridge);
      g.add_edge(bridge, bottom[pb]);
    }
  }
  return g;
}

Graph brooklyn_coupling() { return heavy_hex_lattice(5); }

const Graph& shared_brooklyn_coupling() {
  static const Graph coupling = brooklyn_coupling();
  return coupling;
}

}  // namespace nck
