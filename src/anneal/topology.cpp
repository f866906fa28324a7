#include "anneal/topology.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace nck {
namespace {

// Default shift offsets (one per track k) for the vertical and horizontal
// segment families. Any choice with the right periodic structure yields the
// canonical 24m(m-1)-qubit, max-degree-15 Pegasus lattice.
constexpr std::array<int, 12> kVerticalOffsets = {2, 2, 10, 10, 6, 6,
                                                  2, 2, 10, 10, 6, 6};
constexpr std::array<int, 12> kHorizontalOffsets = {6, 6, 2, 2, 10, 10,
                                                    6, 6, 2, 2, 10, 10};

}  // namespace

PegasusCoord pegasus_coord(int m, Graph::Vertex q) {
  const int per_u = 12 * m * (m - 1);
  int rest = static_cast<int>(q);
  PegasusCoord c{};
  c.u = rest / per_u;
  rest %= per_u;
  c.w = rest / (12 * (m - 1));
  rest %= 12 * (m - 1);
  c.k = rest / (m - 1);
  c.z = rest % (m - 1);
  return c;
}

Graph::Vertex pegasus_id(int m, const PegasusCoord& c) {
  return static_cast<Graph::Vertex>(
      ((c.u * m + c.w) * 12 + c.k) * (m - 1) + c.z);
}

Graph pegasus_graph(int m, bool fabric_only) {
  if (m < 2) throw std::invalid_argument("pegasus_graph: m must be >= 2");
  const std::size_t n = static_cast<std::size_t>(24 * m * (m - 1));
  Graph g(n);

  // External couplers: consecutive segments on the same line.
  // Odd couplers: track pairs (2j, 2j+1) at the same (u, w, z).
  for (int u = 0; u < 2; ++u) {
    for (int w = 0; w < m; ++w) {
      for (int k = 0; k < 12; ++k) {
        for (int z = 0; z < m - 1; ++z) {
          const auto q = pegasus_id(m, {u, w, k, z});
          if (z + 1 < m - 1) g.add_edge(q, pegasus_id(m, {u, w, k, z + 1}));
          if (k % 2 == 0) g.add_edge(q, pegasus_id(m, {u, w, k + 1, z}));
        }
      }
    }
  }

  // Internal couplers via segment crossing. The vertical qubit
  // (0, w, k, z) occupies line x = 12w + k over y in
  // [12z + ov[k], 12z + ov[k] + 12); symmetric for horizontal.
  for (int w = 0; w < m; ++w) {
    for (int k = 0; k < 12; ++k) {
      for (int z = 0; z < m - 1; ++z) {
        const int x = 12 * w + k;
        const int y0 = 12 * z + kVerticalOffsets[static_cast<std::size_t>(k)];
        for (int y = y0; y < y0 + 12; ++y) {
          const int w1 = y / 12;
          const int k1 = y % 12;
          if (w1 < 0 || w1 >= m) continue;
          // The horizontal qubit on line y covering x has
          // 12*z1 + oh[k1] <= x < 12*z1 + oh[k1] + 12.
          const int shifted = x - kHorizontalOffsets[static_cast<std::size_t>(k1)];
          const int z1 = shifted >= 0 ? shifted / 12 : -((-shifted + 11) / 12);
          if (z1 < 0 || z1 >= m - 1) continue;
          g.add_edge(pegasus_id(m, {0, w, k, z}),
                     pegasus_id(m, {1, w1, k1, z1}));
        }
      }
    }
  }
  if (!fabric_only) return g;

  // Prune boundary qubits that ended up with no internal coupler (they sit
  // outside every perpendicular segment's span). These form isolated
  // external/odd chainlets; dwave-networkx drops them the same way.
  std::vector<bool> has_internal(n, false);
  for (const auto& [a, b] : g.edges()) {
    const PegasusCoord ca = pegasus_coord(m, a);
    const PegasusCoord cb = pegasus_coord(m, b);
    if (ca.u != cb.u) {
      has_internal[a] = true;
      has_internal[b] = true;
    }
  }
  std::vector<Graph::Vertex> keep;
  for (Graph::Vertex q = 0; q < n; ++q) {
    if (has_internal[q]) keep.push_back(q);
  }
  return g.induced_subgraph(keep);
}

Graph chimera_graph(int m, int n, int t) {
  if (m < 1 || n < 1 || t < 1) {
    throw std::invalid_argument("chimera_graph: invalid dimensions");
  }
  const std::size_t total = static_cast<std::size_t>(m) * n * 2 * t;
  Graph g(total);
  auto id = [&](int i, int j, int side, int idx) {
    return static_cast<Graph::Vertex>((((i * n) + j) * 2 + side) * t + idx);
  };
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      // Intra-cell K_{t,t}.
      for (int a = 0; a < t; ++a) {
        for (int b = 0; b < t; ++b) {
          g.add_edge(id(i, j, 0, a), id(i, j, 1, b));
        }
      }
      // Inter-cell: vertical shore couples down, horizontal shore right.
      for (int a = 0; a < t; ++a) {
        if (i + 1 < m) g.add_edge(id(i, j, 0, a), id(i + 1, j, 0, a));
        if (j + 1 < n) g.add_edge(id(i, j, 1, a), id(i, j + 1, 1, a));
      }
    }
  }
  return g;
}

Device::Device(std::string device_name, Graph device_graph,
               std::vector<bool> operable_mask)
    : name(std::move(device_name)),
      graph(std::move(device_graph)),
      operable_(std::move(operable_mask)),
      working_(graph.num_vertices()) {
  if (operable_.size() != graph.num_vertices()) {
    throw std::invalid_argument("Device: one operable flag per qubit needed");
  }
  num_operable_ = static_cast<std::size_t>(
      std::count(operable_.begin(), operable_.end(), true));
  for (const auto& [u, v] : graph.edges()) {
    if (operable_[u] && operable_[v]) working_.add_edge(u, v);
  }
  for (Graph::Vertex q = 0; q < working_.num_vertices(); ++q) {
    host_degree_ = std::max(host_degree_, working_.degree(q));
  }
  digest_.mix(std::string("device"));
  backend::mix_graph(digest_, graph);
  backend::mix_bits(digest_, operable_);
}

Device Device::degraded(const std::vector<std::size_t>& dead) const {
  std::vector<bool> mask = operable_;
  for (std::size_t q : dead) mask.at(q) = false;
  return Device(name, graph, std::move(mask));
}

Device advantage_4_1(Rng& rng, std::size_t dead_qubits) {
  Graph graph = pegasus_graph(16);  // P16 fabric: 5640 qubits
  std::vector<bool> operable(graph.num_vertices(), true);
  std::size_t to_disable = dead_qubits;
  while (to_disable > 0) {
    const auto q = static_cast<std::size_t>(rng.below(graph.num_vertices()));
    if (operable[q]) {
      operable[q] = false;
      --to_disable;
    }
  }
  return Device("advantage-4.1-sim", std::move(graph), std::move(operable));
}

const Device& shared_advantage_4_1() {
  // Without dead qubits advantage_4_1 never draws from its RNG, so every
  // seed builds this same device.
  static const Device device = [] {
    Rng unused;
    return advantage_4_1(unused);
  }();
  return device;
}

Device perfect_device(std::string name, Graph graph) {
  std::vector<bool> operable(graph.num_vertices(), true);
  return Device(std::move(name), std::move(graph), std::move(operable));
}

}  // namespace nck
