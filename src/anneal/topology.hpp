// Quantum-annealer hardware topologies.
//
// Pegasus (D-Wave Advantage) is generated from the segment-intersection
// model: each qubit is a length-12 line segment on an integer grid; vertical
// and horizontal segments are coupled where they cross ("internal"
// couplers), collinear consecutive segments are coupled ("external"), and
// adjacent parallel segments within a cell pair up ("odd"). P_m has
// 24*m*(m-1) qubits with maximum degree 15. Chimera (D-Wave 2000Q) is the
// classic m x n grid of K_{4,4} cells.
//
// The exact Pegasus shift offsets are configurable; the defaults reproduce
// the standard degree/count structure, which is what the embedding engine
// and the paper's qubit-usage numbers depend on.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "backend/fingerprint.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace nck {

/// Pegasus P_m.
///
/// With `fabric_only` (the default, matching dwave-networkx), the 8*(m-1)
/// boundary qubits that carry no internal couplers are pruned and ids are
/// compacted in (u, w, k, z) order: P16 then has 24*16*15 - 8*15 = 5640
/// qubits — exactly the Advantage 4.1 count the paper reports. With
/// fabric_only = false the full 24*m*(m-1)-qubit lattice is returned and
/// ids follow pegasus_id() directly.
Graph pegasus_graph(int m, bool fabric_only = true);

/// Pegasus coordinate <-> linear id helpers (exposed for tests).
struct PegasusCoord {
  int u;  // orientation: 0 = vertical, 1 = horizontal
  int w;  // perpendicular offset block
  int k;  // track within block, [0, 12)
  int z;  // position along the segment direction, [0, m-1)
};
PegasusCoord pegasus_coord(int m, Graph::Vertex q);
Graph::Vertex pegasus_id(int m, const PegasusCoord& c);

/// Chimera C_{m,n} with shore size t (K_{t,t} cells). Qubit ids ordered by
/// (row, column, side, index).
Graph chimera_graph(int m, int n, int t = 4);

/// A named device: its connectivity graph, which qubits are operable, and
/// the facts every solve reads from them. The device is immutable: the
/// facts are derived once, at construction, so one device can be shared
/// read-only by any number of solvers and threads.
class Device {
 public:
  /// `operable_mask` holds one flag per qubit of `device_graph`.
  Device(std::string device_name, Graph device_graph,
         std::vector<bool> operable_mask);

  const std::string name;
  const Graph graph;  // full lattice connectivity

  /// Per qubit; inoperable qubits must not be used.
  const std::vector<bool>& operable() const noexcept { return operable_; }
  std::size_t num_operable() const noexcept { return num_operable_; }
  /// Connectivity restricted to operable qubits (inoperable ones become
  /// isolated vertices so ids stay stable).
  const Graph& working_graph() const noexcept { return working_; }
  /// Maximum degree of the working graph.
  std::size_t host_degree() const noexcept { return host_degree_; }
  /// 128-bit digest of the graph and the operable mask; one dead qubit
  /// changes it. Plan keys mix this instead of rehashing the topology.
  const backend::Fingerprint& digest() const noexcept { return digest_; }

  /// This device with the `dead` qubits also inoperable. The copy derives
  /// its own facts; this device is left untouched.
  Device degraded(const std::vector<std::size_t>& dead) const;

 private:
  std::vector<bool> operable_;
  std::size_t num_operable_ = 0;
  Graph working_;
  std::size_t host_degree_ = 0;
  backend::Fingerprint digest_;
};

/// D-Wave Advantage 4.1 analogue: the Pegasus P16 fabric (5640 qubits, the
/// paper's figure), optionally minus `dead_qubits` random fabrication
/// defects (0 by default; real devices lose a further handful). The RNG is
/// drawn from only to place the dead qubits.
Device advantage_4_1(Rng& rng, std::size_t dead_qubits = 0);

/// The defect-free Advantage 4.1 device, built on first use and shared
/// read-only for the rest of the process: every Solver (and so every pool
/// task, decompose sub-solve and serve worker) and every lint target
/// borrows this one object.
const Device& shared_advantage_4_1();

/// Defect-free device over any graph (for tests and small studies).
Device perfect_device(std::string name, Graph graph);

}  // namespace nck
