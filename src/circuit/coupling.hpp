// Physical coupling maps for circuit-model devices. IBM's large machines
// use heavy-hex-style lattices: long rows of linearly coupled qubits joined
// by sparse bridge qubits. The 65-qubit instance reproduces the
// ibmq_brooklyn / ibmq_manhattan (Hummingbird) layout: alternating rows of
// 10/11 qubits with three bridges between consecutive rows.
#pragma once

#include "graph/graph.hpp"

namespace nck {

/// Heavy-hex style lattice with `rows` horizontal rows (>= 2). First and
/// last rows hold 10 qubits, middle rows 11; consecutive rows are joined by
/// 3 bridge qubits whose attachment points alternate between
/// {0, 4, 8} and {2, 6, 10} across gaps. rows == 5 gives the 65-qubit
/// Brooklyn-class map.
Graph heavy_hex_lattice(int rows);

/// The 65-qubit ibmq_brooklyn-class coupling map.
Graph brooklyn_coupling();

/// The Brooklyn map, built on first use and shared read-only for the rest
/// of the process (every Solver and every lint target borrows it).
const Graph& shared_brooklyn_coupling();

}  // namespace nck
