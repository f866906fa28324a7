// Gate-level circuit IR shared by the QAOA builder, the transpiler and the
// simulator. Depth is computed by greedy layering (per-qubit timelines),
// matching the "number of gates in the longest path" metric of Figs 9-10.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/statevector.hpp"

namespace nck {

enum class GateKind : std::uint8_t {
  kH,
  kX,
  kRX,
  kRY,
  kRZ,
  kCX,
  kCZ,
  kRZZ,
  kXY,  // exp(-i theta/4 (XX + YY)); the Alternating-Operator-Ansatz mixer
  kSwap,
};

struct Gate {
  GateKind kind;
  std::uint32_t q0 = 0;
  std::uint32_t q1 = 0;  // unused for single-qubit gates
  double angle = 0.0;    // unused for non-rotation gates

  bool two_qubit() const noexcept {
    return kind == GateKind::kCX || kind == GateKind::kCZ ||
           kind == GateKind::kRZZ || kind == GateKind::kXY ||
           kind == GateKind::kSwap;
  }
};

const char* gate_name(GateKind kind) noexcept;

class Circuit {
 public:
  explicit Circuit(std::size_t num_qubits) : num_qubits_(num_qubits) {}

  std::size_t num_qubits() const noexcept { return num_qubits_; }
  const std::vector<Gate>& gates() const noexcept { return gates_; }
  std::size_t num_gates() const noexcept { return gates_.size(); }
  std::size_t num_two_qubit_gates() const noexcept;

  void h(std::uint32_t q) { push({GateKind::kH, q, 0, 0.0}); }
  void x(std::uint32_t q) { push({GateKind::kX, q, 0, 0.0}); }
  void rx(std::uint32_t q, double t) { push({GateKind::kRX, q, 0, t}); }
  void ry(std::uint32_t q, double t) { push({GateKind::kRY, q, 0, t}); }
  void rz(std::uint32_t q, double t) { push({GateKind::kRZ, q, 0, t}); }
  void cx(std::uint32_t c, std::uint32_t t) { push({GateKind::kCX, c, t, 0.0}); }
  void cz(std::uint32_t a, std::uint32_t b) { push({GateKind::kCZ, a, b, 0.0}); }
  void rzz(std::uint32_t a, std::uint32_t b, double t) {
    push({GateKind::kRZZ, a, b, t});
  }
  void xy(std::uint32_t a, std::uint32_t b, double t) {
    push({GateKind::kXY, a, b, t});
  }

  /// Greedy-layered circuit depth (longest chain of dependent gates).
  std::size_t depth() const;

  /// Applies all gates to the state vector (must have >= num_qubits qubits).
  void run(StateVector& state) const;

  /// One-gate-per-line disassembly for debugging and docs.
  std::string to_string() const;

 private:
  void push(Gate g);

  std::size_t num_qubits_;
  std::vector<Gate> gates_;
};

}  // namespace nck
