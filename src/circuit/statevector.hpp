// Dense state-vector simulator for the circuit-model backend. Amplitudes
// are stored with qubit 0 as the least significant bit of the basis index.
// Gate kernels are OpenMP-parallel; practical up to ~24 qubits.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace nck {

class StateVector {
 public:
  using Amplitude = std::complex<double>;

  /// Initializes |0...0>. Throws for num_qubits > kMaxQubits.
  explicit StateVector(std::size_t num_qubits);

  static constexpr std::size_t kMaxQubits = 26;

  std::size_t num_qubits() const noexcept { return num_qubits_; }
  std::size_t dimension() const noexcept { return amps_.size(); }

  Amplitude amplitude(std::uint64_t basis) const { return amps_[basis]; }
  /// All 2^n amplitudes, indexed by basis state, for kernels that live
  /// outside this class (the fused cost layer of circuit/diagonal.hpp).
  std::span<Amplitude> amplitudes() noexcept { return amps_; }
  std::span<const Amplitude> amplitudes() const noexcept { return amps_; }

  /// Applies an arbitrary single-qubit unitary (row-major 2x2).
  void apply_1q(std::size_t q, const Amplitude u[4]);

  void h(std::size_t q);
  void x(std::size_t q);
  void rx(std::size_t q, double theta);
  void ry(std::size_t q, double theta);
  void rz(std::size_t q, double theta);

  void cx(std::size_t control, std::size_t target);
  void cz(std::size_t a, std::size_t b);
  /// exp(-i theta/2 Z\otimes Z) — the QAOA cost-layer two-qubit gate.
  void rzz(std::size_t a, std::size_t b, double theta);
  /// exp(-i theta/4 (X\otimes X + Y\otimes Y)) — the number-preserving
  /// "XY" / Givens mixing gate of the Quantum Alternating Operator Ansatz:
  /// rotates within the {|01>, |10>} subspace, leaving |00> and |11> fixed.
  void xy(std::size_t a, std::size_t b, double theta);
  void swap(std::size_t a, std::size_t b);

  /// Resets to the uniform superposition |+>^n — the QAOA initial state,
  /// replacing n Hadamard passes with one fill.
  void fill_uniform();

  /// Applies rx(theta) to every qubit — the QAOA transverse-field mixer
  /// layer — as a real-arithmetic butterfly over contiguous runs of
  /// amplitude pairs instead of one skip-half traversal per gate. Equals
  /// the complex form c*a0 + (-i s)*a1 bit for bit, up to the sign of an
  /// exact zero.
  void rx_layer(double theta);

  /// Rescales so norm() == 1, pinning the drift of long products of unit
  /// complex factors (deep-p QAOA); no-op on the zero vector.
  void renormalize();

  /// Sum of |amplitude|^2 (1 for any unitary evolution; tested invariant).
  double norm() const;

  /// Probability of each basis state.
  std::vector<double> probabilities() const;

  /// Samples `shots` basis states i.i.d. from the output distribution.
  std::vector<std::uint64_t> sample(std::size_t shots, Rng& rng) const;

 private:
  std::size_t num_qubits_;
  std::vector<Amplitude> amps_;
};

}  // namespace nck
