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
  /// layer — as a real-arithmetic butterfly, cache-blocked: qubits
  /// 0..k-1 block by block while each block of 2^k amplitudes sits in L1,
  /// then qubits k..n-1 over column tiles (DESIGN.md §3g). Every amplitude
  /// still takes its qubits in order 0..n-1, with the arithmetic of the
  /// complex form c*a0 + (-i s)*a1, so the result equals that form bit for
  /// bit, up to the sign of an exact zero, at any width and thread count.
  /// Runs mixer_lanes() amplitudes per vector.
  void rx_layer(double theta);

  /// rx_layer on an explicit width: 1 amplitude per vector, or 2 where
  /// mixer_lanes() is 2 (else std::invalid_argument). Every width gives
  /// the same amplitudes bit for bit; tests run both.
  void rx_layer(double theta, std::size_t lanes);

  /// Rescales so norm() == 1, pinning the drift of long products of unit
  /// complex factors (deep-p QAOA); no-op on the zero vector.
  void renormalize();

  /// renormalize() and sample()'s CDF build in one pass: after the call
  /// the state is what renormalize() leaves and cdf[i] is the running sum
  /// of |amplitude|^2 over basis states 0..i, each the value sample()
  /// computes. `cdf` is resized to dimension(), so a buffer kept across
  /// calls allocates once.
  void renormalize_into_cdf(std::vector<double>& cdf);

  /// Sum of |amplitude|^2 (1 for any unitary evolution; tested invariant).
  double norm() const;

  /// Probability of each basis state.
  std::vector<double> probabilities() const;

  /// Samples `shots` basis states i.i.d. from the output distribution
  /// (draw_basis_states over this state's CDF).
  std::vector<std::uint64_t> sample(std::size_t shots, Rng& rng) const;

 private:
  std::size_t num_qubits_;
  std::vector<Amplitude> amps_;
};

/// Amplitudes per vector of StateVector::rx_layer on this host: 2 (one
/// 256-bit vector) where the CPU has AVX2, else (other CPUs and non-x86
/// builds) 1.
std::size_t mixer_lanes() noexcept;

/// Inverse-CDF sampling: out[s], in shot order, is the first basis state i
/// with cdf[i] >= rng.uniform() * cdf.back(), one uniform per shot.
/// `cdf` is a running sum of probabilities (StateVector::
/// renormalize_into_cdf); it must not be empty.
void draw_basis_states(std::span<const double> cdf,
                       std::span<std::uint64_t> out, Rng& rng);

}  // namespace nck
