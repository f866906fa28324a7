// Fused diagonal cost kernel for QAOA-style circuits (DESIGN.md §3g). The
// RZZ/RZ layer of each cost step is the diagonal unitary exp(-i gamma H_C),
// so instead of one state-vector traversal per gate the Ising energy E(z)
// of every basis state is precomputed once per problem and every cost
// layer becomes a single phase pass; the optimizer's repeated evolutions
// reuse it. The states of a compiled program share few distinct energies
// (at most a few hundred over 2^16 states), so the energies are stored as
// a list of levels plus one level index per state, and a cost layer
// evaluates one phase per level.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/statevector.hpp"
#include "qubo/ising.hpp"

namespace nck {

class DiagonalCost {
 public:
  /// Tabulates E(z) = sum_q h_q s_q + sum_{a<b} J_ab s_a s_b for every
  /// basis state z, with bit q of z set meaning s_q = +1 (the repo-wide
  /// x = (1+s)/2 convention), then indexes the distinct values by their
  /// exact bit pattern. The model offset is excluded — it is a global
  /// phase. Throws for num_qubits > StateVector::kMaxQubits or a coupler
  /// index out of range.
  DiagonalCost(const IsingModel& ising, std::size_t num_qubits);

  std::size_t num_qubits() const noexcept { return num_qubits_; }
  /// E(z) of basis state z, offset excluded.
  double energy(std::uint64_t z) const { return levels_[level_of_[z]]; }
  /// Number of distinct energies: the phases one cost layer evaluates.
  std::size_t num_levels() const noexcept { return levels_.size(); }

  /// One fused cost layer: amps[z] *= std::polar(1.0, -gamma * E(z)),
  /// evaluating std::polar once per level with that same argument, so the
  /// result is bit-identical to the per-state form. Matches the per-gate
  /// RZZ/RZ sequence of build_qaoa_circuit up to floating-point
  /// association. Throws if the state is not num_qubits() wide.
  void apply(StateVector& state, double gamma) const;

  /// The full fused QAOA evolution: per layer one fused cost pass and one
  /// RX mixer layer (StateVector::rx_layer), then a final renormalize to
  /// pin ||psi|| against unit-factor drift at deep p. The first cost pass
  /// writes |+>^n times its phases in one pass: the product apply() forms
  /// on fill_uniform()'s amplitudes, with the same operands.
  /// params = {gamma_1, beta_1, ..., gamma_p, beta_p}. Throws for an odd
  /// or empty params or a state that is not num_qubits() wide.
  void evolve_qaoa(StateVector& state, const std::vector<double>& params) const;

  /// evolve_qaoa whose final renormalize also builds the sampling CDF
  /// (StateVector::renormalize_into_cdf), for a caller that draws shots
  /// next: the same state, and the CDF StateVector::sample would build.
  void evolve_qaoa(StateVector& state, const std::vector<double>& params,
                   std::vector<double>& cdf) const;

 private:
  /// std::polar(1.0, -gamma * level) for every level.
  std::vector<StateVector::Amplitude> phases(double gamma) const;
  /// evolve_qaoa up to, not including, the final renormalize.
  void evolve_layers(StateVector& state,
                     const std::vector<double>& params) const;

  std::size_t num_qubits_;
  /// Distinct energies, in order of their first basis state.
  std::vector<double> levels_;
  /// level_of_[z] indexes levels_; 4 bytes per basis state.
  std::vector<std::uint32_t> level_of_;
};

}  // namespace nck
