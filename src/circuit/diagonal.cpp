#include "circuit/diagonal.hpp"

#include <omp.h>

#include <bit>
#include <cmath>
#include <stdexcept>

namespace nck {
namespace {

using Amplitude = StateVector::Amplitude;

// a * f as the complex multiply computes it, (ac - bd, ad + bc), without
// its recovery call for a (NaN, NaN) result, which amplitudes and phases of
// modulus at most 1 never produce; the call kept the phase loops scalar.
[[gnu::always_inline]] inline Amplitude times(const Amplitude& a,
                                              const Amplitude& f) {
  return {a.real() * f.real() - a.imag() * f.imag(),
          a.real() * f.imag() + a.imag() * f.real()};
}

}  // namespace

DiagonalCost::DiagonalCost(const IsingModel& ising, std::size_t num_qubits)
    : num_qubits_(num_qubits) {
  if (num_qubits > StateVector::kMaxQubits) {
    throw std::invalid_argument("DiagonalCost: too many qubits");
  }
  std::vector<double> table(1ull << num_qubits, 0.0);
  const std::int64_t dim = static_cast<std::int64_t>(table.size());
  // One unit-stride pass per nonzero term: the field h_q adds +-h_q by
  // bit q, the coupler J_ab adds +-J_ab by the parity of bits a and b.
  for (std::size_t q = 0; q < ising.h.size(); ++q) {
    const double hq = ising.h[q];
    if (hq == 0.0) continue;
    if (q >= num_qubits) {
      throw std::invalid_argument("DiagonalCost: field index out of range");
    }
    const std::uint64_t qbit = 1ull << q;
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < dim; ++i) {
      const auto z = static_cast<std::uint64_t>(i);
      table[z] += (z & qbit) != 0 ? hq : -hq;
    }
  }
  for (const auto& [a, b, w] : ising.j) {
    if (w == 0.0) continue;
    if (a >= num_qubits || b >= num_qubits) {
      throw std::invalid_argument("DiagonalCost: coupler index out of range");
    }
    const std::uint64_t abit = 1ull << a;
    const std::uint64_t bbit = 1ull << b;
#pragma omp parallel for schedule(static)
    for (std::int64_t i = 0; i < dim; ++i) {
      const auto z = static_cast<std::uint64_t>(i);
      const bool parity = ((z & abit) != 0) != ((z & bbit) != 0);
      table[z] += parity ? -w : w;  // s_a s_b = +1 iff the bits agree
    }
  }

  // Number the distinct bit patterns in order of first appearance,
  // compacting them to the front of `table` as they are found (level k's
  // first state is never below k). Lookups probe a flat open-addressing
  // table of level + 1 (0 = empty) at load <= 1/2 under a Fibonacci hash,
  // so memory stays a few bytes per state even when every state has its
  // own level, and that case then reads its levels in basis order.
  std::vector<std::uint32_t> slots(2 * table.size());
  const std::uint64_t mask = slots.size() - 1;
  const int shift = 63 - static_cast<int>(num_qubits);
  level_of_.resize(table.size());
  std::size_t num_levels = 0;
  for (std::size_t z = 0; z < table.size(); ++z) {
    const auto bits = std::bit_cast<std::uint64_t>(table[z]);
    std::uint64_t s = (bits * 0x9E3779B97F4A7C15ull) >> shift;
    while (slots[s] != 0 &&
           std::bit_cast<std::uint64_t>(table[slots[s] - 1]) != bits) {
      s = (s + 1) & mask;
    }
    if (slots[s] == 0) {
      table[num_levels++] = table[z];
      slots[s] = static_cast<std::uint32_t>(num_levels);
    }
    level_of_[z] = slots[s] - 1;
  }
  table.resize(num_levels);
  table.shrink_to_fit();
  levels_ = std::move(table);
}

std::vector<StateVector::Amplitude> DiagonalCost::phases(double gamma) const {
  std::vector<StateVector::Amplitude> phase(levels_.size());
  const std::int64_t num_levels = static_cast<std::int64_t>(levels_.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t l = 0; l < num_levels; ++l) {
    const auto k = static_cast<std::size_t>(l);
    phase[k] = std::polar(1.0, -gamma * levels_[k]);
  }
  return phase;
}

void DiagonalCost::apply(StateVector& state, double gamma) const {
  if (state.num_qubits() != num_qubits_) {
    throw std::invalid_argument("DiagonalCost::apply: state width mismatch");
  }
  const std::vector<StateVector::Amplitude> phase = phases(gamma);
  const std::span<StateVector::Amplitude> amps = state.amplitudes();
  const std::int64_t dim = static_cast<std::int64_t>(amps.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < dim; ++i) {
    const auto z = static_cast<std::size_t>(i);
    amps[z] = times(amps[z], phase[level_of_[z]]);
  }
}

void DiagonalCost::evolve_layers(StateVector& state,
                                 const std::vector<double>& params) const {
  if (params.size() % 2 != 0 || params.empty()) {
    throw std::invalid_argument("evolve_qaoa: need 2p parameters");
  }
  if (state.num_qubits() != num_qubits_) {
    throw std::invalid_argument("evolve_qaoa: state width mismatch");
  }
  // fill_uniform() and the first apply() in one pass.
  const std::vector<StateVector::Amplitude> phase = phases(params[0]);
  const std::span<StateVector::Amplitude> amps = state.amplitudes();
  const StateVector::Amplitude uniform(
      1.0 / std::sqrt(static_cast<double>(amps.size())), 0.0);
  const std::int64_t dim = static_cast<std::int64_t>(amps.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t i = 0; i < dim; ++i) {
    const auto z = static_cast<std::size_t>(i);
    amps[z] = times(uniform, phase[level_of_[z]]);
  }
  state.rx_layer(2.0 * params[1]);
  for (std::size_t layer = 1; layer < params.size() / 2; ++layer) {
    apply(state, params[2 * layer]);
    state.rx_layer(2.0 * params[2 * layer + 1]);
  }
}

void DiagonalCost::evolve_qaoa(StateVector& state,
                               const std::vector<double>& params) const {
  evolve_layers(state, params);
  state.renormalize();
}

void DiagonalCost::evolve_qaoa(StateVector& state,
                               const std::vector<double>& params,
                               std::vector<double>& cdf) const {
  evolve_layers(state, params);
  state.renormalize_into_cdf(cdf);
}

}  // namespace nck
