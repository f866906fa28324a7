// Two-local Ising form  H(s) = offset + sum_i h_i s_i + sum_{i<j} J_ij s_i s_j
// with spins s_i in {-1, +1}. D-Wave hardware natively minimizes this form;
// the paper (Section VI) notes the simple linear transformation between the
// two. We use the convention x_i = (1 + s_i) / 2, i.e. spin +1 <=> TRUE.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qubo/qubo.hpp"

namespace nck {

struct IsingModel {
  using Var = Qubo::Var;

  std::vector<double> h;                             // per-spin fields
  std::vector<std::tuple<Var, Var, double>> j;       // couplers, i < j
  double offset = 0.0;

  std::size_t num_spins() const noexcept { return h.size(); }

  /// Energy for spins in {-1,+1} encoded as bools (true == +1).
  double energy(const std::vector<bool>& spins) const;
};

/// Exact conversion: minimizers map bijectively via x = (1+s)/2.
IsingModel qubo_to_ising(const Qubo& q);

/// Inverse conversion.
Qubo ising_to_qubo(const IsingModel& m);

}  // namespace nck
