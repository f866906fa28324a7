#include "qubo/ising.hpp"

#include <stdexcept>

namespace nck {

double IsingModel::energy(const std::vector<bool>& spins) const {
  if (spins.size() < h.size()) {
    throw std::invalid_argument("IsingModel::energy: assignment too short");
  }
  auto s = [&](Var i) { return spins[i] ? 1.0 : -1.0; };
  double e = offset;
  for (std::size_t i = 0; i < h.size(); ++i) e += h[i] * s(static_cast<Var>(i));
  for (const auto& [a, b, c] : j) e += c * s(a) * s(b);
  return e;
}

IsingModel qubo_to_ising(const Qubo& q) {
  // x_i = (1 + s_i)/2:
  //   a_i x_i           -> a_i/2 s_i + a_i/2
  //   b_ij x_i x_j      -> b_ij/4 (s_i s_j + s_i + s_j + 1)
  IsingModel m;
  m.h.assign(q.num_variables(), 0.0);
  m.offset = q.offset();
  for (std::size_t i = 0; i < q.num_variables(); ++i) {
    const double a = q.linear(static_cast<Qubo::Var>(i));
    m.h[i] += a / 2.0;
    m.offset += a / 2.0;
  }
  for (const auto& [i, j, b] : q.quadratic_terms()) {
    m.j.emplace_back(i, j, b / 4.0);
    m.h[i] += b / 4.0;
    m.h[j] += b / 4.0;
    m.offset += b / 4.0;
  }
  return m;
}

Qubo ising_to_qubo(const IsingModel& m) {
  // s_i = 2 x_i - 1:
  //   h_i s_i      -> 2 h_i x_i - h_i
  //   J_ij s_i s_j -> 4 J x_i x_j - 2 J x_i - 2 J x_j + J
  Qubo q(m.num_spins());
  q.add_offset(m.offset);
  for (std::size_t i = 0; i < m.h.size(); ++i) {
    q.add_linear(static_cast<Qubo::Var>(i), 2.0 * m.h[i]);
    q.add_offset(-m.h[i]);
  }
  for (const auto& [a, b, c] : m.j) {
    q.add_quadratic(a, b, 4.0 * c);
    q.add_linear(a, -2.0 * c);
    q.add_linear(b, -2.0 * c);
    q.add_offset(c);
  }
  return q;
}

}  // namespace nck
