#include "circuit/aoa.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/diagonal.hpp"

namespace nck {

std::size_t OneHotGroups::num_qubits() const {
  std::size_t n = 0;
  for (const auto& g : groups) n += g.size();
  return n;
}

void OneHotGroups::validate(std::size_t total_qubits) const {
  std::vector<bool> seen(total_qubits, false);
  for (const auto& g : groups) {
    if (g.empty()) {
      throw std::invalid_argument("OneHotGroups: empty group");
    }
    for (Qubo::Var v : g) {
      if (v >= total_qubits) {
        throw std::invalid_argument("OneHotGroups: variable out of range");
      }
      if (seen[v]) {
        throw std::invalid_argument("OneHotGroups: groups must be disjoint");
      }
      seen[v] = true;
    }
  }
}

namespace {

// W-state preparation on a group: X on the first qubit, then a chain of
// Givens (XY) rotations peeling off amplitude so that every one-hot basis
// state of the group ends with probability 1/k. (Each hop contributes a -i
// phase; the mixer preserves the subspace regardless.)
void prepare_w_state(Circuit& circuit, const std::vector<Qubo::Var>& group) {
  const std::size_t k = group.size();
  circuit.x(group[0]);
  for (std::size_t j = 1; j < k; ++j) {
    // Keep probability 1/(k-j+1) of what remains at position j-1.
    const double keep = 1.0 / std::sqrt(static_cast<double>(k - j + 1));
    const double theta = 2.0 * std::acos(keep);
    circuit.xy(group[j - 1], group[j], theta);
  }
}

}  // namespace

Circuit build_aoa_circuit(const IsingModel& conflict_cost,
                          const OneHotGroups& groups,
                          const std::vector<double>& params) {
  if (params.size() % 2 != 0 || params.empty()) {
    throw std::invalid_argument("build_aoa_circuit: need 2p parameters");
  }
  const std::size_t n = conflict_cost.num_spins();
  Circuit circuit(n);
  for (const auto& group : groups.groups) prepare_w_state(circuit, group);

  for (std::size_t layer = 0; layer < params.size() / 2; ++layer) {
    const double gamma = params[2 * layer];
    const double beta = params[2 * layer + 1];
    // Phase separator over the conflict Hamiltonian only.
    for (const auto& [a, b, j] : conflict_cost.j) {
      if (j != 0.0) circuit.rzz(a, b, 2.0 * gamma * j);
    }
    for (std::uint32_t q = 0; q < n; ++q) {
      // theta = -2 gamma h for e^{-i gamma h s}; see build_qaoa_circuit.
      if (conflict_cost.h[q] != 0.0) {
        circuit.rz(q, -2.0 * gamma * conflict_cost.h[q]);
      }
    }
    // XY ring mixer per group (a single XY suffices for pairs).
    for (const auto& group : groups.groups) {
      const std::size_t k = group.size();
      if (k < 2) continue;
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t next = (i + 1) % k;
        if (k == 2 && i == 1) break;  // avoid the duplicate pair edge
        circuit.xy(group[i], group[next], 2.0 * beta);
      }
    }
  }
  return circuit;
}

QaoaResult run_aoa(const Qubo& conflict_qubo, const Qubo& eval_qubo,
                   const OneHotGroups& groups, const Graph& coupling,
                   const QaoaOptions& options, Rng& rng) {
  const std::size_t n =
      std::max(conflict_qubo.num_variables(), eval_qubo.num_variables());
  groups.validate(n);
  if (n > options.max_sim_qubits || n > StateVector::kMaxQubits) {
    throw std::invalid_argument("run_aoa: problem too wide to simulate");
  }

  QaoaResult result;
  result.qubits = n;
  result.mode = "xy-mixer-aoa";
  IsingModel conflict = qubo_to_ising(conflict_qubo);
  conflict.h.resize(n, 0.0);

  // Transpiled metrics from a probe circuit.
  const std::vector<double> probe(static_cast<std::size_t>(2 * options.p), 0.5);
  const Circuit probe_circuit = build_aoa_circuit(conflict, groups, probe);
  const auto transpiled = transpile(probe_circuit, coupling);
  if (!transpiled) {
    throw std::invalid_argument("run_aoa: circuit does not fit the device");
  }
  result.depth = transpiled->depth;
  result.cx_count = transpiled->cx_count;
  result.swap_count = transpiled->swap_count;
  result.qubits_touched = transpiled->qubits_touched;
  const std::size_t n_1q = transpiled->physical.num_gates() -
                           transpiled->physical.num_two_qubit_gates();
  result.fidelity = options.noise.fidelity(n_1q, result.cx_count);

  // Fused phase separator: the conflict Hamiltonian's RZZ/RZ diagonal is a
  // precomputed table applied in one pass per layer; the W-state prep is
  // angle-independent, so its circuit is built once outside the optimizer
  // loop, and only the XY ring mixers run gate-by-gate.
  const DiagonalCost cost(conflict, n);
  Circuit prep(n);
  for (const auto& group : groups.groups) prepare_w_state(prep, group);

  // Same noise channel and shot pipeline as standard QAOA; note depolarized
  // shots may leave the one-hot subspace, exactly as they would on hardware.
  ShotSampler shots(eval_qubo, n, options.noise, result.fidelity);
  const auto run_job = [&](const std::vector<double>& params,
                           std::size_t count) {
    StateVector state(n);
    prep.run(state);
    for (std::size_t layer = 0; layer < params.size() / 2; ++layer) {
      const double gamma = params[2 * layer];
      const double beta = params[2 * layer + 1];
      cost.apply(state, gamma);
      // XY ring mixer per group (a single XY suffices for pairs).
      for (const auto& group : groups.groups) {
        const std::size_t k = group.size();
        if (k < 2) continue;
        for (std::size_t i = 0; i < k; ++i) {
          const std::size_t next = (i + 1) % k;
          if (k == 2 && i == 1) break;  // avoid the duplicate pair edge
          state.xy(group[i], group[next], 2.0 * beta);
        }
      }
    }
    state.renormalize_into_cdf(shots.cdf());
    shots.draw(count, rng);
  };

  const Objective objective = [&](const std::vector<double>& params) {
    run_job(params, std::max<std::size_t>(256, options.shots / 8));
    return shots.mean_energy();
  };
  std::vector<double> x0(static_cast<std::size_t>(2 * options.p));
  for (std::size_t i = 0; i < x0.size(); ++i) {
    x0[i] = i % 2 == 0 ? 0.6 : 0.5;
  }
  const OptimizeResult opt = nelder_mead(objective, x0, options.optimizer);
  run_job(opt.x, options.shots);
  shots.store(result);
  result.num_jobs = opt.evaluations + 1;
  return result;
}

}  // namespace nck
