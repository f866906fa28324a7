#include "circuit/qaoa.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "circuit/diagonal.hpp"
#include "qubo/heuristic.hpp"

namespace nck {

namespace {

void set_bit(std::uint64_t& shot, std::size_t i, bool value) {
  shot = (shot & ~(std::uint64_t{1} << i)) |
         (static_cast<std::uint64_t>(value) << i);
}
void flip_bit(std::uint64_t& shot, std::size_t i) {
  shot ^= std::uint64_t{1} << i;
}
void set_bit(std::vector<bool>& shot, std::size_t i, bool value) {
  shot[i] = value;
}
void flip_bit(std::vector<bool>& shot, std::size_t i) { shot[i] = !shot[i]; }

// NoiseModel::apply on either shot form, with one sequence of draws.
template <typename Shot>
void apply_channel(Shot& shot, std::size_t n, double fidelity,
                   double readout_flip, Rng& rng) {
  if (!rng.bernoulli(fidelity)) {
    for (std::size_t i = 0; i < n; ++i) {
      set_bit(shot, i, rng.bernoulli(0.5));  // fully depolarized
    }
  } else if (readout_flip > 0.0) {
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.bernoulli(readout_flip)) flip_bit(shot, i);
    }
  }
}

}  // namespace

double NoiseModel::fidelity(std::size_t n_1q, std::size_t n_cx) const {
  return std::pow(1.0 - error_1q, static_cast<double>(n_1q)) *
         std::pow(1.0 - error_cx, static_cast<double>(n_cx));
}

std::uint64_t NoiseModel::apply(std::uint64_t shot, std::size_t n,
                                double fidelity, Rng& rng) const {
  if (n > 64) {
    throw std::invalid_argument("NoiseModel::apply: more than 64 bits");
  }
  apply_channel(shot, n, fidelity, readout_flip, rng);
  return shot;
}

void NoiseModel::apply(std::vector<bool>& shot, double fidelity,
                       Rng& rng) const {
  apply_channel(shot, shot.size(), fidelity, readout_flip, rng);
}

ShotSampler::ShotSampler(const Qubo& qubo, std::size_t num_qubits,
                         const NoiseModel& noise, double fidelity)
    : qubo_(qubo),
      num_qubits_(num_qubits),
      noise_(noise),
      fidelity_(fidelity) {
  if (num_qubits > 64) {
    throw std::invalid_argument("ShotSampler: more than 64 qubits");
  }
}

void ShotSampler::draw(std::size_t shots, Rng& rng) {
  shots_.resize(shots);
  draw_basis_states(cdf_, shots_, rng);
  for (std::uint64_t& shot : shots_) {
    shot = noise_.apply(shot, num_qubits_, fidelity_, rng);
  }
}

double ShotSampler::mean_energy() const {
  double mean = 0.0;
  for (const std::uint64_t shot : shots_) mean += qubo_.energy(shot);
  return mean / static_cast<double>(shots_.size());
}

void ShotSampler::store(QaoaResult& result) const {
  result.samples.clear();
  result.energies.clear();
  result.samples.reserve(shots_.size());
  result.energies.reserve(shots_.size());
  double best = std::numeric_limits<double>::infinity();
  for (const std::uint64_t shot : shots_) {
    std::vector<bool> x(num_qubits_);
    for (std::size_t i = 0; i < num_qubits_; ++i) x[i] = (shot >> i) & 1u;
    result.samples.push_back(std::move(x));
    const double e = qubo_.energy(shot);
    result.energies.push_back(e);
    best = std::min(best, e);
  }
  result.best_energy = best;
}

namespace {

// Appends the cost layer e^{-i gamma H_C} of `ising`: an RZZ per nonzero
// coupler, then an RZ per nonzero field.
void append_cost_layer(Circuit& circuit, const IsingModel& ising,
                       double gamma) {
  for (const auto& [a, b, j] : ising.j) {
    if (j != 0.0) circuit.rzz(a, b, 2.0 * gamma * j);
  }
  for (std::uint32_t q = 0; q < ising.num_spins(); ++q) {
    // rz(theta) phases bit 1 (spin +1) by e^{+i theta/2}, so the field
    // term e^{-i gamma h s} needs theta = -2 gamma h. The old +2 gamma h
    // evolved under sum J ss - sum h s: flipped field signs that the
    // optimizer cannot compensate on mixed h+J problems.
    if (ising.h[q] != 0.0) circuit.rz(q, -2.0 * gamma * ising.h[q]);
  }
}

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

// Calls pair(a, b) for each edge of each group's XY ring, in ring order: a
// single edge for a pair, none for a lone variable.
template <typename Pair>
void for_each_ring_edge(const OneHotGroups& groups, const Pair& pair) {
  for (const auto& group : groups.groups) {
    const std::size_t k = group.size();
    if (k < 2) continue;
    for (std::size_t i = 0; i < k; ++i) {
      if (k == 2 && i == 1) break;  // avoid the duplicate pair edge
      pair(group[i], group[(i + 1) % k]);
    }
  }
}

// The angles of a transpile probe. All iterations share gate structure and
// only angles differ (the paper makes the same observation for its depth
// measurements), so one circuit at fixed angles gives the metrics.
std::vector<double> probe_angles(int p) {
  return std::vector<double>(static_cast<std::size_t>(2 * p), 0.5);
}

// Transpiles `probe` onto `coupling` into `prepared`'s circuit metrics.
void transpile_probe(const Circuit& probe, const Graph& coupling,
                     QaoaPrepared& prepared) {
  const auto transpiled = transpile(probe, coupling);
  if (!transpiled) {
    throw std::invalid_argument("circuit does not fit the device");
  }
  prepared.depth = transpiled->depth;
  prepared.cx_count = transpiled->cx_count;
  prepared.swap_count = transpiled->swap_count;
  prepared.qubits_touched = transpiled->qubits_touched;
  prepared.n_1q = transpiled->physical.num_gates() -
                  transpiled->physical.num_two_qubit_gates();
}

// The driver of both ansaetze (see run_qaoa_prepared): Nelder-Mead from
// gammas `gamma0` and betas `beta0`, then the final job, every shot scored
// by `eval_qubo`. evolve(cost, state, params, cdf) runs one state-vector
// job of the ansatz and leaves its sampling CDF in `cdf`; `cost` tabulates
// prepared.ising.
template <typename Evolve>
QaoaResult run_ansatz(const QaoaPrepared& prepared, const Qubo& eval_qubo,
                      double gamma0, double beta0, const Evolve& evolve,
                      const QaoaOptions& options, Rng& rng,
                      obs::Trace* trace) {
  QaoaResult result;
  const std::size_t n = prepared.qubits;
  result.qubits = n;
  result.depth = prepared.depth;
  result.cx_count = prepared.cx_count;
  result.swap_count = prepared.swap_count;
  result.qubits_touched = prepared.qubits_touched;
  result.fidelity = options.noise.fidelity(prepared.n_1q, result.cx_count);
  if (trace) {
    obs::Registry& reg = trace->registry();
    reg.set("transpile.depth", static_cast<double>(result.depth));
    reg.set("transpile.cx_count", static_cast<double>(result.cx_count));
    reg.set("transpile.swap_count", static_cast<double>(result.swap_count));
    reg.set("transpile.qubits_touched",
            static_cast<double>(result.qubits_touched));
    reg.set("qaoa.fidelity", result.fidelity);
  }

  if (n <= options.max_sim_qubits) {
    result.mode = "statevector";
    // Fused evolution: the cost layer's RZZ/RZ diagonal collapses into one
    // precomputed table of energy levels (circuit/diagonal.hpp), built once
    // and shared by every optimizer evaluation; the cost layer runs gate by
    // gate only in the transpile probe.
    obs::Span cost_span(trace, "qaoa.cost_table");
    const DiagonalCost cost(prepared.ising, n);
    cost_span.close();
    if (trace) {
      trace->registry().set("qaoa.energy_levels",
                            static_cast<double>(cost.num_levels()));
      trace->registry().set("qaoa.lanes", static_cast<double>(mixer_lanes()));
    }
    obs::Span setup_span(trace, "qaoa.setup");
    StateVector state(n);
    ShotSampler shots(eval_qubo, n, options.noise, result.fidelity);
    setup_span.close();
    const auto run_job = [&](const std::vector<double>& params,
                             std::size_t count) {
      obs::count(trace, "statevector.runs");
      evolve(cost, state, params, shots.cdf());
      shots.draw(count, rng);
    };
    // Shot-based objective: mean sampled energy under the noise channel,
    // exactly what the hardware loop would minimize. A few hundred shots
    // estimate the mean well enough for the outer loop; the final job
    // uses the full shot budget.
    const Objective objective = [&](const std::vector<double>& params) {
      run_job(params, std::max<std::size_t>(256, options.shots / 8));
      return shots.mean_energy();
    };
    std::vector<double> x0(static_cast<std::size_t>(2 * options.p));
    for (std::size_t i = 0; i < x0.size(); ++i) {
      x0[i] = i % 2 == 0 ? gamma0 : beta0;
    }
    obs::Span optimize_span(trace, "qaoa.optimize");
    const OptimizeResult opt =
        nelder_mead(objective, x0, options.max_evaluations);
    optimize_span.close();
    obs::Span final_span(trace, "qaoa.sample");
    run_job(opt.x, options.shots);
    shots.store(result);
    final_span.close();
    result.num_jobs = opt.evaluations + 1;
    return result;
  }

  // Boltzmann surrogate for circuits beyond the state-vector cutoff.
  result.mode = "boltzmann-surrogate";
  obs::Span surrogate_span(trace, "qaoa.surrogate");
  Qubo normalized = eval_qubo;
  const double scale = normalized.max_abs_coefficient();
  if (scale > 0.0) normalized.scale(1.0 / scale);
  // Inverse temperature, relative to the normalized coefficients.
  constexpr double kSurrogateBeta = 1.5;
  auto samples =
      boltzmann_sample(normalized, kSurrogateBeta, options.shots, rng);
  result.samples.reserve(samples.size());
  for (auto& s : samples) result.samples.push_back(std::move(s.x));
  for (std::vector<bool>& shot : result.samples) {
    options.noise.apply(shot, result.fidelity, rng);
  }
  // The surrogate still "runs" the optimizer-equivalent number of jobs.
  result.num_jobs = options.max_evaluations + 1;

  result.energies.reserve(result.samples.size());
  double best = std::numeric_limits<double>::infinity();
  for (const auto& s : result.samples) {
    const double e = eval_qubo.energy(s);
    result.energies.push_back(e);
    best = std::min(best, e);
  }
  result.best_energy = best;
  return result;
}

}  // namespace

Circuit build_qaoa_circuit(const IsingModel& ising,
                           const std::vector<double>& params) {
  if (params.size() % 2 != 0 || params.empty()) {
    throw std::invalid_argument("build_qaoa_circuit: need 2p parameters");
  }
  const std::size_t n = ising.num_spins();
  Circuit circuit(n);
  for (std::uint32_t q = 0; q < n; ++q) circuit.h(q);
  for (std::size_t layer = 0; layer < params.size() / 2; ++layer) {
    append_cost_layer(circuit, ising, params[2 * layer]);
    // Mixer layer: e^{-i beta sum X}.
    for (std::uint32_t q = 0; q < n; ++q) {
      circuit.rx(q, 2.0 * params[2 * layer + 1]);
    }
  }
  return circuit;
}

QaoaPrepared prepare_qaoa(const Qubo& qubo, const Graph& coupling,
                          const QaoaOptions& options, obs::Trace* trace) {
  QaoaPrepared prepared;
  prepared.qubits = qubo.num_variables();
  prepared.ising = qubo_to_ising(qubo);
  obs::Span transpile_span(trace, "transpile");
  transpile_probe(build_qaoa_circuit(prepared.ising, probe_angles(options.p)),
                  coupling, prepared);
  return prepared;
}

QaoaResult run_qaoa_prepared(const Qubo& qubo, const QaoaPrepared& prepared,
                             const QaoaOptions& options, Rng& rng,
                             obs::Trace* trace) {
  const auto evolve = [](const DiagonalCost& cost, StateVector& state,
                         const std::vector<double>& params,
                         std::vector<double>& cdf) {
    cost.evolve_qaoa(state, params, cdf);
  };
  return run_ansatz(prepared, qubo, 0.8, 0.4, evolve, options, rng, trace);
}

QaoaResult run_qaoa(const Qubo& qubo, const Graph& coupling,
                    const QaoaOptions& options, Rng& rng, obs::Trace* trace) {
  const QaoaPrepared prepared = prepare_qaoa(qubo, coupling, options, trace);
  return run_qaoa_prepared(qubo, prepared, options, rng, trace);
}

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

Circuit build_aoa_circuit(const IsingModel& conflict_cost,
                          const OneHotGroups& groups,
                          const std::vector<double>& params) {
  if (params.size() % 2 != 0 || params.empty()) {
    throw std::invalid_argument("build_aoa_circuit: need 2p parameters");
  }
  Circuit circuit(conflict_cost.num_spins());
  for (const auto& group : groups.groups) prepare_w_state(circuit, group);
  for (std::size_t layer = 0; layer < params.size() / 2; ++layer) {
    const double beta = params[2 * layer + 1];
    // Phase separator over the conflict Hamiltonian only.
    append_cost_layer(circuit, conflict_cost, params[2 * layer]);
    for_each_ring_edge(groups, [&](Qubo::Var a, Qubo::Var b) {
      circuit.xy(a, b, 2.0 * beta);
    });
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
  QaoaPrepared prepared;
  prepared.qubits = n;
  prepared.ising = qubo_to_ising(conflict_qubo);
  prepared.ising.h.resize(n, 0.0);
  transpile_probe(
      build_aoa_circuit(prepared.ising, groups, probe_angles(options.p)),
      coupling, prepared);

  // The conflict Hamiltonian's table is the fused phase separator; the
  // W-state preparation is angle-independent, so its circuit is built
  // once, and only the XY ring mixers run gate by gate. Depolarized shots
  // may leave the one-hot subspace, exactly as they would on hardware.
  Circuit prep(n);
  for (const auto& group : groups.groups) prepare_w_state(prep, group);
  const auto evolve = [&](const DiagonalCost& cost, StateVector& state,
                          const std::vector<double>& params,
                          std::vector<double>& cdf) {
    state = StateVector(n);
    prep.run(state);
    for (std::size_t layer = 0; layer < params.size() / 2; ++layer) {
      const double beta = params[2 * layer + 1];
      cost.apply(state, params[2 * layer]);
      for_each_ring_edge(groups, [&](Qubo::Var a, Qubo::Var b) {
        state.xy(a, b, 2.0 * beta);
      });
    }
    state.renormalize_into_cdf(cdf);
  };
  QaoaResult result =
      run_ansatz(prepared, eval_qubo, 0.6, 0.5, evolve, options, rng, nullptr);
  result.mode = "xy-mixer-aoa";
  return result;
}

}  // namespace nck
