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

Circuit build_qaoa_circuit(const IsingModel& ising,
                           const std::vector<double>& params) {
  if (params.size() % 2 != 0 || params.empty()) {
    throw std::invalid_argument("build_qaoa_circuit: need 2p parameters");
  }
  const std::size_t n = ising.num_spins();
  Circuit circuit(n);
  for (std::uint32_t q = 0; q < n; ++q) circuit.h(q);
  for (std::size_t layer = 0; layer < params.size() / 2; ++layer) {
    const double gamma = params[2 * layer];
    const double beta = params[2 * layer + 1];
    // Cost layer: e^{-i gamma H_C}.
    for (const auto& [a, b, j] : ising.j) {
      if (j != 0.0) circuit.rzz(a, b, 2.0 * gamma * j);
    }
    for (std::uint32_t q = 0; q < n; ++q) {
      // rz(theta) phases bit 1 (spin +1) by e^{+i theta/2}, so the field
      // term e^{-i gamma h s} needs theta = -2 gamma h. The old +2 gamma h
      // evolved under sum J ss - sum h s: flipped field signs that the
      // optimizer cannot compensate on mixed h+J problems.
      if (ising.h[q] != 0.0) circuit.rz(q, -2.0 * gamma * ising.h[q]);
    }
    // Mixer layer: e^{-i beta sum X}.
    for (std::uint32_t q = 0; q < n; ++q) circuit.rx(q, 2.0 * beta);
  }
  return circuit;
}

QaoaPrepared prepare_qaoa(const Qubo& qubo, const Graph& coupling,
                          const QaoaOptions& options, obs::Trace* trace) {
  QaoaPrepared prepared;
  prepared.qubits = qubo.num_variables();
  prepared.ising = qubo_to_ising(qubo);

  // Transpiled metrics come from a representative (parameter-independent)
  // circuit: all QAOA iterations share gate structure, only angles differ
  // (the paper makes the same observation for its depth measurements).
  obs::Span transpile_span(trace, "transpile");
  const std::vector<double> probe(static_cast<std::size_t>(2 * options.p), 0.5);
  const Circuit logical = build_qaoa_circuit(prepared.ising, probe);
  const auto transpiled = transpile(logical, coupling);
  transpile_span.close();
  if (!transpiled) {
    throw std::invalid_argument("run_qaoa: circuit does not fit the device");
  }
  prepared.depth = transpiled->depth;
  prepared.cx_count = transpiled->cx_count;
  prepared.swap_count = transpiled->swap_count;
  prepared.qubits_touched = transpiled->qubits_touched;
  prepared.n_1q = transpiled->physical.num_gates() -
                  transpiled->physical.num_two_qubit_gates();
  return prepared;
}

QaoaResult run_qaoa_prepared(const Qubo& qubo, const QaoaPrepared& prepared,
                             const QaoaOptions& options, Rng& rng,
                             obs::Trace* trace) {
  QaoaResult result;
  const std::size_t n = prepared.qubits;
  result.qubits = n;
  const IsingModel& ising = prepared.ising;
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
    // and shared by every optimizer evaluation; gate-by-gate circuits are
    // only built for transpiled metrics above.
    obs::Span cost_span(trace, "qaoa.cost_table");
    const DiagonalCost cost(ising, n);
    cost_span.close();
    if (trace) {
      trace->registry().set("qaoa.energy_levels",
                            static_cast<double>(cost.num_levels()));
      trace->registry().set("qaoa.lanes", static_cast<double>(mixer_lanes()));
    }
    StateVector state(n);
    ShotSampler shots(qubo, n, options.noise, result.fidelity);
    const auto run_job = [&](const std::vector<double>& params,
                             std::size_t count) {
      obs::count(trace, "statevector.runs");
      cost.evolve_qaoa(state, params, shots.cdf());
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
      x0[i] = i % 2 == 0 ? 0.8 : 0.4;  // gamma, beta starting guesses
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
  Qubo normalized = qubo;
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
    const double e = qubo.energy(s);
    result.energies.push_back(e);
    best = std::min(best, e);
  }
  result.best_energy = best;
  return result;
}

QaoaResult run_qaoa(const Qubo& qubo, const Graph& coupling,
                    const QaoaOptions& options, Rng& rng, obs::Trace* trace) {
  const QaoaPrepared prepared = prepare_qaoa(qubo, coupling, options, trace);
  return run_qaoa_prepared(qubo, prepared, options, rng, trace);
}

}  // namespace nck
