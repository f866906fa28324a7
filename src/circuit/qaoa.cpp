#include "circuit/qaoa.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "circuit/diagonal.hpp"
#include "qubo/heuristic.hpp"

namespace nck {

double NoiseModel::fidelity(std::size_t n_1q, std::size_t n_cx) const {
  return std::pow(1.0 - error_1q, static_cast<double>(n_1q)) *
         std::pow(1.0 - error_cx, static_cast<double>(n_cx));
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

namespace {

std::vector<bool> bits_of(std::uint64_t basis, std::size_t n) {
  std::vector<bool> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = (basis >> i) & 1u;
  return x;
}

// Applies the noise channel to a batch of shots in place.
void apply_noise(std::vector<std::vector<bool>>& shots, double fidelity,
                 double readout_flip, Rng& rng) {
  for (auto& shot : shots) {
    if (!rng.bernoulli(fidelity)) {
      for (std::size_t i = 0; i < shot.size(); ++i) {
        shot[i] = rng.bernoulli(0.5);  // fully depolarized
      }
      continue;
    }
    if (readout_flip > 0.0) {
      for (std::size_t i = 0; i < shot.size(); ++i) {
        if (rng.bernoulli(readout_flip)) shot[i] = !shot[i];
      }
    }
  }
}

}  // namespace

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
    const DiagonalCost cost(ising, n);
    if (trace) {
      trace->registry().set("qaoa.energy_levels",
                            static_cast<double>(cost.num_levels()));
    }
    StateVector state(n);
    // Shot-based objective: mean sampled energy under the noise channel,
    // exactly what the hardware loop would minimize.
    auto sample_circuit = [&](const std::vector<double>& params,
                              std::size_t shots) {
      obs::count(trace, "statevector.runs");
      cost.evolve_qaoa(state, params);
      const auto basis = state.sample(shots, rng);
      std::vector<std::vector<bool>> out;
      out.reserve(basis.size());
      for (std::uint64_t b : basis) out.push_back(bits_of(b, n));
      apply_noise(out, result.fidelity, options.noise.readout_flip, rng);
      return out;
    };
    const Objective objective = [&](const std::vector<double>& params) {
      // A few hundred shots estimate the mean well enough for the outer
      // loop; the final job uses the full shot budget.
      const auto shots = sample_circuit(params, std::max<std::size_t>(
                                                    256, options.shots / 8));
      double mean = 0.0;
      for (const auto& shot : shots) mean += qubo.energy(shot);
      return mean / static_cast<double>(shots.size());
    };
    std::vector<double> x0(static_cast<std::size_t>(2 * options.p));
    for (std::size_t i = 0; i < x0.size(); ++i) {
      x0[i] = i % 2 == 0 ? 0.8 : 0.4;  // gamma, beta starting guesses
    }
    obs::Span optimize_span(trace, "qaoa.optimize");
    const OptimizeResult opt = nelder_mead(objective, x0, options.optimizer);
    optimize_span.close();
    obs::Span final_span(trace, "qaoa.sample");
    result.samples = sample_circuit(opt.x, options.shots);
    final_span.close();
    result.num_jobs = opt.evaluations + 1;
  } else {
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
    apply_noise(result.samples, result.fidelity, options.noise.readout_flip,
                rng);
    // The surrogate still "runs" the optimizer-equivalent number of jobs.
    result.num_jobs = options.optimizer.max_evaluations + 1;
  }

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
