// QAOA driver (Farhi et al.) for QUBO problems — how NchooseK executes on
// circuit-model devices (Section V). The compiled QUBO becomes the problem
// Hamiltonian; p alternating cost/mixer layers are optimized by a classical
// outer loop (each objective evaluation is one "job" of `shots` shots,
// matching the paper's 25-35 jobs of 4000 shots each).
//
// Fidelity model: after transpilation the circuit's gate counts feed a
// global depolarizing channel (survival probability F); each shot is
// replaced by a uniform random bitstring with probability 1 - F, and
// surviving shots suffer independent per-bit readout flips. For circuits
// too wide to simulate, the ideal QAOA distribution is approximated by a
// low-temperature Boltzmann distribution over the QUBO (see DESIGN.md).
//
// The same driver runs the Quantum Alternating Operator Ansatz (Hadfield et
// al.), the future-work direction the paper names in Section IX: replace
// QAOA's transverse-field mixer with a *constraint-preserving* one. For
// NchooseK's ubiquitous one-hot structure (exactly-one constraints over
// disjoint variable groups, as in map coloring and clique cover), the right
// mixer is an XY ring per group: it moves amplitude only within the
// feasible one-hot subspace, so the hard exactly-one constraints can never
// be violated and the cost Hamiltonian only needs the conflict terms. Its
// circuit is per-group W-state preparation (X + Givens chain), then p
// layers of [conflict phase separator; per-group XY ring mixer].
#pragma once

#include <string>

#include "circuit/circuit.hpp"
#include "circuit/optimizer.hpp"
#include "circuit/transpiler.hpp"
#include "obs/obs.hpp"
#include "qubo/ising.hpp"
#include "qubo/qubo.hpp"
#include "util/rng.hpp"

namespace nck {

// Calibration note: these rates are effective *model* parameters, chosen so
// that fidelity-vs-size reproduces the paper's discrete optimal ->
// suboptimal -> incorrect barrier on our transpiler. Our SWAP router inserts
// roughly 2x the CX gates of IBM's compiler, so the per-CX rate sits below
// the hardware-reported ~1e-2 to keep the product comparable. The NCK-C002
// depth/fidelity lint estimates with the default per-CX rate and depth.
inline constexpr double kDefaultErrorCx = 0.004;
inline constexpr int kDefaultQaoaDepth = 1;  // Qiskit's default reps

struct NoiseModel {
  double error_1q = 0.0002;           // depolarizing contribution per 1q gate
  double error_cx = kDefaultErrorCx;  // per CX gate
  double readout_flip = 0.012;        // per-bit readout error

  /// Survival probability of a circuit with the given gate counts.
  double fidelity(std::size_t n_1q, std::size_t n_cx) const;

  /// Passes one measured shot of `n` <= 64 bits (bit i = qubit i) through
  /// the channel of a circuit with survival probability `fidelity`: with
  /// probability 1 - fidelity every bit is replaced by a fair coin (fully
  /// depolarized), else each bit flips with probability readout_flip.
  /// Draws from `rng` in that order: the survival draw, then one draw per
  /// bit from bit 0 up. Throws std::invalid_argument for n > 64.
  std::uint64_t apply(std::uint64_t shot, std::size_t n, double fidelity,
                      Rng& rng) const;
  /// The same channel, with the same draws, on a shot of any width.
  void apply(std::vector<bool>& shot, double fidelity, Rng& rng) const;
};

struct QaoaOptions {
  int p = kDefaultQaoaDepth;  // QAOA depth
  std::size_t shots = 4000;   // per job
  std::size_t max_evaluations = 32;  // Nelder-Mead objective calls (jobs)
  NoiseModel noise;
  std::size_t max_sim_qubits = 22;  // state-vector cutoff
};

struct QaoaResult {
  /// Final-distribution samples over the QUBO variables, with energies.
  std::vector<std::vector<bool>> samples;
  std::vector<double> energies;
  double best_energy = 0.0;
  std::size_t num_jobs = 0;  // objective evaluations + the final sampling job
  std::string mode;          // "statevector" or "boltzmann-surrogate"
  double fidelity = 1.0;     // depolarizing survival probability
  // Transpiled-circuit metrics (exact in both modes):
  std::size_t qubits = 0;        // QUBO variables == logical qubits
  std::size_t qubits_touched = 0;  // physical qubits used after routing
  std::size_t depth = 0;
  std::size_t cx_count = 0;
  std::size_t swap_count = 0;
};

/// The shot half of a state-vector job, shared by run_qaoa_prepared and
/// run_aoa and kept across one solve's jobs: the sampling CDF, which the
/// evolution fills (DiagonalCost::evolve_qaoa, StateVector::
/// renormalize_into_cdf), and a batch of shots drawn from it as words of
/// num_qubits bits (bit i = qubit i), each passed through the noise
/// channel and scored by a FlatQubo. Every draw, noise decision and energy
/// is the one that sampling into std::vector<bool> shots and scoring them
/// with Qubo::energy gives.
class ShotSampler {
 public:
  /// `qubo` scores the shots; `num_qubits` <= 64 is the state's width.
  ShotSampler(const Qubo& qubo, std::size_t num_qubits,
              const NoiseModel& noise, double fidelity);

  /// The buffer the evolution fills before each draw().
  std::vector<double>& cdf() noexcept { return cdf_; }

  /// Draws `shots` basis states from cdf() (draw_basis_states), then
  /// passes each through the noise channel (NoiseModel::apply), in shot
  /// order.
  void draw(std::size_t shots, Rng& rng);

  /// Mean energy of the drawn shots, summed in shot order.
  double mean_energy() const;

  /// The drawn shots as result.samples, energies and best_energy.
  void store(QaoaResult& result) const;

 private:
  FlatQubo qubo_;
  std::size_t num_qubits_;
  NoiseModel noise_;
  double fidelity_;
  std::vector<double> cdf_;
  std::vector<std::uint64_t> shots_;
};

/// Builds the p-layer QAOA circuit for the Ising cost Hamiltonian.
/// `params` holds (gamma_1, beta_1, ..., gamma_p, beta_p).
Circuit build_qaoa_circuit(const IsingModel& ising,
                           const std::vector<double>& params);

/// The deterministic, parameter-independent half of a QAOA run: the Ising
/// model plus the transpile-probe metrics (all QAOA iterations share gate
/// structure, only angles differ). This is the expensive, cacheable part;
/// run_qaoa_prepared() executes any number of noisy runs against it.
struct QaoaPrepared {
  IsingModel ising;
  std::size_t qubits = 0;          // QUBO variables == logical qubits
  std::size_t qubits_touched = 0;  // physical qubits used after routing
  std::size_t depth = 0;
  std::size_t cx_count = 0;
  std::size_t swap_count = 0;
  std::size_t n_1q = 0;  // 1-qubit gate count, for the fidelity model
};

/// Transpiles the probe circuit and captures its metrics. Deterministic;
/// depends only on the QUBO structure, the coupling map, and options.p.
/// Throws std::invalid_argument if the device is smaller than the problem.
/// When `trace` is non-null, records the transpile span.
QaoaPrepared prepare_qaoa(const Qubo& qubo, const Graph& coupling,
                          const QaoaOptions& options,
                          obs::Trace* trace = nullptr);

/// The stochastic half: optimizer loop + final sampling job under the
/// noise model (fidelity is derived here from the prepared gate counts,
/// so noise-model changes never invalidate a cached preparation).
/// When `trace` is non-null, records cost-table / setup / optimize /
/// sample spans, the transpiled-circuit gauges, the fidelity, the mixer's
/// `qaoa.lanes` (mixer_lanes()), and statevector-run counters.
QaoaResult run_qaoa_prepared(const Qubo& qubo, const QaoaPrepared& prepared,
                             const QaoaOptions& options, Rng& rng,
                             obs::Trace* trace = nullptr);

/// Runs the full QAOA pipeline against the given coupling map:
/// prepare_qaoa followed by run_qaoa_prepared.
/// Throws std::invalid_argument if the device is smaller than the problem.
QaoaResult run_qaoa(const Qubo& qubo, const Graph& coupling,
                    const QaoaOptions& options, Rng& rng,
                    obs::Trace* trace = nullptr);

/// Disjoint one-hot variable groups; each group's variables satisfy an
/// exactly-one constraint enforced by the mixer instead of by penalties.
struct OneHotGroups {
  std::vector<std::vector<Qubo::Var>> groups;

  std::size_t num_qubits() const;
  /// Validates disjointness and non-emptiness; throws std::invalid_argument.
  void validate(std::size_t total_qubits) const;
};

/// Builds the AOA circuit: W-state preparation per group, then p layers of
/// conflict-cost phase separation and XY ring mixing.
/// `params` = (gamma_1, beta_1, ..., gamma_p, beta_p).
Circuit build_aoa_circuit(const IsingModel& conflict_cost,
                          const OneHotGroups& groups,
                          const std::vector<double>& params);

/// Runs the AOA pipeline on run_qaoa_prepared's driver, untraced.
/// `conflict_qubo` drives the phase separator (it should exclude the
/// one-hot penalties); `eval_qubo` scores samples (the full compiled
/// problem, so results are comparable with standard QAOA). State-vector
/// only: throws std::invalid_argument beyond options.max_sim_qubits or if
/// the device is too small.
QaoaResult run_aoa(const Qubo& conflict_qubo, const Qubo& eval_qubo,
                   const OneHotGroups& groups, const Graph& coupling,
                   const QaoaOptions& options, Rng& rng);

}  // namespace nck
