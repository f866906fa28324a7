// Noisy annealing sampler: the classical proxy for a quantum annealer run.
// Per read, the physical Ising program is perturbed by integrated control
// errors (Gaussian noise on h and J, as on real hardware), simulated
// annealing relaxes the embedded system, readout errors flip qubits, and
// chains are majority-vote collapsed back to logical variables.
#pragma once

#include "anneal/embedded_ising.hpp"
#include "anneal/timing.hpp"
#include "obs/obs.hpp"
#include "qubo/heuristic.hpp"
#include "util/rng.hpp"

namespace nck {

/// ICE noise of the modeled device: stddev of the Gaussian perturbation on
/// each h and J, relative to the largest absolute coefficient. The NCK-P007,
/// NCK-Q001 and NCK-V002 lints judge resolvability against it.
inline constexpr double kDefaultIceSigma = 0.015;

struct AnnealerSamplerOptions {
  std::size_t num_reads = 100;   // the paper's D-Wave sample count
  std::size_t num_sweeps = 1024; // total Metropolis sweep budget per read
  /// Parallel-tempering ladder width of the lockstep kernel (anneal/packed.hpp):
  /// each read runs this many replicas at fixed inverse temperatures between
  /// kBetaInitial and kBetaFinal, exchanging every kExchangeInterval sweeps
  /// and splitting `num_sweeps` evenly across them. 1 disables tempering in
  /// favor of a single-replica geometric beta ramp.
  std::size_t num_replicas = 8;
  /// ICE noise: stddev of the Gaussian perturbation applied to each h and J,
  /// relative to the largest absolute coefficient of the physical program.
  double ice_sigma = kDefaultIceSigma;
  /// Per-qubit readout flip probability.
  double readout_error = 0.002;
  /// Spin-reversal (gauge) transforms: each read runs under a random
  /// per-qubit gauge, decorrelating the control-error noise from the
  /// problem structure (a standard D-Wave mitigation).
  bool spin_reversal_transform = true;
  /// Greedy single-flip descent on the *logical* problem after
  /// unembedding (D-Wave's optional post-processing).
  bool postprocess = false;
  /// When postprocess is on and this is nonzero, refine each read with a
  /// deterministic tabu search of this many moves (qubo::tabu_search)
  /// instead of plain descent. Descent cannot cross even a one-soft-unit
  /// ridge of a compiled hard+soft program — the hard scale flattens the
  /// soft landscape far below the final annealing temperature's resolution
  /// — so decomposed sub-solves stall in minimal-but-not-minimum states
  /// without it. This is qbsolv's classical tabu refinement of every
  /// device sample.
  std::size_t postprocess_tabu_iters = 0;
};

struct AnnealRead {
  std::vector<bool> logical;  // unembedded sample over logical spins
  double logical_energy = 0.0;
  std::size_t chain_breaks = 0;
  std::size_t chain_ties = 0;  // broken chains resolved by a coin flip
  /// Pre-sort position of this read (its per-read RNG stream index). Every
  /// draw of read r comes from stream r, so reads with equal read_index are
  /// comparable across runs that differ only in thread count or
  /// postprocessing — the determinism-regression tests pair reads by it.
  std::size_t read_index = 0;
};

struct AnnealSampleResult {
  std::vector<AnnealRead> reads;  // sorted by ascending logical energy
  DWaveTiming timing;             // kAdvantageTiming at these reads
};

/// Samples the embedded problem `num_reads` times, annealing reads in
/// lockstep groups of lockstep_lanes() (anneal/packed.hpp), one
/// OpenMP work item per group. `logical` is used only to report logical
/// energies. When `trace` is non-null, records the wall-clock sampling
/// span, the modeled device stages, chain-break / tie counters (aggregated
/// once after the parallel loop) and the `anneal.lanes` gauge.
AnnealSampleResult sample_annealer(const IsingModel& logical,
                                   const EmbeddedProblem& problem,
                                   const AnnealerSamplerOptions& options,
                                   Rng& rng, obs::Trace* trace = nullptr);

/// sample_annealer on an explicit lockstep width: 1, or 4 where
/// lockstep_lanes() is 4 (else std::invalid_argument). Every width returns
/// the same reads bit for bit; tests run both against the per-read loop.
AnnealSampleResult sample_annealer(const IsingModel& logical,
                                   const EmbeddedProblem& problem,
                                   const AnnealerSamplerOptions& options,
                                   Rng& rng, obs::Trace* trace,
                                   std::size_t lanes);

}  // namespace nck
