// End-to-end annealing backend: NchooseK program -> QUBO -> Ising -> minor
// embedding on the device -> noisy sampling -> logical samples over the
// program's variables. Mirrors what NchooseK does through D-Wave's Ocean
// API, with the QPU replaced by the simulator in sampler.hpp.
//
// The pipeline is the backend::Backend adapter itself. The adapter does not
// own its configuration: it points at the caller's AnnealBackendOptions and
// base Device (so options edited through Solver::annealer_options() take
// effect on the next solve).
//
// The plan key covers the program, the (possibly degraded) device
// topology, and the prepare-relevant options: compile margin, embedding
// knobs, chain strength. Sampler options (reads, sweeps, ICE noise,
// timing model) are execute-only and deliberately excluded, so degraded
// retries and re-tuned noise levels still hit the cache.
#pragma once

#include "anneal/embedded_ising.hpp"
#include "anneal/embedding.hpp"
#include "anneal/sampler.hpp"
#include "anneal/topology.hpp"
#include "backend/backend.hpp"
#include "core/compile.hpp"
#include "core/env.hpp"

namespace nck {

struct AnnealBackendOptions {
  AnnealerSamplerOptions sampler;
  EmbedOptions embed;
  CompileOptions compile;
  double chain_strength = 0.0;  // <= 0: automatic
};

/// The annealer's plan: everything client-side and deterministic —
/// compiled QUBO, logical Ising, minor embedding, and the embedded
/// physical program. It exists only when prepare succeeded and is
/// immutable once built; execute() runs any number of sampling sessions
/// against it.
struct AnnealPrepared final : backend::Plan {
  Env env;  // structural copy used to evaluate unembedded samples
  CompiledQubo compiled;
  IsingModel logical;       // over every QUBO variable
  Embedding embedding;      // empty when the QUBO has no variables
  EmbeddedProblem problem;  // chain strength already applied
  std::size_t qubits_used = 0;
  std::size_t max_chain_length = 0;

  /// Approximate heap footprint, for the plan cache's byte budget.
  std::size_t bytes() const noexcept override;
};

}  // namespace nck

namespace nck::backend {

class AnnealAdapter final : public Backend {
 public:
  /// Both pointees must outlive the adapter and stay externally owned.
  AnnealAdapter(const AnnealBackendOptions* options, const Device* device)
      : options_(options), device_(device) {}

  BackendKind kind() const noexcept override { return BackendKind::kAnnealer; }
  const char* name() const noexcept override { return "anneal"; }
  bool validate(std::string* why) const override;
  AnalysisTarget analysis_target() const noexcept override;
  Fingerprint plan_key(const PrepareContext& ctx) const override;
  /// compile -> embed -> embedded Ising, with the embedding drawn from an
  /// RNG seeded by the plan key. Records the compile / embed spans. An
  /// empty QUBO gets a plan with no embedding (its answer is the empty
  /// assignment); the only failure is kNoEmbedding.
  PrepareOutcome prepare(const PrepareContext& ctx) const override;
  /// Submit-fault gate, dead-qubit event, calibration drift, noisy
  /// sampling at ctx.budget.samples reads, unembedding, evaluation.
  /// Touches ctx.rng only after the fault gates pass.
  ExecutionResult execute(const Plan& plan, ExecuteContext& ctx) const override;
  Budget initial_budget() const noexcept override;
  double estimate_attempt_ms(const Budget& budget) const noexcept override;
  bool degrade(Budget& budget) const noexcept override;

 private:
  const Device& device_for(const PrepareContext& ctx) const noexcept {
    return ctx.device != nullptr ? *ctx.device : *device_;
  }

  const AnnealBackendOptions* options_;
  const Device* device_;
};

}  // namespace nck::backend
