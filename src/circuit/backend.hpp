// End-to-end circuit-model backend: NchooseK program -> QUBO -> QAOA on a
// heavy-hex device -> samples over the program's variables, plus the IBM
// job-time model of Section VIII-C (each QAOA job 7-23 s with no visible
// size correlation; ~500 s of server time per problem).
//
// The pipeline is the backend::Backend adapter itself. The adapter points
// at the caller's CircuitBackendOptions and coupling map (externally
// owned, so Solver::circuit_options() edits take effect on the next
// solve).
//
// The plan key covers the program, the coupling graph, the compile
// margin, and the QAOA depth p (which fixes the transpiled structure).
// Shots, the optimizer budget, the noise model, the simulation cutoff,
// and the timing model are execute-only and excluded, so degraded
// retries and noise sweeps reuse the cached transpilation.
#pragma once

#include "backend/backend.hpp"
#include "circuit/qaoa.hpp"
#include "core/compile.hpp"
#include "core/env.hpp"

namespace nck {

struct IbmTimingModel {
  double job_base_s = 7.0;       // floor of observed job time
  double job_jitter_s = 16.0;    // observed spread (uncorrelated with size)
  double server_overhead_s = 500.0;  // create/transpile/validate/queue-free
  double optimizer_s_per_job = 2.5;  // classical step between jobs

  double job_seconds(Rng& rng) const {
    return job_base_s + job_jitter_s * rng.uniform();
  }
};

struct CircuitBackendOptions {
  QaoaOptions qaoa;
  CompileOptions compile;
  IbmTimingModel timing;
};

/// The circuit backend's plan: compiled QUBO plus the deterministic
/// transpile-probe results. It exists only when the problem fits the
/// device and is immutable once built; execute() runs any number of noisy
/// QAOA sessions against it.
struct CircuitPrepared final : backend::Plan {
  Env env;  // structural copy used to evaluate samples
  CompiledQubo compiled;
  QaoaPrepared qaoa;

  /// Approximate heap footprint, for the plan cache's byte budget.
  std::size_t bytes() const noexcept override;
};

}  // namespace nck

namespace nck::backend {

class CircuitAdapter final : public Backend {
 public:
  /// Both pointees must outlive the adapter and stay externally owned.
  CircuitAdapter(const CircuitBackendOptions* options, const Graph* coupling)
      : options_(options), coupling_(coupling) {}

  BackendKind kind() const noexcept override { return BackendKind::kCircuit; }
  const char* name() const noexcept override { return "circuit"; }
  bool validate(std::string* why) const override;
  AnalysisTarget analysis_target() const noexcept override;
  Fingerprint plan_key(const PrepareContext& ctx) const override;
  /// compile -> fit check -> transpile probe. Consumes no randomness and
  /// records the compile / transpile spans. Fails with kDeviceTooSmall
  /// when the QUBO has more variables than physical qubits or SWAP
  /// routing cannot place it.
  PrepareOutcome prepare(const PrepareContext& ctx) const override;
  /// Submission/execution fault gates, the QAOA optimizer loop and final
  /// sampling job at ctx.budget (shots, optimizer evaluations), energy
  /// ordering, and the IBM timing model: one modeled `device.job` span
  /// per QAOA job. Touches ctx.rng only after the fault gates pass.
  ExecutionResult execute(const Plan& plan, ExecuteContext& ctx) const override;
  Budget initial_budget() const noexcept override;
  double estimate_attempt_ms(const Budget& budget) const noexcept override;
  bool degrade(Budget& budget) const noexcept override;

 private:
  const CircuitBackendOptions* options_;
  const Graph* coupling_;
};

}  // namespace nck::backend
