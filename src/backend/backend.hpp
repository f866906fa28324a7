// Pluggable execution-backend interface (DESIGN.md §3d).
//
// Every execution target — the classical exact solver, the simulated
// D-Wave annealer, the simulated IBM circuit device — implements this
// interface, and its adapter *is* its pipeline, split into two halves:
//
//   prepare(ctx)       the expensive, *deterministic* client-side work
//                      (QUBO synthesis, minor embedding, transpilation,
//                      the classical exact solve),
//                      producing an immutable Plan that the content-
//                      addressed PlanCache may reuse across solves,
//                      solvers, and threads;
//   execute(plan, ctx) the cheap, stochastic device-side work (fault
//                      gates, noisy sampling, timing models) that runs
//                      on every attempt.
//
// The runtime solve loop is backend-agnostic: it looks plans up by
// plan_key(), retries/degrades via the Budget hooks, and never switches
// on BackendKind. Registering a new Backend in the backend::Registry is
// all it takes to add an execution target.
//
// Determinism contract:
//  * plan_key() must cover the program structure, the (possibly degraded)
//    hardware topology, and every option prepare() reads — and nothing
//    execute()-only (sample budgets, noise, timing), so degraded retries
//    and warmed caches still hit.
//  * prepare() must not consume caller randomness; adapters derive any
//    internal RNG from the plan key, so a cached plan is bit-identical
//    to a freshly prepared one regardless of which solve built it.
//  * execute() must not touch ctx.rng before its fault gates pass, so an
//    attempt that is rejected at submission leaves the solve's sample
//    stream untouched (a solve preceded by rejected attempts samples
//    exactly like a clean solve).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "analysis/analyzer.hpp"
#include "backend/fingerprint.hpp"
#include "backend/kinds.hpp"
#include "backend/plan.hpp"
#include "core/env.hpp"
#include "obs/obs.hpp"
#include "resilience/fault.hpp"
#include "synth/engine.hpp"
#include "util/rng.hpp"

namespace nck::backend {

/// Per-attempt sample budget, degraded under deadline pressure.
struct Budget {
  std::size_t samples = 1;      // annealer reads / circuit shots / 1
  std::size_t aux = 0;          // circuit optimizer evaluations; else unused
  std::size_t min_samples = 1;  // degradation floors (never shrunk below)
  std::size_t min_aux = 0;
};

/// Inputs of the prepare stage. `device` overrides the adapter's own
/// topology (the solver passes its degraded copy after dead-qubit
/// events); null means the adapter's configured device.
struct PrepareContext {
  const Env* env = nullptr;
  SynthEngine* engine = nullptr;  // wired to the shared synthesis cache
  obs::Trace* trace = nullptr;
  const Device* device = nullptr;
  /// plan_key(*this), filled by the solve loop before prepare() so the
  /// adapter can derive its content-addressed internal RNG from it.
  Fingerprint key;
};

/// prepare() either yields a cacheable plan or a typed failure
/// (kNoEmbedding, kDeviceTooSmall, ...). Failures are never cached.
struct PrepareOutcome {
  PlanPtr plan;  // null iff failure != kNone
  FailureKind failure = FailureKind::kNone;
  std::string detail;
};

/// Inputs of the execute stage for one attempt.
struct ExecuteContext {
  /// Per-solve sample stream. Adapters must not consume it before their
  /// fault gates pass (see the determinism contract above).
  Rng* rng = nullptr;
  obs::Trace* trace = nullptr;
  FaultInjector* faults = nullptr;  // null = no injection
  Budget budget;
};

/// What one execute() attempt produced. On failure != kNone the sample
/// vectors are empty and `dead_qubits` may carry the qubits a
/// kDeadQubits event killed (the solver degrades its device copy and
/// re-prepares, which the changed plan key forces naturally).
struct ExecutionResult {
  FailureKind failure = FailureKind::kNone;
  std::string detail;
  /// Samples over the program variables, in the backend's reporting
  /// order, with matching evaluations.
  std::vector<std::vector<bool>> samples;
  std::vector<Evaluation> evaluations;
  /// True when samples.front() *is* the backend's answer (classical
  /// witness, circuit lowest-energy sample); false when the best sample
  /// should be chosen by classification (annealer reads).
  bool single_answer = false;
  std::size_t qubits_used = 0;
  std::size_t circuit_depth = 0;
  double device_seconds = 0.0;  // modeled device/QPU time of this attempt
  std::vector<std::size_t> dead_qubits;
};

class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const noexcept = 0;
  /// Stable short name, also the obs span wrapping each attempt
  /// ("classical", "anneal", "circuit").
  virtual const char* name() const noexcept = 0;

  /// Entry validation of this backend's own options. False (with an
  /// explanation in `why`) surfaces as FailureKind::kBadOptions.
  virtual bool validate(std::string* why) const = 0;

  /// Hardware target for the pre-dispatch static analyzer.
  virtual AnalysisTarget analysis_target() const noexcept = 0;

  /// Content address of the plan prepare() would build: program
  /// structure + topology + every prepare-relevant option.
  virtual Fingerprint plan_key(const PrepareContext& ctx) const = 0;

  virtual PrepareOutcome prepare(const PrepareContext& ctx) const = 0;

  virtual ExecutionResult execute(const Plan& plan,
                                  ExecuteContext& ctx) const = 0;

  /// Starting budget from the adapter's options, with the adapter's own
  /// degradation floors.
  virtual Budget initial_budget() const noexcept = 0;

  /// Modeled cost of one attempt at this budget, for the deadline gate.
  virtual double estimate_attempt_ms(const Budget& budget) const noexcept {
    (void)budget;
    return 0.0;
  }

  /// One degradation-ladder step (halve toward the floors). Returns false
  /// when nothing can shrink further.
  virtual bool degrade(Budget& budget) const noexcept {
    (void)budget;
    return false;
  }

  /// Deadline-exempt backends (the classical last resort) are dispatched
  /// even when the session budget is exhausted — they cost no modeled
  /// device time and exist precisely to land the solve.
  virtual bool deadline_exempt() const noexcept { return false; }
};

/// Heap bytes of `env`'s constraint variable lists, which every Plan that
/// copies the Env charges in bytes().
std::size_t env_bytes(const Env& env) noexcept;

/// The device adapters' submission-fault gate, run before ctx.rng is
/// touched: fails `result` with the injected submission fault, if any, and
/// counts `resilience.fault.<fault_name>`. Returns whether it did.
bool submission_failed(FaultInjector& faults, obs::Trace* trace,
                       ExecutionResult& result);

/// Runs `backend` once on `env`, outside the Solver: derives the plan key,
/// prepares, and executes at initial_budget() with `rng` as the sample
/// stream. No plan cache, presolve, analysis, ground truth, retries or
/// faults. A prepare failure comes back in `failure`/`detail`. Stage
/// metrics (embedding, transpile, QAOA, modeled device times) land in
/// `trace` when it is non-null. The paper-figure benches use it because
/// they classify reads against their own precomputed truths.
ExecutionResult run_once(const Backend& backend, const Env& env,
                         SynthEngine& engine, Rng& rng, obs::Trace* trace);

}  // namespace nck::backend
