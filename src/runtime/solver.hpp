// Unified solver facade over the three execution targets — the "portability
// across quantum devices" surface of the paper. One call dispatches a
// generalized NchooseK program to the classical solver, the (simulated)
// D-Wave annealer, or the (simulated) IBM circuit device, and reports a
// uniformly classified result.
//
// The solve path is resilient (see runtime/resilience.hpp): configure
// resilience_options() with a fault plan, a retry policy, a deadline, and
// a fallback chain, and solve() will retry transient session failures
// with modeled exponential backoff, re-embed around mid-session dead
// qubits, shrink sample budgets under deadline pressure, and degrade
// along the fallback chain before reporting a typed failure. NCK_CHAOS=1
// in the environment enables a fixed-seed fault schedule for every
// solver instance (the CI chaos job).
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/certify.hpp"
#include "analysis/reduce/reduce.hpp"
#include "anneal/backend.hpp"
#include "backend/plan_cache.hpp"
#include "backend/registry.hpp"
#include "circuit/backend.hpp"
#include "core/env.hpp"
#include "decompose/decompose.hpp"
#include "obs/obs.hpp"
#include "runtime/resilience.hpp"
#include "runtime/result.hpp"
#include "synth/engine.hpp"
#include "util/rng.hpp"

namespace nck {

struct SolveOptions {
  /// Semantically certify every constraint's QUBO (and the whole-program
  /// gap dominance) before dispatch. Certification failures abort the
  /// solve with kAnalysisRejected; the artifact is cached content-addressed
  /// in the plan cache, so warm solves of the same program re-check the
  /// dominance arithmetic without re-enumerating any assignment. While on,
  /// the heuristic NCK-P007 pass is suppressed in favor of its sound
  /// NCK-V001/V002 successors.
  bool certify = false;
  /// The margin certification checks dominance against; the default is the
  /// one compile() applies.
  CertifyOptions certify_options;
  /// Run the abstract-interpretation presolve (analysis/dataflow +
  /// analysis/reduce) ahead of analysis and synthesis. On by default
  /// (opt-out). The solver then operates entirely on the reduced program —
  /// analysis, certification, ground truth, backend plan keys — and the
  /// recorded ReductionTrace lifts samples back to original-space
  /// assignments in the report. A reduction that fails its equivalence
  /// certification is rejected (NCK-D004 warning) and the original program
  /// is solved instead. A presolve-proved-unsat program is analyzed in its
  /// original form so the rejection carries the usual NCK-P001/P002/D003
  /// diagnostics.
  bool presolve = true;
  /// Remaining *wall-clock* budget for this solve, in milliseconds,
  /// measured on the monotonic clock from solve() entry. Infinity (the
  /// default) means no wall deadline. This is deliberately distinct from
  /// RetryPolicy::deadline_ms, which is consumed against the *modeled*
  /// SessionClock (measured client time + modeled device time + modeled
  /// backoff waits) so fault-injection tests stay deterministic: a server
  /// propagating a client's latency budget needs real elapsed time, not
  /// modeled time. A budget that is already exhausted at entry (<= 0)
  /// fails fast with FailureKind::kDeadlineExhausted before any presolve,
  /// analysis, or backend work runs; mid-solve exhaustion is checked
  /// between stages and before every attempt (including the otherwise
  /// deadline-exempt classical rung — a caller past its wall deadline has
  /// no use for a late answer). NaN is rejected as kBadOptions.
  double wall_budget_ms = std::numeric_limits<double>::infinity();
  /// Exact-ground-truth ceiling. Programs with more variables than this
  /// defer Definition 8 truth to the solve's own best sample — the report's
  /// truth becomes that sample's evaluation, best_quality == kOptimal reads
  /// "the best sample of this solve", and SolveReport::truth_exact flips to
  /// false — instead of running the exponential classical certifier. The
  /// default (no ceiling) certifies every solve exactly, as before. The
  /// decomposer caps its sub-solves at 30 variables, its truth-component
  /// cap: the stitch re-evaluates every candidate against the whole
  /// program, so per-subproblem exact truth buys nothing at exponential
  /// cost.
  std::size_t truth_exact_max_vars = std::numeric_limits<std::size_t>::max();
  /// qbsolv-style large-neighborhood decomposition (DESIGN.md §3i). When
  /// enabled and the post-presolve program exceeds
  /// `decompose.subproblem_vars`, the solve partitions the variable-
  /// interaction graph into device-sized neighborhoods, clamps each
  /// neighborhood's boundary to the incumbent assignment, fans the clamped
  /// sub-programs across a SolverPool on the requested backend, stitches
  /// improving sub-results back, and iterates until no neighborhood
  /// improves, `max_rounds` is hit, or the wall budget binds. Programs at
  /// or under the cap take the ordinary whole-program path byte-for-byte,
  /// so enabling this is safe as a default. Hardware-level analysis runs
  /// per sub-QUBO inside each sub-solve; the whole-program report carries
  /// the program-level diagnostics plus an NCK-D005 note and a
  /// SolveReport::decompose summary.
  decompose::DecomposeOptions decompose;
};

struct SolveReport {
  /// Backend that produced the result; under fallback this is the rung
  /// that actually ran (the full path is in `resilience.attempts`).
  BackendKind backend = BackendKind::kClassical;
  bool ran = false;  // false: problem did not fit / embed / solve
  /// Typed cause of ran == false (kNone while ran == true); the retry and
  /// fallback machinery branches on this instead of string-matching.
  FailureKind failure = FailureKind::kNone;
  /// Human-readable specifics behind `failure` (may be empty).
  std::string failure_detail;
  /// Display string: the detail when present, else the generic
  /// description of `failure`; empty when the solve ran.
  std::string failure_message() const;
  /// Static-analysis findings gathered before dispatch: error diagnostics
  /// abort the solve (ran == false, failure == kAnalysisRejected), while
  /// warnings and notes ride along on successful solves.
  AnalysisReport analysis;
  /// Semantic certification artifact; engaged only when
  /// SolveOptions::certify was on (including cache-recalled solves). When
  /// presolve changed the program, the certificate covers the *reduced*
  /// form (the one actually dispatched).
  std::optional<ProgramCertificate> certificate;
  /// Presolve statistics; engaged only when SolveOptions::presolve ran and
  /// did something (reduced the program, proved it unsat, or was rejected).
  /// Identity presolves leave it disengaged.
  std::optional<PresolveSummary> presolve;
  /// Decomposition statistics; engaged only when the decompose stage ran
  /// (SolveOptions::decompose.enabled and the post-presolve program
  /// exceeded the per-subproblem cap). Carries per-round incumbent energy
  /// and sub-plan cache traffic.
  std::optional<decompose::DecomposeSummary> decompose;
  GroundTruth truth;         // classical ground truth used to classify
  /// True when `truth` came from the exact classical certifier; false when
  /// it was deferred to the solve's own best result (the program exceeded
  /// SolveOptions::truth_exact_max_vars, or a decomposed solve had an
  /// interaction component past 30 variables). Deferred truth makes
  /// kOptimal a "best found" statement, not a proof.
  bool truth_exact = true;
  /// Best sample (by classification then energy order of the backend).
  std::vector<bool> best_assignment;
  Quality best_quality = Quality::kIncorrect;
  QualityCounts counts;      // over all samples (classical: one sample)
  // Backend metrics (meaning depends on backend; 0 when not applicable):
  std::size_t qubits_used = 0;
  std::size_t circuit_depth = 0;
  std::size_t num_samples = 0;
  /// Modeled device/QPU time of the attempt that produced the result;
  /// cumulative session time lives in `resilience`.
  double backend_seconds = 0.0;
  /// Recovery story: every attempt, fault, retry, re-embed, degradation,
  /// and fallback of this solve. Empty when the first attempt succeeded
  /// with no resilience features active.
  ResilienceLog resilience;
  /// Per-stage spans and metrics recorded during this solve (wall-clock
  /// stage timings, synthesis cache counters, embedding and sampling
  /// statistics, modeled device times). Populated on every solve, including
  /// failed ones. Serialize with obs::trace_to_json / render with
  /// obs::print_trace.
  obs::TraceData trace;
};

class Solver {
 public:
  /// Shares one synthesis engine (and its pattern cache) across solves,
  /// like a long-lived NchooseK session. Builds no topology: the annealer
  /// and circuit backends borrow the process-wide shared_advantage_4_1()
  /// and shared_brooklyn_coupling(). Honors NCK_CHAOS=1 by starting from
  /// ResilienceOptions::chaos_from_env().
  explicit Solver(std::uint64_t seed = 1234);
  /// The annealer and circuit adapters point at this solver's own options,
  /// so a Solver is never copied or moved.
  Solver(Solver&&) = delete;
  Solver& operator=(Solver&&) = delete;

  /// Solves on the requested backend (retrying / degrading per
  /// resilience_options()) and classifies every sample.
  SolveReport solve(const Env& env, BackendKind backend);

  /// Re-seeds the per-solve sample stream. SolverPool and serve workers
  /// construct solvers from one base seed and then give each task its own
  /// schedule-independent stream.
  void reseed(std::uint64_t seed) { rng_ = Rng(seed); }

  AnnealBackendOptions& annealer_options() noexcept { return anneal_options_; }
  QaoaOptions& circuit_options() noexcept { return circuit_options_; }
  /// Fault injection, retry policy, deadline, and fallback chain.
  ResilienceOptions& resilience_options() noexcept { return resilience_; }
  /// Stage switches (presolve, certify, decompose), the certification
  /// margin, and the wall-clock budget.
  SolveOptions& solve_options() noexcept { return solve_options_; }
  SynthEngine& engine() noexcept { return engine_; }
  /// The pre-dispatch static analyzer. It holds no settings; the analysis
  /// stage passes it this solver's engine and targets.
  const Analyzer& analyzer() const noexcept { return analyzer_; }

  /// Execution backends the solve loop iterates. The builtin classical /
  /// annealer / circuit adapters are pre-registered; tests and embedders
  /// may add (or replace, latest-wins) backends.
  backend::Registry& backends() noexcept { return registry_; }

  /// Content-addressed plan cache consulted before every prepare. Each
  /// solver owns a private cache by default; share one across solvers
  /// (SolverPool does) via set_plan_cache. The synthesis engine is
  /// re-wired to the new cache's shared pattern memo.
  backend::PlanCache& plan_cache() noexcept { return *plan_cache_; }
  void set_plan_cache(std::shared_ptr<backend::PlanCache> cache);

 private:
  /// Per-solve pipeline state threaded through the explicit stage sequence
  /// (begin → presolve → analysis → certify → truth → dispatch-or-decompose
  /// → lift). Defined in solver.cpp.
  struct Stages;

  /// Body of solve(); the wrapper owns the trace and snapshots it into the
  /// report on every exit path. Runs the staged pipeline: whole-program
  /// dispatch is the trivial one-subproblem case, decomposition the
  /// many-subproblem one.
  void solve_impl(const Env& env, BackendKind backend, SolveReport& report,
                  obs::Trace& trace);
  /// Entry validation: false (with kBadOptions set) when the options for
  /// any backend on the (already deduplicated) solve chain are
  /// nonsensical. Delegates per-backend checks to Backend::validate.
  bool validate_options(const std::vector<BackendKind>& chain,
                        SolveReport& report) const;

  SynthEngine engine_;
  /// Construction seed, kept so the decompose stage can hand its
  /// SolverPool the same base seed regardless of reseed() calls since.
  std::uint64_t seed_;
  Rng rng_;
  Analyzer analyzer_;
  AnnealBackendOptions anneal_options_;
  QaoaOptions circuit_options_;
  ResilienceOptions resilience_;
  SolveOptions solve_options_;
  backend::Registry registry_;
  std::shared_ptr<backend::PlanCache> plan_cache_;
};

}  // namespace nck
