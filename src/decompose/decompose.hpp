// qbsolv-style large-neighborhood decomposition mechanics (DESIGN.md §3i).
//
// The paper's devices cap every scenario at a fixed QUBO size (65 variables
// on Brooklyn, embedding blow-up beyond a few dozen logical variables on
// Pegasus). The established route around a fixed-size device is Booth/
// Reinhardt/Roy's qbsolv loop: partition the problem's variable-interaction
// graph into device-sized neighborhoods, clamp everything outside the
// active neighborhood to the incumbent assignment, solve the clamped
// sub-QUBO on the device, stitch the result back, and iterate until no
// neighborhood improves the incumbent.
//
// This module owns the *mechanics* of that loop — partition planning and
// incumbent clamping — as pure, deterministic Env-to-Env transformations.
// The loop itself (sub-solve fan-out across SolverPool, acceptance,
// convergence, observability) lives in runtime::Solver's decompose stage,
// layered above this module.
//
// Clamping is exact at the program level, not the QUBO level: a constraint
// nck(N, K) with some members clamped becomes nck(N ∩ free, K') where K'
// shifts K down by the clamped-TRUE multiplicity and drops counts the free
// collection cannot reach. Constraints decided by the clamp alone (no free
// member, or an empty/full shifted selection) leave the sub-program and are
// tallied, so a sub-program never carries a constraint the Constraint
// constructor would reject and the sub-solve optimizes exactly the
// conditional program given the boundary.
#pragma once

#include <cstddef>
#include <vector>

#include "core/env.hpp"
#include "synth/engine.hpp"

namespace nck::decompose {

/// Knobs of the decompose stage (SolveOptions::decompose). Off by default:
/// enabling it only changes solves whose post-presolve program exceeds
/// `subproblem_vars` (the trivial one-subproblem case stays byte-identical
/// to the undecomposed path).
struct DecomposeOptions {
  bool enabled = false;
  /// Per-sub-QUBO variable cap — the device ceiling being broken. The cap
  /// counts *QUBO* variables (program variables plus the synthesized
  /// ancillas of every constraint the neighborhood touches), because that
  /// is what the device sees: a set-cover neighborhood of 16 program
  /// variables already compiles to a ~50-variable QUBO. The default is
  /// Brooklyn's 65-qubit budget, the hardest cap in the paper.
  std::size_t subproblem_vars = 65;
  /// Large-neighborhood rounds before giving up on further improvement.
  std::size_t max_rounds = 16;
  /// Worker threads for the per-round sub-solve fan-out; 0 = hardware
  /// concurrency. Results are bit-identical across any thread count.
  std::size_t num_threads = 0;
};

/// The fixed decomposition seam: parts of the variable-interaction graph,
/// each within the sub-QUBO budget, covering every variable exactly once.
/// Planned once per solve; rounds re-clamp, never re-cut.
struct Partition {
  /// Part k's variables (work-space VarIds, ascending). Deterministic.
  std::vector<std::vector<VarId>> parts;
  /// Connected components of the interaction graph (before packing).
  std::size_t components = 0;
};

/// Plans the partition for `env` with parts whose *estimated sub-QUBO*
/// stays within `max_qubo_vars`: each part is charged one QUBO variable
/// per program variable plus the synthesized ancilla count of every
/// constraint touching the part (a straddling constraint is charged to
/// every part it touches, mirroring its clamped copy in each
/// sub-program; the estimate uses the unclamped pattern, so it is
/// conservative). With a null engine the ancilla charge is zero and the
/// cap degenerates to a plain per-part variable cap. Whole components
/// within budget are packed together first-fit; oversized components are
/// split by deterministic cheapest-frontier BFS growth. A single variable
/// whose constraints alone exceed the budget still gets its own part —
/// decomposition can shrink neighborhoods, not constraints. Requires
/// max_qubo_vars >= 1.
Partition plan_partition(const Env& env, std::size_t max_qubo_vars,
                         SynthEngine* engine = nullptr);

/// One clamped sub-program: the conditional program over `vars` given that
/// every other variable is pinned to the incumbent.
struct Subproblem {
  /// The sub-program. Variable i of `env` is work-space variable vars[i].
  Env env;
  /// Part members (work-space VarIds, ascending), including variables every
  /// constraint of which was decided by the clamp.
  std::vector<VarId> vars;
  /// Hard constraints the clamp alone already violates (no free member can
  /// save them). The sub-solve proceeds — the violation belongs to the
  /// boundary, and a later round re-clamps it.
  std::size_t clamped_hard_violated = 0;
  /// Soft constraints decided by the clamp: satisfied / violated constants
  /// of the conditional program.
  std::size_t clamped_soft_satisfied = 0;
  std::size_t clamped_soft_violated = 0;
};

/// Builds the clamped sub-program of `env` for the free set `part` (must be
/// ascending work-space VarIds) under `incumbent` (size env.num_vars()).
Subproblem clamp_to_incumbent(const Env& env, const std::vector<VarId>& part,
                              const std::vector<bool>& incumbent);

/// Strict lexicographic improvement for the acceptance scan: fewer violated
/// hard constraints wins, then more satisfied soft constraints.
bool improves(const Evaluation& candidate, const Evaluation& incumbent) noexcept;

/// Deterministic program-level tabu polish of a sub-solve result: single
/// variable flips minimizing (hard_violated, soft_violated) lexically,
/// steepest admissible move first (ties to the lowest VarId), tenure
/// min(20, n/4) + 1, aspiration on the best state seen. Returns the best
/// assignment visited (never worse than `start`).
///
/// This runs where qbsolv runs its tabu refinement — between the device
/// sample and the stitch — but on the *program*, not the compiled QUBO.
/// The distinction is load-bearing: in QUBO space a one-soft-unit swap
/// (set cover's two halves for the full block) hides behind a hard-scale
/// ancilla barrier that steepest-move tabu never climbs while ±1 plateau
/// moves remain, so sub-solves systematically stall in minimal-but-not-
/// minimum states. In program space the same swap is a one-unit ridge.
std::vector<bool> polish_assignment(const Env& env, std::vector<bool> start,
                                    std::size_t max_iters = 512);

/// Per-round record for SolveReport::decompose (and BENCH_decompose.json):
/// the incumbent's energy after the round plus the round's sub-plan cache
/// traffic (delta of the shared plan cache across the round).
struct RoundStats {
  std::size_t round = 0;            // 1-based
  std::size_t hard_violated = 0;    // incumbent energy after the round
  std::size_t soft_satisfied = 0;
  std::size_t improved = 0;         // accepted neighborhood moves
  std::size_t subproblems_ran = 0;  // sub-solves that produced a sample
  std::size_t cache_hits = 0;       // plan-cache delta during the round
  std::size_t cache_misses = 0;
};

/// Decompose-stage statistics carried on SolveReport::decompose; engaged
/// only when the stage actually ran (the program exceeded the cap).
struct DecomposeSummary {
  std::size_t num_vars = 0;       // post-presolve program size
  std::size_t subproblems = 0;    // parts in the fixed partition
  std::size_t components = 0;     // interaction-graph components
  std::size_t rounds = 0;
  /// The loop stopped because no neighborhood improved the incumbent (as
  /// opposed to hitting max_rounds or the wall deadline).
  bool converged = false;
  /// Ground truth was computed exactly (component-wise); when false the
  /// report's truth is referenced to the final incumbent — a bound, not a
  /// proof — and kOptimal means "no sub-neighborhood improves it".
  bool truth_exact = false;
  std::vector<RoundStats> round_stats;
};

}  // namespace nck::decompose
