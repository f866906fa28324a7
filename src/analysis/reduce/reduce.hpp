// Model-preserving program reductions driven by the dataflow fixpoint
// (analysis/dataflow). `reduce_program` rewrites an Env into a smaller
// equivalent one and records a ReductionTrace that maps assignments between
// the two spaces:
//
//   forced-variable substitution   a variable the hard constraints force is
//                                  removed; each constraint's selection set
//                                  shifts by the multiplicity-weighted
//                                  forced-TRUE total;
//   tautology removal              a hard constraint satisfied by every
//                                  reachable count disappears;
//   duplicate removal              a hard constraint repeated verbatim
//                                  disappears (soft repeats are weights and
//                                  are kept);
//   subsumption removal            of two hard constraints over the same
//                                  collection, the one with the strictly
//                                  larger selection set is implied by the
//                                  tighter one and disappears;
//   decided-soft removal           a soft constraint that is satisfied (or
//                                  violated) under every remaining
//                                  assignment is dropped and tallied into
//                                  the trace's soft offsets;
//   unsat short-circuit            a dataflow contradiction makes the whole
//                                  program unsatisfiable; no reduced
//                                  program is produced.
//
// Soundness: every rule preserves (a) the hard-feasible set, pointwise
// under the forced assignment, and (b) each assignment's satisfied-soft
// count up to the constant `soft_always_satisfied`. `verify_reduction`
// checks exactly that, by exhaustive enumeration, on every instance small
// enough to enumerate — the end-to-end certification backing the per-rule
// structural argument.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/dataflow/dataflow.hpp"
#include "core/env.hpp"

namespace nck {

struct ReduceOptions {
  DataflowOptions dataflow;
};

/// `verify_reduction` enumerates all 2^n original assignments up to this
/// many variables by default; larger programs rely on the per-rule
/// invariants (each step still validates structurally via Constraint's
/// constructor).
inline constexpr std::size_t kVerifyMaxVars = 16;

enum class ReductionRule {
  kForcedSubstitution,   // variable pinned by dataflow, value substituted
  kTautologyRemoval,     // hard constraint satisfied by every reachable count
  kDuplicateRemoval,     // hard constraint repeated verbatim
  kSubsumptionRemoval,   // hard constraint implied by a tighter one
  kDecidedSoftRemoval,   // soft constraint decided under every assignment
  kUnsatShortCircuit,    // dataflow contradiction: program unsatisfiable
};

const char* reduction_rule_name(ReductionRule rule) noexcept;

struct ReductionStep {
  ReductionRule rule = ReductionRule::kForcedSubstitution;
  /// Original constraint index, or VarId for kForcedSubstitution.
  std::size_t index = 0;
  /// Second participant: the subsuming/first-duplicate constraint, or the
  /// second witness constraint for kUnsatShortCircuit; == index otherwise.
  std::size_t other = 0;
  std::string detail;
};

/// Maps assignments between the original and reduced variable spaces.
struct ReductionTrace {
  std::size_t original_num_vars = 0;
  /// Per original VarId: the substituted value, or kUnknown if kept/free.
  std::vector<ForcedValue> forced;
  /// Reduced index -> original VarId, ascending.
  std::vector<VarId> kept;
  /// Soft constraints removed as decided: satisfied by every assignment
  /// consistent with `forced` / satisfiable by none. Reduced-space soft
  /// counts are offset by `soft_always_satisfied` to recover original ones.
  std::size_t soft_always_satisfied = 0;
  std::size_t soft_never_satisfied = 0;

  /// True when the trace is a no-op (no forcing, no dropped variables).
  bool identity() const noexcept;

  /// Reduced-space assignment -> original-space assignment: kept variables
  /// copy through, forced variables take their forced value, variables
  /// dropped as unconstrained default to FALSE.
  std::vector<bool> lift(const std::vector<bool>& reduced) const;
};

struct ReduceResult {
  /// The reduced program. Empty (0 vars, 0 constraints) when proved_unsat.
  Env reduced;
  ReductionTrace trace;
  std::vector<ReductionStep> steps;
  bool proved_unsat = false;
  /// Dataflow needed pair mining (facts beyond NCK-P002 propagation).
  bool needed_pairs = false;
  /// Connected components of the reduced constraint graph (constraints
  /// joined by shared variables); 0 when there are no constraints left.
  std::size_t components = 0;

  bool changed() const noexcept { return !steps.empty(); }
};

/// Runs dataflow to its fixpoint and applies the reduction catalog.
ReduceResult reduce_program(const Env& env, const ReduceOptions& options = {});

/// A hard constraint implied by (or duplicating) a tighter one over the
/// same collection multiset.
struct Subsumption {
  std::size_t removed = 0;  // the implied (weaker) constraint
  std::size_t by = 0;       // the tighter constraint that implies it
  bool duplicate = false;   // selections equal, not a strict subset
};

/// All subsumption/duplication pairs among the hard constraints, in
/// ascending `removed` order. Exposed for the NCK-D001 lint.
std::vector<Subsumption> find_hard_subsumptions(const Env& env);

/// Constraint indices grouped into connected components (constraints
/// sharing a variable, transitively). Singleton-free programs return one
/// group per isolated constraint; the groups partition [0, num_constraints)
/// and are the decomposition seam for independent sub-program solving.
std::vector<std::vector<std::size_t>> constraint_components(const Env& env);

/// Splits a program into its independent sub-programs, one Env per
/// connected component. `var_maps[k][i]` is the original VarId of component
/// k's variable i; `constraint_maps[k][j]` the original index of its
/// constraint j. Components are joined by *any* shared variable — hard or
/// soft constraints alike — so two hard-disjoint clusters bridged only by a
/// soft constraint land in one component (their soft counts are coupled).
/// Variables in no constraint belong to no component; they are listed in
/// `free_vars` so the var_maps plus free_vars always cover
/// [0, env.num_vars()) exactly once (the decomposer relies on this).
struct ComponentSplit {
  std::vector<Env> programs;
  std::vector<std::vector<VarId>> var_maps;
  std::vector<std::vector<std::size_t>> constraint_maps;
  /// Original VarIds appearing in no constraint, ascending. Any value works
  /// for them (the canonical completion picks FALSE).
  std::vector<VarId> free_vars;
};
ComponentSplit split_components(const Env& env);

/// Outcome of end-to-end equivalence certification between an original
/// program and its reduction.
struct ReductionVerdict {
  /// False when the program was too large to enumerate (the verdict is
  /// then vacuously `ok`; per-rule invariants are the only guarantee).
  bool checked = false;
  bool ok = true;
  std::string detail;  // first counterexample, when !ok
};

/// Certifies `result` against `original` by enumerating all assignments
/// (up to max_vars variables): forced-consistent assignments must agree on
/// hard feasibility and on soft counts up to soft_always_satisfied, and
/// forced-inconsistent ones must be hard-infeasible in the original. When
/// `result.proved_unsat`, instead checks no assignment is hard-feasible.
/// Assignments are visited in binary order, updating per-constraint counts
/// only for the variables that flip; `detail` names the first failing one.
/// Throws std::out_of_range when a reduced constraint reads a variable that
/// `trace.kept` does not map.
ReductionVerdict verify_reduction(const Env& original,
                                  const ReduceResult& result,
                                  std::size_t max_vars = kVerifyMaxVars);

/// Compact statistics for SolveReport / the simplify CLI.
struct PresolveSummary {
  std::size_t original_vars = 0;
  std::size_t reduced_vars = 0;
  std::size_t original_constraints = 0;
  std::size_t reduced_constraints = 0;
  std::size_t forced = 0;
  std::size_t removed_constraints = 0;
  std::size_t components = 0;
  std::size_t soft_always_satisfied = 0;
  std::size_t soft_never_satisfied = 0;
  bool proved_unsat = false;
  bool verified = false;  // equivalence enumeration ran and passed
  bool rejected = false;  // equivalence enumeration ran and FAILED
};

PresolveSummary summarize_reduction(const Env& original,
                                    const ReduceResult& result);

}  // namespace nck
