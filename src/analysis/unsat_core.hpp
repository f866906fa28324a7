// Deletion-based unsat-core (MUS) extraction over the hard constraints.
//
// When the hard conjunction is provably unsatisfiable (NCK-P001/P002), a
// single failing constraint index under-reports the problem: the user needs
// the *set* of constraints that is jointly unsatisfiable but becomes
// satisfiable when any one member is dropped (a minimal unsatisfiable
// subset). The oracle is the same machinery the infeasibility passes use —
// pair-disjointness plus forced-value propagation to fixpoint — which is
// monotone in constraint-set inclusion (adding constraints only adds forced
// values and preserves contradictions), so the classic deletion algorithm
// yields a true MUS. Minimality is nevertheless re-verified member by
// member, and the result says so.
//
// The oracle is incomplete (propagation over-approximates the feasible
// set), so extract_unsat_core only refines infeasibility the passes already
// proved; it never claims unsatisfiability on its own.
#pragma once

#include <cstddef>
#include <vector>

#include "core/env.hpp"

namespace nck {

struct UnsatCore {
  /// False when the oracle cannot prove the hard conjunction infeasible
  /// (members is then empty).
  bool found = false;
  /// Constraint indices into Env::constraints(), sorted ascending. Jointly
  /// unsatisfiable; every proper subset is oracle-feasible.
  std::vector<std::size_t> members;
  /// Every single-member deletion was re-checked to be oracle-feasible.
  bool verified_minimal = false;
};

/// Is the given subset of constraints (indices into env) provably
/// unsatisfiable by the lint oracle (disjoint same-collection selections,
/// or a propagation contradiction)? Soft members are ignored. Exposed for
/// tests and for the MUS minimality re-check.
bool oracle_infeasible(const Env& env, const std::vector<std::size_t>& subset);

/// Deletion-based MUS over the hard constraints of `env`. Returns
/// found == false when the oracle cannot prove infeasibility at all.
UnsatCore extract_unsat_core(const Env& env);

}  // namespace nck
