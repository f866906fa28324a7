// Program-level static-analysis passes over an NchooseK Env. All passes are
// sound: an error-severity diagnostic is only emitted when the program is
// provably broken (e.g. hard constraints that cannot be jointly satisfied),
// so aborting a solve on errors never rejects a solvable program.
//
// Feasibility reasoning is a fixpoint of per-constraint reachable-count
// propagation: each hard constraint nck(N, K) restricts the multiplicity-
// weighted TRUE-count of N to K; fixing variables (forced TRUE/FALSE)
// shrinks the reachable count set of every other constraint sharing them.
// Reachable counts are computed exactly via subset sums over unfixed
// multiplicities, which subsumes both interval and parity propagation.
#pragma once

#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/env.hpp"

namespace nck {

class SynthEngine;

/// A soft-energy unit (NCK-P007) or a certified dominance margin (NCK-V002)
/// counts as resolvable on the annealer while it exceeds kDefaultIceSigma
/// (anneal/sampler.hpp) times this factor, relative to the largest
/// coefficient.
inline constexpr double kResolutionFactor = 2.0;

/// The multiset of `collection` as text ("0,0,3,"), for grouping
/// constraints that read the same variables.
std::string sorted_collection_key(const std::vector<VarId>& collection);

/// Runs every program-level pass, appending diagnostics to `report`. With an
/// `engine`, NCK-P008 checks each constraint against that engine's general
/// synthesis budget (contiguous selections pass while its closed forms are
/// on); without one it is skipped. `scale_separation` runs the heuristic
/// NCK-P007; certifying callers turn it off, because NCK-V001/V002 are its
/// sound replacement.
void analyze_program(const Env& env, const SynthEngine* engine,
                     bool scale_separation, AnalysisReport& report);

/// Tri-state assignment derived by hard-constraint propagation.
enum class ForcedValue : unsigned char { kUnknown, kTrue, kFalse };

struct PropagationResult {
  bool contradiction = false;
  /// Index of the hard constraint whose reachable-count set became empty
  /// (meaningful only when contradiction is true).
  std::size_t failed_constraint = 0;
  std::vector<ForcedValue> values;  // per VarId
};

/// Fixpoint forced-value propagation over the hard constraints only: the
/// NCK-P002 engine, and the dataflow fixpoint without its pair mining.
PropagationResult propagate_forced_values(const Env& env);

/// Seeded variant: continues propagation from the partial assignment in
/// `values` (which must be sized env.num_vars()), updating it in place.
/// Returns true on contradiction, naming the dying hard constraint. The
/// dataflow engine uses this to interleave count propagation with pair
/// mining without restarting from the empty assignment.
bool propagate_seeded(const Env& env, std::vector<ForcedValue>& values,
                      std::size_t& failed_constraint);

}  // namespace nck
