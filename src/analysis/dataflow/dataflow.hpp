// Fixpoint abstract interpretation over an NchooseK program.
//
// The per-variable abstract domain is the flat lattice
//
//          free (kUnknown)
//          |            |
//    forced-TRUE   forced-FALSE
//          |            |
//        bottom (contradiction)
//
// Bottom is not stored per variable: reaching it anywhere makes the whole
// program unsatisfiable, so the engine reports it as `proved_unsat` with a
// witness constraint (or pair of constraints).
//
// On top of the unary domain the engine mines binary facts. For every
// unordered pair of variables that co-occur in some hard constraint, each
// such constraint is projected onto the pair: with the other unfixed
// multiplicities summarized by an exact subset-sum set, a 4-bit mask records
// which joint values (a, b) the constraint still permits (bit index
// value(a) + 2 * value(b), a < b by VarId). Masks from all covering
// constraints are intersected; an empty intersection is a contradiction no
// single constraint exposes, and a single-valued row or column forces a
// variable. Count propagation (phase 1) and pair mining (phase 2) alternate
// until neither changes anything — the fixpoint.
//
// Everything here is an over-approximation of the feasible set, so every
// forced value and every excluded pair value is sound: no satisfying
// assignment of the hard constraints is ever ruled out.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/program_passes.hpp"
#include "core/env.hpp"

namespace nck {

struct DataflowOptions {
  /// Collections larger than this skip exact subset-sum reasoning (the
  /// bitset grows with cardinality); interval reasoning still applies in
  /// phase 1, and phase 2 skips the constraint.
  std::size_t max_propagation_cardinality = 4096;
  /// Mine pairwise implication/exclusion facts (phase 2). Off = plain
  /// forced-value propagation, exactly the NCK-P002 engine.
  bool mine_pairs = true;
  /// Safety valve on phase-1/phase-2 alternations; each round forces at
  /// least one additional variable, so num_vars rounds always suffice.
  std::size_t max_rounds = 4096;
};

/// Pair-value bit helpers: bit index = value(a) + 2 * value(b).
inline constexpr unsigned char kPairAllMask = 0xF;
inline constexpr unsigned char pair_bit(bool va, bool vb) {
  return static_cast<unsigned char>(1u << ((va ? 1 : 0) + (vb ? 2 : 0)));
}

/// A non-trivial binary fact: the joint values (a, b) may still take.
/// mask == 0b0110 is "a XOR b", 0b1001 is "a == b", etc.
struct PairFact {
  VarId a = 0;  // a < b
  VarId b = 0;
  unsigned char mask = kPairAllMask;
};

struct DataflowResult {
  /// Fixpoint unary lattice, per VarId. Meaningful even when proved_unsat
  /// (the values derived before the contradiction surfaced).
  std::vector<ForcedValue> values;
  /// Non-trivial pair facts (mask != kPairAllMask) at the fixpoint, sorted
  /// by (a, b). Empty when proved_unsat (the fixpoint was never reached).
  std::vector<PairFact> facts;
  bool proved_unsat = false;
  /// True when phase 2 contributed a fact (a forced value or the
  /// contradiction itself) that phase-1 propagation alone had not found —
  /// i.e. the result is strictly stronger than NCK-P002 reasoning.
  bool needed_pairs = false;
  /// When proved_unsat: true if the witness is a pair of constraints whose
  /// pair-projections are jointly empty; false if a single constraint's
  /// reachable-count set died (the NCK-P002 shape).
  bool pair_witness = false;
  std::size_t unsat_constraint = 0;
  std::size_t unsat_constraint2 = 0;  // == unsat_constraint unless pair_witness
  std::size_t rounds = 0;

  std::size_t num_forced() const noexcept {
    std::size_t n = 0;
    for (ForcedValue v : values) {
      if (v != ForcedValue::kUnknown) ++n;
    }
    return n;
  }
};

/// Runs the two-phase engine to its fixpoint over the hard constraints.
DataflowResult solve_dataflow(const Env& env,
                              const DataflowOptions& options = {});

}  // namespace nck
