#include "analysis/dataflow/dataflow.hpp"

#include <map>
#include <utility>

#include "analysis/dataflow/counting.hpp"

namespace nck {

namespace {

using dataflow::kMaxExactCardinality;
using dataflow::selection_hits_sums;
using dataflow::SumSet;
using dataflow::UnfixedView;
using dataflow::view_under;

// Constraints with more unfixed distinct variables than this skip pair
// mining (the sweep builds O(k^2) subset-sum sets per constraint).
constexpr std::size_t kMaxPairVars = 32;
// Safety valve on phase-1/phase-2 alternations; each round forces at least
// one additional variable, so num_vars rounds always suffice.
constexpr std::size_t kMaxRounds = 4096;

struct PairEntry {
  unsigned char mask = kPairAllMask;
  std::size_t first_constraint = 0;  // first constraint that narrowed it
  std::size_t last_constraint = 0;   // most recent narrowing constraint
  bool narrowed = false;
};

/// Projects hard constraint `ci` onto every unfixed pair it covers,
/// intersecting the resulting 4-bit masks into `entries`.
void mine_constraint(const Env& env, std::size_t ci,
                     const std::vector<ForcedValue>& values,
                     std::map<std::pair<VarId, VarId>, PairEntry>& entries) {
  const Constraint& c = env.constraints()[ci];
  const UnfixedView view = view_under(c, values);
  if (view.unfixed.size() < 2 || view.unfixed.size() > kMaxPairVars ||
      c.cardinality() > kMaxExactCardinality) {
    return;
  }
  for (std::size_t i = 0; i < view.unfixed.size(); ++i) {
    for (std::size_t j = i + 1; j < view.unfixed.size(); ++j) {
      const auto [vi, mi] = view.unfixed[i];
      const auto [vj, mj] = view.unfixed[j];
      // Reachable sums of the other unfixed members.
      SumSet rest(view.unfixed_total);
      for (std::size_t k = 0; k < view.unfixed.size(); ++k) {
        if (k != i && k != j) rest.add_item(view.unfixed[k].second);
      }
      const unsigned rest_total = view.unfixed_total - mi - mj;
      unsigned char mask = 0;
      for (bool a_true : {false, true}) {
        for (bool b_true : {false, true}) {
          const unsigned offset = view.fixed_true + (a_true ? mi : 0u) +
                                  (b_true ? mj : 0u);
          if (selection_hits_sums(c.selection(), offset, rest_total, rest)) {
            // Orient the bit by ascending VarId, not collection position.
            const bool va = vi < vj ? a_true : b_true;
            const bool vb = vi < vj ? b_true : a_true;
            mask |= pair_bit(va, vb);
          }
        }
      }
      const std::pair<VarId, VarId> key{std::min(vi, vj), std::max(vi, vj)};
      PairEntry& entry = entries[key];
      const unsigned char merged = entry.mask & mask;
      if (merged != entry.mask || mask != kPairAllMask) {
        if (!entry.narrowed && mask != kPairAllMask) {
          entry.first_constraint = ci;
          entry.narrowed = true;
        }
        if (mask != kPairAllMask) entry.last_constraint = ci;
      }
      entry.mask = merged;
    }
  }
}

}  // namespace

DataflowResult solve_dataflow(const Env& env) {
  DataflowResult result;
  result.values.assign(env.num_vars(), ForcedValue::kUnknown);

  std::map<std::pair<VarId, VarId>, PairEntry> entries;
  while (true) {
    ++result.rounds;
    if (propagate_seeded(env, result.values, result.unsat_constraint)) {
      result.proved_unsat = true;
      result.unsat_constraint2 = result.unsat_constraint;
      return result;
    }
    if (result.rounds > kMaxRounds) break;

    entries.clear();
    for (std::size_t ci = 0; ci < env.constraints().size(); ++ci) {
      if (!env.constraints()[ci].soft()) {
        mine_constraint(env, ci, result.values, entries);
      }
    }

    bool forced_any = false;
    for (const auto& [key, entry] : entries) {
      if (entry.mask == 0) {
        // No joint value survives the constraint intersection: a
        // contradiction count propagation cannot see (each individual
        // constraint still has satisfying counts).
        result.proved_unsat = true;
        result.needed_pairs = true;
        result.pair_witness = true;
        result.unsat_constraint = entry.first_constraint;
        result.unsat_constraint2 = entry.last_constraint;
        return result;
      }
      // A row or column of the 2x2 value table being empty forces the
      // corresponding variable; propagation then re-runs with the new fact.
      struct Forcing {
        VarId var;
        unsigned char absent_mask;  // bits where the variable takes `value`
        ForcedValue value;
      };
      const Forcing forcings[] = {
          {key.first, static_cast<unsigned char>(0b1010), ForcedValue::kFalse},
          {key.first, static_cast<unsigned char>(0b0101), ForcedValue::kTrue},
          {key.second, static_cast<unsigned char>(0b1100), ForcedValue::kFalse},
          {key.second, static_cast<unsigned char>(0b0011), ForcedValue::kTrue},
      };
      for (const Forcing& f : forcings) {
        if ((entry.mask & f.absent_mask) != 0) continue;
        if (result.values[f.var] == f.value) continue;
        if (result.values[f.var] != ForcedValue::kUnknown) {
          // Two pair facts force opposite values: contradiction.
          result.proved_unsat = true;
          result.needed_pairs = true;
          result.pair_witness = true;
          result.unsat_constraint = entry.first_constraint;
          result.unsat_constraint2 = entry.last_constraint;
          return result;
        }
        result.values[f.var] = f.value;
        result.needed_pairs = true;
        forced_any = true;
      }
    }
    if (!forced_any) break;
  }

  for (const auto& [key, entry] : entries) {
    if (entry.mask != kPairAllMask && entry.mask != 0) {
      result.facts.push_back({key.first, key.second, entry.mask});
    }
  }
  return result;
}

}  // namespace nck
