#include "analysis/reduce/reduce.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/dataflow/counting.hpp"
#include "analysis/program_passes.hpp"
#include "graph/graph.hpp"

namespace nck {

const char* reduction_rule_name(ReductionRule rule) noexcept {
  switch (rule) {
    case ReductionRule::kForcedSubstitution: return "forced-substitution";
    case ReductionRule::kTautologyRemoval: return "tautology-removal";
    case ReductionRule::kDuplicateRemoval: return "duplicate-removal";
    case ReductionRule::kSubsumptionRemoval: return "subsumption-removal";
    case ReductionRule::kDecidedSoftRemoval: return "decided-soft-removal";
    case ReductionRule::kUnsatShortCircuit: return "unsat-short-circuit";
  }
  return "?";
}

std::vector<bool> ReductionTrace::lift(const std::vector<bool>& reduced) const {
  std::vector<bool> out(original_num_vars, false);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    out[kept[i]] = i < reduced.size() && reduced[i];
  }
  for (std::size_t v = 0; v < forced.size(); ++v) {
    if (forced[v] == ForcedValue::kTrue) out[v] = true;
  }
  return out;
}

namespace {

using dataflow::SumSet;

/// One hard constraint in canonical form for the subsumption scan.
struct HardForm {
  std::string key;                  // sorted collection multiset
  const std::set<unsigned>* sel = nullptr;
  std::size_t index = 0;            // caller-space index
};

/// Pairwise subsumption/duplication among hard constraints sharing a
/// collection multiset: sel(by) ⊆ sel(removed) means every assignment
/// satisfying `by` satisfies `removed`, so `removed` is redundant. Equal
/// selections remove the later occurrence only.
std::vector<Subsumption> subsumptions_among(const std::vector<HardForm>& forms) {
  std::map<std::string, std::vector<std::size_t>> groups;  // key -> positions
  for (std::size_t pos = 0; pos < forms.size(); ++pos) {
    groups[forms[pos].key].push_back(pos);
  }
  std::vector<bool> removed(forms.size(), false);
  std::vector<Subsumption> out;
  for (const auto& [key, members] : groups) {
    if (members.size() < 2) continue;
    for (std::size_t a : members) {
      if (removed[a]) continue;
      for (std::size_t b : members) {
        if (a == b || removed[b]) continue;
        const std::set<unsigned>& sa = *forms[a].sel;
        const std::set<unsigned>& sb = *forms[b].sel;
        if (!std::includes(sa.begin(), sa.end(), sb.begin(), sb.end())) {
          continue;  // sb is not a subset of sa
        }
        const bool duplicate = sa.size() == sb.size();
        if (duplicate && b > a) continue;  // only the later copy is redundant
        removed[a] = true;
        out.push_back({forms[a].index, forms[b].index, duplicate});
        break;
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Subsumption& x, const Subsumption& y) {
              return x.removed < y.removed;
            });
  return out;
}

/// Achievability of every count in the selection set / outside it, for a
/// collection of unforced variables (multiplicities via repetition).
struct Reachability {
  bool always = false;  // every achievable count lies in the selection
  bool never = false;   // no achievable count lies in the selection
};

Reachability classify_reachability(const std::vector<VarId>& collection,
                                   const std::set<unsigned>& selection) {
  std::map<VarId, unsigned> mult;
  for (VarId v : collection) ++mult[v];
  unsigned total = 0;
  for (const auto& [v, m] : mult) total += m;
  SumSet sums(total);
  for (const auto& [v, m] : mult) sums.add_item(m);
  Reachability r;
  r.always = true;
  r.never = true;
  for (unsigned s = 0; s <= total; ++s) {
    if (!sums.test(s)) continue;
    if (selection.count(s)) {
      r.never = false;
    } else {
      r.always = false;
    }
  }
  return r;
}

}  // namespace

std::vector<Subsumption> find_hard_subsumptions(const Env& env) {
  std::vector<HardForm> forms;
  for (std::size_t ci = 0; ci < env.constraints().size(); ++ci) {
    const Constraint& c = env.constraints()[ci];
    if (c.soft()) continue;
    forms.push_back({sorted_collection_key(c.collection()), &c.selection(), ci});
  }
  return subsumptions_among(forms);
}

std::vector<std::vector<std::size_t>> constraint_components(const Env& env) {
  const std::size_t n = env.num_constraints();
  UnionFind sets(n);
  std::map<VarId, std::size_t> first_constraint_with;
  for (std::size_t ci = 0; ci < n; ++ci) {
    for (VarId v : env.constraints()[ci].distinct_vars()) {
      auto [it, inserted] = first_constraint_with.emplace(v, ci);
      if (!inserted) sets.unite(it->second, ci);
    }
  }
  // Components in order of their first constraint, members ascending.
  std::map<std::size_t, std::size_t> component_of_root;
  std::vector<std::vector<std::size_t>> components;
  for (std::size_t ci = 0; ci < n; ++ci) {
    const auto [it, inserted] =
        component_of_root.emplace(sets.find(ci), components.size());
    if (inserted) components.emplace_back();
    components[it->second].push_back(ci);
  }
  return components;
}

ComponentSplit split_components(const Env& env) {
  ComponentSplit split;
  std::vector<bool> constrained(env.num_vars(), false);
  for (const Constraint& c : env.constraints()) {
    for (VarId v : c.collection()) constrained[v] = true;
  }
  for (std::size_t v = 0; v < env.num_vars(); ++v) {
    if (!constrained[v]) split.free_vars.push_back(static_cast<VarId>(v));
  }
  for (const std::vector<std::size_t>& members : constraint_components(env)) {
    std::set<VarId> used;
    for (std::size_t ci : members) {
      const Constraint& c = env.constraints()[ci];
      used.insert(c.collection().begin(), c.collection().end());
    }
    Env sub;
    std::map<VarId, VarId> remap;
    std::vector<VarId> var_map;
    for (VarId v : used) {
      remap[v] = sub.new_var(env.var_name(v));
      var_map.push_back(v);
    }
    for (std::size_t ci : members) {
      const Constraint& c = env.constraints()[ci];
      std::vector<VarId> coll;
      coll.reserve(c.collection().size());
      for (VarId v : c.collection()) coll.push_back(remap[v]);
      sub.nck(std::move(coll), c.selection(), c.kind());
    }
    split.programs.push_back(std::move(sub));
    split.var_maps.push_back(std::move(var_map));
    split.constraint_maps.push_back(members);
  }
  return split;
}

ReduceResult reduce_program(const Env& env) {
  ReduceResult result;
  result.trace.original_num_vars = env.num_vars();
  result.trace.forced.assign(env.num_vars(), ForcedValue::kUnknown);

  const DataflowResult flow = solve_dataflow(env);
  result.needed_pairs = flow.needed_pairs;
  if (flow.proved_unsat) {
    result.proved_unsat = true;
    ReductionStep step;
    step.rule = ReductionRule::kUnsatShortCircuit;
    step.index = flow.unsat_constraint;
    step.other = flow.unsat_constraint2;
    step.detail = flow.pair_witness
                      ? "pairwise constraint-intersection facts admit no "
                        "joint value"
                      : "reachable-count set became empty under propagation";
    result.steps.push_back(std::move(step));
    return result;
  }
  result.trace.forced = flow.values;

  for (std::size_t v = 0; v < env.num_vars(); ++v) {
    if (flow.values[v] == ForcedValue::kUnknown) continue;
    ReductionStep step;
    step.rule = ReductionRule::kForcedSubstitution;
    step.index = v;
    step.other = v;
    step.detail =
        env.var_name(static_cast<VarId>(v)) +
        (flow.values[v] == ForcedValue::kTrue ? " := TRUE" : " := FALSE");
    result.steps.push_back(std::move(step));
  }

  // Rewrite every constraint under the forced assignment: forced-TRUE
  // members shift the selection down by their multiplicity, forced-FALSE
  // members drop out, and out-of-range selections are clipped.
  struct Rewritten {
    std::vector<VarId> collection;  // original VarIds, all unforced
    std::set<unsigned> selection;
    ConstraintKind kind = ConstraintKind::kHard;
    std::size_t original_index = 0;
  };
  std::vector<Rewritten> survivors;
  for (std::size_t ci = 0; ci < env.constraints().size(); ++ci) {
    const Constraint& c = env.constraints()[ci];
    unsigned shift = 0;
    std::vector<VarId> coll;
    for (VarId v : c.collection()) {
      switch (flow.values[v]) {
        case ForcedValue::kTrue: ++shift; break;
        case ForcedValue::kFalse: break;
        case ForcedValue::kUnknown: coll.push_back(v); break;
      }
    }
    std::set<unsigned> sel;
    for (unsigned k : c.selection()) {
      if (k >= shift && k - shift <= coll.size()) sel.insert(k - shift);
    }

    const Reachability reach = classify_reachability(coll, sel);
    if (reach.never) {
      ReductionStep step;
      step.index = ci;
      step.other = ci;
      if (c.soft()) {
        ++result.trace.soft_never_satisfied;
        step.rule = ReductionRule::kDecidedSoftRemoval;
        step.detail = "soft constraint unsatisfiable under every remaining "
                      "assignment";
        result.steps.push_back(std::move(step));
        continue;
      }
      // A hard constraint with no reachable satisfying count contradicts
      // the dataflow fixpoint above; keep the short-circuit as a belt.
      result.proved_unsat = true;
      step.rule = ReductionRule::kUnsatShortCircuit;
      step.detail = "hard constraint unsatisfiable after substitution";
      result.steps.push_back(std::move(step));
      result.reduced = Env{};
      result.trace.kept.clear();
      return result;
    }
    if (reach.always) {
      ReductionStep step;
      step.index = ci;
      step.other = ci;
      if (c.soft()) {
        ++result.trace.soft_always_satisfied;
        step.rule = ReductionRule::kDecidedSoftRemoval;
        step.detail = "soft constraint satisfied under every remaining "
                      "assignment";
      } else {
        step.rule = ReductionRule::kTautologyRemoval;
        step.detail = "hard constraint satisfied by every reachable count";
      }
      result.steps.push_back(std::move(step));
      continue;
    }
    survivors.push_back({std::move(coll), std::move(sel), c.kind(), ci});
  }

  // Duplicate and subsumption removal among the rewritten hard constraints.
  {
    std::vector<HardForm> forms;
    std::vector<std::size_t> positions;  // forms index -> survivors index
    for (std::size_t pos = 0; pos < survivors.size(); ++pos) {
      if (survivors[pos].kind != ConstraintKind::kHard) continue;
      forms.push_back({sorted_collection_key(survivors[pos].collection),
                       &survivors[pos].selection, pos});
    }
    std::vector<bool> drop(survivors.size(), false);
    for (const Subsumption& s : subsumptions_among(forms)) {
      drop[s.removed] = true;
      ReductionStep step;
      step.rule = s.duplicate ? ReductionRule::kDuplicateRemoval
                              : ReductionRule::kSubsumptionRemoval;
      step.index = survivors[s.removed].original_index;
      step.other = survivors[s.by].original_index;
      step.detail = s.duplicate
                        ? "hard constraint repeats an earlier one"
                        : "implied by the tighter selection set of the "
                          "other constraint";
      result.steps.push_back(std::move(step));
    }
    std::vector<Rewritten> filtered;
    filtered.reserve(survivors.size());
    for (std::size_t pos = 0; pos < survivors.size(); ++pos) {
      if (!drop[pos]) filtered.push_back(std::move(survivors[pos]));
    }
    survivors = std::move(filtered);
  }

  // Variable compaction: keep unforced variables that still appear in a
  // surviving constraint, and pass through variables that never appeared in
  // any constraint (their NCK-P004 story is unchanged by presolve).
  std::vector<bool> in_original(env.num_vars(), false);
  for (const Constraint& c : env.constraints()) {
    for (VarId v : c.collection()) in_original[v] = true;
  }
  std::vector<bool> in_survivor(env.num_vars(), false);
  for (const Rewritten& rw : survivors) {
    for (VarId v : rw.collection) in_survivor[v] = true;
  }
  std::vector<VarId> remap(env.num_vars(), 0);
  for (std::size_t v = 0; v < env.num_vars(); ++v) {
    if (flow.values[v] != ForcedValue::kUnknown) continue;
    if (in_survivor[v] || !in_original[v]) {
      remap[v] = result.reduced.new_var(env.var_name(static_cast<VarId>(v)));
      result.trace.kept.push_back(static_cast<VarId>(v));
    }
  }
  for (const Rewritten& rw : survivors) {
    std::vector<VarId> coll;
    coll.reserve(rw.collection.size());
    for (VarId v : rw.collection) coll.push_back(remap[v]);
    result.reduced.nck(std::move(coll), rw.selection, rw.kind);
  }

  result.components = result.reduced.num_constraints() == 0
                          ? 0
                          : constraint_components(result.reduced).size();
  return result;
}

namespace {

/// One program's evaluation, kept current while `verify_reduction` walks
/// the original assignments: per-constraint TRUE counts plus the running
/// hard-violated and soft-satisfied totals. A flip of original variable v
/// touches only the constraints v occurs in (for the reduced program, the
/// occurrences of v's reduced index through `trace.kept`).
class RunningEvaluation {
 public:
  /// `kept` maps program variables to original ones (reduced i <-> kept[i]);
  /// null means the program is the original. `projectable` turns false when
  /// a constraint reads a variable the projection cannot supply.
  RunningEvaluation(const Env& program, std::size_t num_original_vars,
                    const std::vector<VarId>* kept)
      : touching_(num_original_vars) {
    const std::vector<std::vector<Occurrence>> incidence = program.incidence();
    for (std::size_t v = 0; v < incidence.size(); ++v) {
      if (incidence[v].empty()) continue;
      const std::size_t original =
          kept == nullptr ? v : (v < kept->size() ? (*kept)[v] : SIZE_MAX);
      if (original >= num_original_vars) {
        projectable = false;
        continue;
      }
      touching_[original].insert(touching_[original].end(),
                                 incidence[v].begin(), incidence[v].end());
    }
    // Every count starts at 0: the walk begins at the all-FALSE assignment.
    for (const Constraint& c : program.constraints()) {
      at_.push_back(score_.size());
      for (std::size_t k = 0; k <= c.cardinality(); ++k) {
        const bool member = c.selection().count(static_cast<unsigned>(k)) > 0;
        score_.push_back(c.soft() ? std::uint64_t{member}
                                  : std::uint64_t{!member} << 32);
      }
      total_ += score_[at_.back()];
    }
  }

  void flip(std::size_t v, bool to_true) {
    for (const auto& [ci, m] : touching_[v]) {
      const std::uint64_t before = score_[at_[ci]];
      at_[ci] = to_true ? at_[ci] + m : at_[ci] - m;
      total_ += score_[at_[ci]] - before;  // modular: each half stays >= 0
    }
  }

  std::size_t hard_violated() const noexcept { return total_ >> 32; }
  std::size_t soft_satisfied() const noexcept { return total_ & 0xFFFFFFFFu; }
  bool feasible() const noexcept { return hard_violated() == 0; }

  bool projectable = true;

 private:
  std::vector<std::vector<Occurrence>> touching_;  // original var -> entries
  /// One row per constraint over its counts 0..cardinality: 1 << 32 where a
  /// hard constraint is violated, 1 where a soft one is satisfied. at_[ci]
  /// indexes row ci at its current TRUE count; total_ sums the current
  /// entries, so it packs hard_violated (high half) and soft_satisfied
  /// (low half). Programs with 2^32 or more constraints would overflow it.
  std::vector<std::uint64_t> score_;
  std::vector<std::size_t> at_;
  std::uint64_t total_ = 0;
};

}  // namespace

ReductionVerdict verify_reduction(const Env& original,
                                  const ReduceResult& result,
                                  std::size_t max_vars) {
  ReductionVerdict verdict;
  const std::size_t n = original.num_vars();
  if (n > max_vars || n >= 8 * sizeof(std::size_t)) return verdict;
  verdict.checked = true;

  // Walks bits = 0 .. 2^n - 1 in binary order. Stepping bits - 1 -> bits
  // clears the trailing ones and sets the next bit (two flips amortized),
  // and each flip updates only the constraints the variable occurs in.
  RunningEvaluation orig(original, n, nullptr);
  RunningEvaluation red(result.reduced, n, &result.trace.kept);
  const std::vector<ForcedValue>& forced = result.trace.forced;
  const std::size_t num_forced = std::min(forced.size(), n);
  // Variables disagreeing with their forced value; 0 means consistent.
  std::size_t mismatched = 0;
  for (std::size_t v = 0; v < num_forced; ++v) {
    if (forced[v] == ForcedValue::kTrue) ++mismatched;
  }
  auto flip = [&](std::size_t v, bool to_true) {
    orig.flip(v, to_true);
    red.flip(v, to_true);
    if (v >= num_forced || forced[v] == ForcedValue::kUnknown) return;
    const bool agrees = to_true == (forced[v] == ForcedValue::kTrue);
    mismatched = agrees ? mismatched - 1 : mismatched + 1;
  };

  const std::size_t total = std::size_t{1} << n;
  for (std::size_t bits = 0; bits < total; ++bits) {
    if (bits != 0) {
      const int lowest = std::countr_zero(bits);
      for (int i = 0; i < lowest; ++i) flip(static_cast<std::size_t>(i), false);
      flip(static_cast<std::size_t>(lowest), true);
    }
    auto fail = [&](const char* why) {
      verdict.ok = false;
      std::ostringstream os;
      os << why << " at assignment 0x" << std::hex << bits;
      verdict.detail = os.str();
    };
    if (result.proved_unsat) {
      if (orig.feasible()) {
        fail("program reported unsatisfiable has a feasible assignment");
        return verdict;
      }
      continue;
    }
    if (mismatched != 0) {
      if (orig.feasible()) {
        fail("forced value excludes a hard-feasible assignment");
        return verdict;
      }
      continue;
    }
    if (!red.projectable) {
      throw std::out_of_range(
          "verify_reduction: reduced program reads a variable outside "
          "trace.kept");
    }
    if (orig.feasible() != red.feasible()) {
      fail("hard feasibility diverges between original and reduced");
      return verdict;
    }
    if (orig.soft_satisfied() !=
        red.soft_satisfied() + result.trace.soft_always_satisfied) {
      fail("soft-satisfaction count diverges between original and reduced");
      return verdict;
    }
  }
  return verdict;
}

PresolveSummary summarize_reduction(const Env& original,
                                    const ReduceResult& result,
                                    const ReductionVerdict& verdict) {
  PresolveSummary s;
  s.original_vars = original.num_vars();
  s.original_constraints = original.num_constraints();
  s.reduced_vars = result.reduced.num_vars();
  s.reduced_constraints = result.reduced.num_constraints();
  for (ForcedValue v : result.trace.forced) {
    if (v != ForcedValue::kUnknown) ++s.forced;
  }
  s.removed_constraints = s.original_constraints - s.reduced_constraints;
  s.components = result.components;
  s.soft_always_satisfied = result.trace.soft_always_satisfied;
  s.soft_never_satisfied = result.trace.soft_never_satisfied;
  s.proved_unsat = result.proved_unsat;
  s.verified = verdict.checked && verdict.ok;
  s.rejected = verdict.checked && !verdict.ok;
  return s;
}

}  // namespace nck
