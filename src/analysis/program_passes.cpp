#include "analysis/program_passes.hpp"

#include "analysis/dataflow/counting.hpp"
#include "analysis/dataflow/dataflow.hpp"
#include "analysis/reduce/lint.hpp"
#include "analysis/unsat_core.hpp"
#include "anneal/sampler.hpp"
#include "synth/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace nck {

namespace {

using dataflow::kMaxExactCardinality;
using dataflow::selection_hits_interval;
using dataflow::selection_hits_sums;
using dataflow::SumSet;
using dataflow::UnfixedView;
using dataflow::view_under;

}  // namespace

bool propagate_seeded(const Env& env, std::vector<ForcedValue>& values,
                      std::size_t& failed_constraint) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t ci = 0; ci < env.constraints().size(); ++ci) {
      const Constraint& c = env.constraints()[ci];
      if (c.soft()) continue;
      const UnfixedView view = view_under(c, values);
      const bool exact = c.cardinality() <= kMaxExactCardinality &&
                         view.unfixed.size() <= 64;

      if (exact) {
        SumSet sums(view.unfixed_total);
        for (const auto& [v, m] : view.unfixed) sums.add_item(m);
        if (!selection_hits_sums(c.selection(), view.fixed_true,
                                 view.unfixed_total, sums)) {
          failed_constraint = ci;
          return true;
        }
        for (const auto& [v, m] : view.unfixed) {
          // Reachable sums with v excluded entirely (offset unchanged).
          SumSet without(view.unfixed_total);
          for (const auto& [w, wm] : view.unfixed) {
            if (w != v) without.add_item(wm);
          }
          const bool can_false = selection_hits_sums(
              c.selection(), view.fixed_true, view.unfixed_total - m, without);
          // v TRUE shifts the offset by its multiplicity.
          const bool can_true =
              selection_hits_sums(c.selection(), view.fixed_true + m,
                                  view.unfixed_total - m, without);
          if (!can_false && !can_true) {
            failed_constraint = ci;
            return true;
          }
          if (!can_false) {
            values[v] = ForcedValue::kTrue;
            changed = true;
          } else if (!can_true) {
            values[v] = ForcedValue::kFalse;
            changed = true;
          }
        }
      } else {
        // Interval over-approximation: reachable counts lie in
        // [fixed, fixed + unfixed_total]; still sound for contradiction
        // and forcing checks (it can only fail to fire, never misfire).
        if (!selection_hits_interval(c.selection(), view.fixed_true,
                                     view.fixed_true + view.unfixed_total)) {
          failed_constraint = ci;
          return true;
        }
        for (const auto& [v, m] : view.unfixed) {
          const bool can_false = selection_hits_interval(
              c.selection(), view.fixed_true,
              view.fixed_true + view.unfixed_total - m);
          const bool can_true = selection_hits_interval(
              c.selection(), view.fixed_true + m,
              view.fixed_true + view.unfixed_total);
          if (!can_false && !can_true) {
            failed_constraint = ci;
            return true;
          }
          if (!can_false) {
            values[v] = ForcedValue::kTrue;
            changed = true;
          } else if (!can_true) {
            values[v] = ForcedValue::kFalse;
            changed = true;
          }
        }
      }
    }
  }
  return false;
}

PropagationResult propagate_forced_values(const Env& env) {
  PropagationResult result;
  result.values.assign(env.num_vars(), ForcedValue::kUnknown);
  result.contradiction =
      propagate_seeded(env, result.values, result.failed_constraint);
  return result;
}

namespace {

void pass_tautology(const Env& env, AnalysisReport& report) {
  for (std::size_t ci = 0; ci < env.constraints().size(); ++ci) {
    const Constraint& c = env.constraints()[ci];
    if (c.selection().size() == c.cardinality() + 1) {
      report.add({Severity::kWarning, DiagCode::kTautology,
                  DiagLocation::constraint(ci, constraint_label(env, c)),
                  "selection set covers every count in [0, " +
                      std::to_string(c.cardinality()) +
                      "]; the constraint is always satisfied",
                  "remove the constraint; it never affects any assignment"});
    }
  }
}

void pass_duplicates(const Env& env, AnalysisReport& report) {
  std::map<std::string, std::size_t> seen;  // full key -> first index
  for (std::size_t ci = 0; ci < env.constraints().size(); ++ci) {
    const Constraint& c = env.constraints()[ci];
    std::ostringstream key;
    key << (c.soft() ? "s|" : "h|") << sorted_collection_key(c.collection())
        << "|";
    for (unsigned k : c.selection()) key << k << ",";
    auto [it, inserted] = seen.emplace(key.str(), ci);
    if (inserted) continue;
    if (c.soft()) {
      report.add({Severity::kNote, DiagCode::kDuplicateConstraint,
                  DiagLocation::constraint_pair(it->second, ci,
                                                constraint_label(env, c)),
                  "duplicate soft constraint; repeating it doubles its weight "
                  "in the objective",
                  "keep the duplicate only if the extra weight is intended"});
    } else {
      report.add({Severity::kWarning, DiagCode::kDuplicateConstraint,
                  DiagLocation::constraint_pair(it->second, ci,
                                                constraint_label(env, c)),
                  "duplicate hard constraint; the repeat adds QUBO terms "
                  "without changing the feasible set",
                  "remove the duplicate to shrink the compiled QUBO"});
    }
  }
}

void pass_contradictory_pairs(const Env& env, AnalysisReport& report) {
  // Hard constraints over the same variable multiset must have overlapping
  // selection sets: the TRUE count is a single number.
  struct Group {
    std::size_t first_index;
    std::set<unsigned> intersection;
    bool reported = false;
  };
  std::map<std::string, Group> groups;
  for (std::size_t ci = 0; ci < env.constraints().size(); ++ci) {
    const Constraint& c = env.constraints()[ci];
    if (c.soft()) continue;
    const std::string key = sorted_collection_key(c.collection());
    auto it = groups.find(key);
    if (it == groups.end()) {
      groups.emplace(key, Group{ci, c.selection(), false});
      continue;
    }
    Group& g = it->second;
    if (g.reported) continue;
    std::set<unsigned> merged;
    std::set_intersection(g.intersection.begin(), g.intersection.end(),
                          c.selection().begin(), c.selection().end(),
                          std::inserter(merged, merged.begin()));
    g.intersection = std::move(merged);
    if (g.intersection.empty()) {
      report.add(
          {Severity::kError, DiagCode::kContradictoryPair,
           DiagLocation::constraint_pair(
               g.first_index, ci,
               constraint_label(env, env.constraints()[g.first_index])),
           "hard constraints over the same collection have disjoint "
           "selection sets; no assignment can satisfy both",
           "drop one constraint or widen a selection set so they overlap"});
      g.reported = true;
    }
  }
}

/// NCK-P002: the fixpoint's first round, count propagation from the empty
/// assignment, already dies. Later rounds run only after pair mining has set
/// `needed_pairs`, so the contradictions they find are NCK-D003's.
void pass_propagation(const Env& env, const DataflowResult& flow,
                      AnalysisReport& report) {
  if (!flow.proved_unsat || flow.needed_pairs) return;
  const Constraint& c = env.constraints()[flow.unsat_constraint];
  report.add({Severity::kError, DiagCode::kInfeasibleByPropagation,
              DiagLocation::constraint(flow.unsat_constraint,
                                       constraint_label(env, c)),
              "no reachable TRUE count satisfies this constraint once values "
              "forced by the other hard constraints are propagated",
              "the hard-constraint conjunction is unsatisfiable; relax this "
              "constraint or one of those forcing its variables"});
}

void pass_variable_usage(const Env& env, AnalysisReport& report) {
  std::vector<bool> in_hard(env.num_vars(), false);
  std::vector<bool> in_soft(env.num_vars(), false);
  for (const Constraint& c : env.constraints()) {
    for (VarId v : c.collection()) {
      (c.soft() ? in_soft : in_hard)[v] = true;
    }
  }
  for (std::size_t v = 0; v < env.num_vars(); ++v) {
    if (!in_hard[v] && !in_soft[v]) {
      report.add({Severity::kWarning, DiagCode::kUnusedVariable,
                  DiagLocation::variable(v, env.var_name(static_cast<VarId>(v))),
                  "variable appears in no constraint; its value is arbitrary",
                  "remove the variable or constrain it"});
    } else if (!in_hard[v]) {
      report.add({Severity::kNote, DiagCode::kSoftOnlyVariable,
                  DiagLocation::variable(v, env.var_name(static_cast<VarId>(v))),
                  "variable is constrained only by soft constraints",
                  "if the variable must take a definite value, add a hard "
                  "constraint covering it"});
    }
  }
}

void pass_scale_separation(const Env& env, AnalysisReport& report) {
  if (env.num_hard() == 0 || env.num_soft() == 0) return;
  // compile() scales hard constraints by at least max_soft_energy + margin,
  // and each normalized soft constraint contributes at least 1 to that
  // bound, so the hard/soft coefficient ratio is at least num_soft + 1.
  const double hard_scale = static_cast<double>(env.num_soft()) + 1.0;
  const double soft_unit_after_norm = 1.0 / hard_scale;
  const double noise_floor = kDefaultIceSigma * kResolutionFactor;
  if (soft_unit_after_norm >= noise_floor) return;
  std::ostringstream msg;
  msg << "hard constraints must be scaled by >= " << hard_scale
      << " to dominate " << env.num_soft()
      << " soft constraints; after normalization one soft-energy unit ("
      << soft_unit_after_norm << ") falls below the annealer ICE noise floor ("
      << noise_floor << ")";
  report.add({Severity::kWarning, DiagCode::kScaleSeparation,
              DiagLocation::program(), msg.str(),
              "reduce the soft-constraint count, aggregate preferences into "
              "fewer constraints, or target the classical backend"});
}

/// When an infeasibility pass fired (NCK-P001/P002/D003), refine the single
/// reported constraint into a minimal unsatisfiable core so the user sees
/// the whole conflicting set at once.
void pass_unsat_core(const Env& env, AnalysisReport& report) {
  if (!report.has_code(DiagCode::kContradictoryPair) &&
      !report.has_code(DiagCode::kInfeasibleByPropagation) &&
      !report.has_code(DiagCode::kPresolveUnsat)) {
    return;
  }
  const UnsatCore core = extract_unsat_core(env);
  if (!core.found) return;
  std::ostringstream msg;
  msg << "minimal unsatisfiable core: these " << core.members.size()
      << " hard constraint(s) are jointly unsatisfiable, and dropping any "
         "single member restores feasibility";
  if (core.verified_minimal) {
    msg << " (minimality re-verified by deletion)";
  }
  report.add({Severity::kNote, DiagCode::kUnsatCore,
              DiagLocation::constraint_set(core.members), msg.str(),
              "relax or remove one constraint from this set"});
}

void pass_synth_budget(const Env& env, const SynthEngine& engine,
                       AnalysisReport& report) {
  const std::size_t budget = engine.general_var_budget();
  for (std::size_t ci = 0; ci < env.constraints().size(); ++ci) {
    const Constraint& c = env.constraints()[ci];
    const std::set<unsigned>& sel = c.selection();
    // Contiguous selection sets (including trivial and singleton) have a
    // closed-form QUBO of any width when the builtin path is on.
    const bool contiguous =
        sel.empty() || (*sel.rbegin() - *sel.begin() + 1 == sel.size());
    if (engine.builtin_enabled() && contiguous) continue;
    const std::size_t d = c.distinct_vars().size();
    if (d > budget) {
      std::ostringstream msg;
      msg << "constraint has " << d
          << " distinct variables, a non-contiguous selection set, and no "
             "closed form; the general synthesizers accept at most "
          << budget
          << " total variables (d + ancillas), so synthesis must fail";
      report.add({Severity::kError, DiagCode::kSynthBudgetExceeded,
                  DiagLocation::constraint(ci, constraint_label(env, c)),
                  msg.str(),
                  "split the constraint into narrower ones or rewrite its "
                  "selection set as a contiguous range"});
    } else if (d == budget) {
      std::ostringstream msg;
      msg << "constraint uses the entire " << budget
          << "-variable general-synthesis budget, leaving no room for "
             "ancillas; synthesis fails unless an ancilla-free QUBO exists";
      report.add({Severity::kWarning, DiagCode::kSynthBudgetExceeded,
                  DiagLocation::constraint(ci, constraint_label(env, c)),
                  msg.str(),
                  "narrow the constraint if synthesis fails with NCK-Q000"});
    }
  }
}

}  // namespace

std::string sorted_collection_key(const std::vector<VarId>& collection) {
  std::vector<VarId> sorted = collection;
  std::sort(sorted.begin(), sorted.end());
  std::ostringstream os;
  for (VarId v : sorted) os << v << ",";
  return os.str();
}

void analyze_program(const Env& env, const SynthEngine* engine,
                     bool scale_separation, AnalysisReport& report) {
  if (env.num_constraints() == 0) {
    report.add({Severity::kWarning, DiagCode::kEmptyProgram,
                DiagLocation::program(),
                "program has no constraints; every assignment is optimal",
                "add constraints before dispatching to a backend"});
    return;
  }
  pass_tautology(env, report);
  pass_duplicates(env, report);
  pass_contradictory_pairs(env, report);
  const DataflowResult flow = solve_dataflow(env);
  pass_propagation(env, flow, report);
  pass_presolve_lint(env, flow, report);
  pass_unsat_core(env, report);
  pass_variable_usage(env, report);
  if (engine) pass_synth_budget(env, *engine, report);
  if (scale_separation) pass_scale_separation(env, report);
}

}  // namespace nck
