#include "analysis/reduce/lint.hpp"

#include <sstream>
#include <string>

#include "analysis/dataflow/dataflow.hpp"
#include "analysis/reduce/reduce.hpp"

namespace nck {

void pass_presolve_lint(const Env& env, const DataflowResult& flow,
                        AnalysisReport& report) {
  if (flow.proved_unsat) {
    // NCK-P001/P002 already report the simple shapes; NCK-D003 covers the
    // contradictions only the pair-fact fixpoint can see.
    if (!report.has_code(DiagCode::kContradictoryPair) &&
        !report.has_code(DiagCode::kInfeasibleByPropagation)) {
      const Constraint& c1 = env.constraints()[flow.unsat_constraint];
      DiagLocation loc =
          flow.pair_witness && flow.unsat_constraint != flow.unsat_constraint2
              ? DiagLocation::constraint_pair(flow.unsat_constraint,
                                              flow.unsat_constraint2,
                                              constraint_label(env, c1))
              : DiagLocation::constraint(flow.unsat_constraint,
                                         constraint_label(env, c1));
      report.add(
          {Severity::kError, DiagCode::kPresolveUnsat, std::move(loc),
           "the dataflow fixpoint (count propagation plus pairwise "
           "constraint-intersection facts) proves the hard constraints "
           "jointly unsatisfiable",
           "relax one of the witnessed constraints; `nck_cli simplify` "
           "shows the contradiction"});
    }
    return;  // forced-value notes from a contradicted run would be noise
  }

  for (std::size_t v = 0; v < env.num_vars(); ++v) {
    if (flow.values[v] == ForcedValue::kUnknown) continue;
    const bool value = flow.values[v] == ForcedValue::kTrue;
    report.add({Severity::kNote, DiagCode::kForcedVariable,
                DiagLocation::variable(v, env.var_name(static_cast<VarId>(v))),
                std::string("hard constraints force this variable ") +
                    (value ? "TRUE" : "FALSE") +
                    "; presolve substitutes the value and removes it",
                "run `nck_cli simplify` to see the reduced program"});
  }

  for (const Subsumption& s : find_hard_subsumptions(env)) {
    if (s.duplicate) continue;  // exact repeats are NCK-P006's territory
    const Constraint& c = env.constraints()[s.removed];
    std::ostringstream msg;
    msg << "constraint is implied by constraint #" << s.by
        << " (same collection, tighter selection set); presolve removes it";
    report.add({Severity::kNote, DiagCode::kSubsumedConstraint,
                DiagLocation::constraint_pair(s.removed, s.by,
                                              constraint_label(env, c)),
                msg.str(),
                "drop the weaker constraint; it never changes the feasible "
                "set"});
  }

  const std::size_t components = constraint_components(env).size();
  if (components >= 2) {
    std::ostringstream msg;
    msg << "program splits into " << components
        << " independent sub-programs sharing no variables";
    report.add({Severity::kNote, DiagCode::kIndependentComponents,
                DiagLocation::program(), msg.str(),
                "the components can be solved separately; presolve records "
                "the partition"});
  }
}

}  // namespace nck
