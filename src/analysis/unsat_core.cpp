#include "analysis/unsat_core.hpp"

#include "analysis/dataflow/dataflow.hpp"
#include "analysis/program_passes.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <string>

namespace nck {

namespace {

/// Sub-program containing the same variables but only the chosen (hard)
/// constraints. Variable ids are preserved, so propagation results map
/// directly back to the original program.
Env subset_env(const Env& env, const std::vector<std::size_t>& subset) {
  Env sub;
  for (const std::string& name : env.var_names()) sub.new_var(name);
  for (std::size_t i : subset) {
    const Constraint& c = env.constraints()[i];
    if (c.soft()) continue;
    sub.nck(c.collection(), c.selection(), ConstraintKind::kHard);
  }
  return sub;
}

/// Two hard constraints over the same collection with an empty selection
/// intersection (the NCK-P001 condition), restricted to `subset`.
bool has_disjoint_pair(const Env& env, const std::vector<std::size_t>& subset) {
  std::map<std::string, std::set<unsigned>> intersections;
  for (std::size_t i : subset) {
    const Constraint& c = env.constraints()[i];
    if (c.soft()) continue;
    auto [it, inserted] = intersections.emplace(
        sorted_collection_key(c.collection()), c.selection());
    if (inserted) continue;
    std::set<unsigned> merged;
    std::set_intersection(it->second.begin(), it->second.end(),
                          c.selection().begin(), c.selection().end(),
                          std::inserter(merged, merged.begin()));
    it->second = std::move(merged);
    if (it->second.empty()) return true;
  }
  return false;
}

}  // namespace

bool oracle_infeasible(const Env& env, const std::vector<std::size_t>& subset) {
  // Three monotone infeasibility checks, weakest first. Monotonicity in
  // constraint inclusion (adding constraints can only shrink selection
  // intersections, add forced values, and narrow pair masks) is what makes
  // the deletion sweep in extract_unsat_core yield a genuine minimal core.
  if (has_disjoint_pair(env, subset)) return true;
  return solve_dataflow(subset_env(env, subset)).proved_unsat;
}

UnsatCore extract_unsat_core(const Env& env) {
  UnsatCore core;
  std::vector<std::size_t> candidate;
  for (std::size_t i = 0; i < env.constraints().size(); ++i) {
    if (!env.constraints()[i].soft()) candidate.push_back(i);
  }
  if (!oracle_infeasible(env, candidate)) return core;

  // Deletion pass: drop each member whose removal keeps the set infeasible.
  // With a monotone oracle one sweep suffices for minimality.
  for (std::size_t pos = 0; pos < candidate.size();) {
    std::vector<std::size_t> without = candidate;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(pos));
    if (oracle_infeasible(env, without)) {
      candidate = std::move(without);  // member was redundant
    } else {
      ++pos;  // member is necessary; keep it
    }
  }

  core.found = true;
  core.members = std::move(candidate);
  // Re-verify minimality member by member rather than trusting the sweep.
  core.verified_minimal = true;
  for (std::size_t pos = 0; pos < core.members.size(); ++pos) {
    std::vector<std::size_t> without = core.members;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(pos));
    if (oracle_infeasible(env, without)) {
      core.verified_minimal = false;
      break;
    }
  }
  return core;
}

}  // namespace nck
