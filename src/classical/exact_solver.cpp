#include "classical/exact_solver.hpp"

#include <algorithm>
#include <stdexcept>

namespace nck {
namespace {

// Per-constraint bookkeeping during search. `true_weight` counts assigned
// TRUE occurrences (with multiplicity); `free_weight` counts unassigned
// occurrences. A hard constraint is *dead* when no selection value lies in
// [true_weight, true_weight + free_weight] (a sound relaxation: multiplicity
// gaps only make us prune less, never wrongly).
struct ConstraintState {
  unsigned true_weight = 0;
  unsigned free_weight = 0;
};

class Search {
 public:
  explicit Search(const Env& env) : env_(env) {
    const auto& constraints = env.constraints();
    states_.resize(constraints.size());
    occurrences_.resize(env.num_vars());
    for (std::size_t c = 0; c < constraints.size(); ++c) {
      states_[c].free_weight =
          static_cast<unsigned>(constraints[c].collection().size());
      for (VarId v : constraints[c].collection()) {
        // One entry per occurrence; repeated variables appear repeatedly,
        // which is exactly the multiplicity weight we need.
        occurrences_[v].push_back(c);
      }
      if (constraints[c].soft()) ++soft_total_;
    }
    assignment_.assign(env.num_vars(), -1);

    // Branch on variables in descending occurrence count (most constrained
    // first), which empirically shrinks the tree substantially.
    order_.resize(env.num_vars());
    for (std::size_t i = 0; i < order_.size(); ++i) {
      order_[i] = static_cast<VarId>(i);
    }
    std::sort(order_.begin(), order_.end(), [&](VarId a, VarId b) {
      return occurrences_[a].size() > occurrences_[b].size();
    });
  }

  ClassicalSolution run() {
    best_violated_ = soft_total_ + 1;  // sentinel: nothing found yet
    dfs(0, 0);
    ClassicalSolution solution;
    solution.soft_total = soft_total_;
    solution.nodes_explored = nodes_;
    if (best_violated_ <= soft_total_) {
      solution.feasible = true;
      solution.assignment = best_assignment_;
      solution.soft_satisfied = soft_total_ - best_violated_;
    }
    return solution;
  }

 private:
  // Returns the lowest possible / highest possible satisfied status of a
  // constraint: 0 = definitely violated, 1 = definitely satisfied,
  // -1 = still open.
  int status(std::size_t c) const {
    const auto& sel = env_.constraints()[c].selection();
    const unsigned lo = states_[c].true_weight;
    const unsigned hi = lo + states_[c].free_weight;
    if (states_[c].free_weight == 0) return sel.count(lo) ? 1 : 0;
    // Any selection value within [lo, hi] keeps it open.
    auto it = sel.lower_bound(lo);
    if (it == sel.end() || *it > hi) return 0;
    return -1;
  }

  void apply(VarId v, bool value) {
    assignment_[v] = value ? 1 : 0;
    for (std::size_t c : occurrences_[v]) {
      --states_[c].free_weight;
      if (value) ++states_[c].true_weight;
    }
  }

  void undo(VarId v, bool value) {
    assignment_[v] = -1;
    for (std::size_t c : occurrences_[v]) {
      ++states_[c].free_weight;
      if (value) --states_[c].true_weight;
    }
  }

  void dfs(std::size_t depth, std::size_t soft_violated) {
    ++nodes_;
    if (soft_violated >= best_violated_) return;  // bound

    // Feasibility/bound check over all constraints. Hard: prune when dead.
    // Soft: count constraints that can no longer be satisfied.
    std::size_t dead_soft = 0;
    for (std::size_t c = 0; c < states_.size(); ++c) {
      const int s = status(c);
      if (s != 0) continue;
      if (env_.constraints()[c].soft()) {
        ++dead_soft;
      } else {
        return;  // a hard constraint is dead on this branch
      }
    }
    if (dead_soft >= best_violated_) return;

    if (depth == order_.size()) {
      best_violated_ = dead_soft;
      best_assignment_.resize(assignment_.size());
      for (std::size_t i = 0; i < assignment_.size(); ++i) {
        best_assignment_[i] = assignment_[i] == 1;
      }
      return;
    }

    const VarId v = order_[depth];
    for (bool value : {false, true}) {
      apply(v, value);
      dfs(depth + 1, dead_soft);
      undo(v, value);
    }
  }

  const Env& env_;
  std::vector<ConstraintState> states_;
  std::vector<std::vector<std::size_t>> occurrences_;
  std::vector<int> assignment_;  // -1 unassigned / 0 / 1
  std::vector<VarId> order_;
  std::size_t soft_total_ = 0;
  std::size_t best_violated_ = 0;
  std::vector<bool> best_assignment_;
  std::size_t nodes_ = 0;
};

}  // namespace

ClassicalSolution solve_exact(const Env& env) {
  return Search(env).run();
}

ClassicalSolution solve_brute_force(const Env& env) {
  const std::size_t n = env.num_vars();
  if (n > 25) {
    throw std::invalid_argument("solve_brute_force: too many variables");
  }
  ClassicalSolution solution;
  solution.soft_total = env.num_soft();
  std::size_t best_soft = 0;
  bool found = false;
  std::vector<bool> x(n);
  for (std::uint64_t bits = 0; bits < (1ull << n); ++bits) {
    for (std::size_t i = 0; i < n; ++i) x[i] = (bits >> i) & 1u;
    const Evaluation e = env.evaluate(x);
    ++solution.nodes_explored;
    if (!e.feasible()) continue;
    if (!found || e.soft_satisfied > best_soft) {
      found = true;
      best_soft = e.soft_satisfied;
      solution.assignment = x;
    }
  }
  solution.feasible = found;
  solution.soft_satisfied = best_soft;
  return solution;
}

}  // namespace nck
