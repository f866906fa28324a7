#include "decompose/decompose.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>

#include "analysis/interaction.hpp"
#include "graph/graph.hpp"

namespace nck::decompose {

namespace {

// Greedy cost-bounded growth of one part inside an oversized component.
// Charges 1 per program variable plus the ancillas of every constraint the
// part touches (each constraint at most once per part), and always extends
// by the cheapest frontier variable (ties to the lowest id) so the cut
// tracks the QUBO budget, not just the variable count.
class PartBuilder {
 public:
  PartBuilder(const Graph& g,
              const std::vector<std::vector<Occurrence>>& var_constraints,
              const std::vector<std::size_t>& ancillas,
              std::vector<bool>& assigned, std::size_t budget)
      : g_(g),
        var_constraints_(var_constraints),
        ancillas_(ancillas),
        assigned_(assigned),
        budget_(budget),
        constraint_counted_(ancillas.size(), false) {}

  // Cost of adding `v` on top of the current part: the variable itself plus
  // every not-yet-charged constraint it touches.
  std::size_t marginal(VarId v) const {
    std::size_t m = 1;
    for (const Occurrence& o : var_constraints_[v]) {
      if (!constraint_counted_[o.constraint]) m += ancillas_[o.constraint];
    }
    return m;
  }

  void add(VarId v) {
    part_.push_back(v);
    cost_ += marginal(v);
    assigned_[v] = true;
    for (const Occurrence& o : var_constraints_[v]) {
      constraint_counted_[o.constraint] = true;
    }
    for (Graph::Vertex w : g_.neighbors(static_cast<Graph::Vertex>(v))) {
      if (!assigned_[w] && !in_frontier_[w]) {
        in_frontier_[w] = true;
        frontier_.push_back(static_cast<VarId>(w));
      }
    }
  }

  // Cheapest affordable frontier variable, or nullopt when the budget is
  // exhausted (or the frontier is empty).
  std::optional<VarId> next() {
    std::erase_if(frontier_, [&](VarId v) { return assigned_[v]; });
    VarId best = 0;
    std::size_t best_cost = std::numeric_limits<std::size_t>::max();
    for (VarId v : frontier_) {
      const std::size_t m = marginal(v);
      if (m < best_cost || (m == best_cost && v < best)) {
        best_cost = m;
        best = v;
      }
    }
    if (best_cost == std::numeric_limits<std::size_t>::max() ||
        cost_ + best_cost > budget_) {
      return std::nullopt;
    }
    return best;
  }

  std::vector<VarId> take() {
    std::sort(part_.begin(), part_.end());
    return std::move(part_);
  }

  void reserve_frontier(std::size_t n) { in_frontier_.assign(n, false); }

 private:
  const Graph& g_;
  const std::vector<std::vector<Occurrence>>& var_constraints_;
  const std::vector<std::size_t>& ancillas_;
  std::vector<bool>& assigned_;
  std::size_t budget_;
  std::vector<bool> constraint_counted_;
  std::vector<bool> in_frontier_;
  std::vector<VarId> part_;
  std::vector<VarId> frontier_;
  std::size_t cost_ = 0;
};

}  // namespace

Partition plan_partition(const Env& env, std::size_t max_qubo_vars,
                         SynthEngine* engine) {
  if (max_qubo_vars == 0) {
    throw std::invalid_argument("plan_partition: max_qubo_vars == 0");
  }
  const std::size_t n = env.num_vars();
  const Graph g = variable_interaction_graph(env);

  // Per-constraint ancilla estimate (0 without an engine) and the
  // var -> touching-constraints incidence the cost model charges against.
  const auto& constraints = env.constraints();
  std::vector<std::size_t> ancillas(constraints.size(), 0);
  if (engine != nullptr) {
    for (std::size_t ci = 0; ci < constraints.size(); ++ci) {
      ancillas[ci] = engine->synthesize(constraints[ci].pattern()).num_ancillas;
    }
  }
  const std::vector<std::vector<Occurrence>> var_constraints = env.incidence();

  Partition plan;
  if (n == 0) return plan;

  // Components (a constraint's variables form a clique, so every constraint
  // lives inside exactly one component).
  UnionFind uf(n);
  for (const auto& [u, v] : g.edges()) uf.unite(u, v);
  plan.components = uf.num_sets();

  std::vector<std::vector<VarId>> component_vars;
  {
    std::vector<std::size_t> comp_index(n, n);
    for (std::size_t v = 0; v < n; ++v) {
      const std::size_t root = uf.find(v);
      if (comp_index[root] == n) {
        comp_index[root] = component_vars.size();
        component_vars.emplace_back();
      }
      component_vars[comp_index[root]].push_back(static_cast<VarId>(v));
    }
  }

  // Whole components within budget pack together first-fit (component costs
  // are additive across a part: constraints never straddle components).
  // Oversized components are split by cheapest-frontier growth.
  std::vector<std::vector<VarId>> packed;
  std::vector<std::size_t> packed_cost;
  std::vector<bool> assigned(n, false);
  for (const std::vector<VarId>& comp : component_vars) {
    std::size_t comp_cost = comp.size();
    std::vector<bool> counted(constraints.size(), false);
    for (VarId v : comp) {
      for (const Occurrence& o : var_constraints[v]) {
        if (!counted[o.constraint]) {
          counted[o.constraint] = true;
          comp_cost += ancillas[o.constraint];
        }
      }
    }
    if (comp_cost <= max_qubo_vars) {
      bool placed = false;
      for (std::size_t p = 0; p < packed.size(); ++p) {
        if (packed_cost[p] + comp_cost <= max_qubo_vars) {
          packed[p].insert(packed[p].end(), comp.begin(), comp.end());
          packed_cost[p] += comp_cost;
          placed = true;
          break;
        }
      }
      if (!placed) {
        packed.push_back(comp);
        packed_cost.push_back(comp_cost);
      }
      continue;
    }
    // Split: seeds advance in ascending id; each part grows by the
    // cheapest frontier variable until the budget binds. A seed whose own
    // cost exceeds the budget still becomes a (singleton) part.
    for (VarId seed : comp) {
      if (assigned[seed]) continue;
      PartBuilder builder(g, var_constraints, ancillas, assigned,
                          max_qubo_vars);
      builder.reserve_frontier(n);
      builder.add(seed);
      while (auto v = builder.next()) builder.add(*v);
      plan.parts.push_back(builder.take());
    }
  }
  for (std::vector<VarId>& part : packed) {
    std::sort(part.begin(), part.end());
    plan.parts.push_back(std::move(part));
  }
  std::sort(plan.parts.begin(), plan.parts.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return plan;
}

Subproblem clamp_to_incumbent(const Env& env, const std::vector<VarId>& part,
                              const std::vector<bool>& incumbent) {
  Subproblem sub;
  sub.vars = part;
  // remap[v] = sub-space id of free variable v, or the sentinel for clamped.
  constexpr VarId kClamped = static_cast<VarId>(-1);
  std::vector<VarId> remap(env.num_vars(), kClamped);
  for (VarId v : part) {
    remap[v] = sub.env.new_var(env.var_name(v));
  }

  for (const Constraint& c : env.constraints()) {
    // Split the collection into free members (remapped, multiplicity kept)
    // and the clamped-TRUE multiplicity t.
    unsigned clamped_true = 0;
    std::vector<VarId> free_members;
    for (VarId v : c.collection()) {
      if (remap[v] != kClamped) {
        free_members.push_back(remap[v]);
      } else if (incumbent[v]) {
        ++clamped_true;
      }
    }

    if (free_members.empty()) {
      // Decided entirely by the boundary.
      const bool satisfied = c.selection().count(clamped_true) > 0;
      if (c.soft()) {
        ++(satisfied ? sub.clamped_soft_satisfied : sub.clamped_soft_violated);
      } else if (!satisfied) {
        ++sub.clamped_hard_violated;
      }
      continue;
    }

    // Conditional selection set: counts the free collection can still hit.
    std::set<unsigned> selection;
    for (unsigned s : c.selection()) {
      if (s >= clamped_true && s - clamped_true <= free_members.size()) {
        selection.insert(s - clamped_true);
      }
    }
    if (selection.empty()) {
      // No free count satisfies the constraint given the boundary.
      if (c.soft()) {
        ++sub.clamped_soft_violated;
      } else {
        ++sub.clamped_hard_violated;
      }
      continue;
    }
    if (selection.size() == free_members.size() + 1) {
      // Every free count satisfies it: a tautology of the conditional
      // program (selection is exactly {0..|free|} since values are clamped
      // to that range above).
      if (c.soft()) ++sub.clamped_soft_satisfied;
      continue;
    }
    sub.env.nck(std::move(free_members), std::move(selection), c.kind());
  }
  return sub;
}

std::vector<bool> polish_assignment(const Env& env, std::vector<bool> start,
                                    std::size_t max_iters) {
  const std::size_t n = env.num_vars();
  start.resize(n, false);
  const auto& constraints = env.constraints();
  if (n == 0 || max_iters == 0 || constraints.empty()) return start;

  const std::vector<std::vector<Occurrence>> touching = env.incidence();
  // Scalar objective mirroring `improves`: every violated hard constraint
  // outweighs all soft constraints together.
  const long long kHardWeight = static_cast<long long>(env.num_soft()) + 1;
  const auto violation_cost = [&](std::size_t ci, unsigned k) -> long long {
    const Constraint& c = constraints[ci];
    if (c.selection().count(k) > 0) return 0;
    return c.soft() ? 1 : kHardWeight;
  };

  std::vector<unsigned> count(constraints.size(), 0);
  long long energy = 0;
  for (std::size_t ci = 0; ci < constraints.size(); ++ci) {
    for (VarId v : constraints[ci].collection()) {
      if (start[v]) ++count[ci];
    }
    energy += violation_cost(ci, count[ci]);
  }
  const auto delta = [&](std::size_t v) -> long long {
    long long d = 0;
    for (const auto& [ci, m] : touching[v]) {
      const unsigned k = count[ci];
      const unsigned flipped = start[v] ? k - m : k + m;
      d += violation_cost(ci, flipped) - violation_cost(ci, k);
    }
    return d;
  };
  const auto flip = [&](std::size_t v, long long d) {
    for (const auto& [ci, m] : touching[v]) {
      count[ci] = start[v] ? count[ci] - m : count[ci] + m;
    }
    start[v] = !start[v];
    energy += d;
  };

  std::vector<bool> best = start;
  long long best_energy = energy;
  const std::size_t tenure = std::min<std::size_t>(20, n / 4) + 1;
  const std::size_t stall_iters = max_iters / 4 + 1;
  std::vector<std::size_t> tabu_until(n, 0);
  std::size_t stall = 0;
  for (std::size_t iter = 1; iter <= max_iters && stall < stall_iters;
       ++iter) {
    std::size_t move = n;
    long long move_delta = 0;
    for (std::size_t v = 0; v < n; ++v) {
      const long long d = delta(v);
      const bool tabu = tabu_until[v] >= iter;
      if (tabu && energy + d >= best_energy) continue;
      if (move == n || d < move_delta) {
        move = v;
        move_delta = d;
      }
    }
    if (move == n) break;
    flip(move, move_delta);
    tabu_until[move] = iter + tenure;
    if (energy < best_energy) {
      best_energy = energy;
      best = start;
      stall = 0;
    } else {
      ++stall;
    }
  }
  return best;
}

bool improves(const Evaluation& candidate,
              const Evaluation& incumbent) noexcept {
  if (candidate.hard_violated != incumbent.hard_violated) {
    return candidate.hard_violated < incumbent.hard_violated;
  }
  return candidate.soft_satisfied > incumbent.soft_satisfied;
}

}  // namespace nck::decompose
