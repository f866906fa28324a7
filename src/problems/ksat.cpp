#include "problems/ksat.hpp"

#include <algorithm>
#include <set>
#include <stdexcept>

namespace nck {

bool KSatInstance::clause_satisfied(std::size_t c,
                                    const std::vector<bool>& x) const {
  for (const Literal& lit : clauses[c]) {
    if (x[lit.var] != lit.negated) return true;
  }
  return false;
}

bool KSatInstance::satisfied(const std::vector<bool>& x) const {
  for (std::size_t c = 0; c < clauses.size(); ++c) {
    if (!clause_satisfied(c, x)) return false;
  }
  return true;
}

std::size_t KSatInstance::num_satisfied(const std::vector<bool>& x) const {
  std::size_t n = 0;
  for (std::size_t c = 0; c < clauses.size(); ++c) {
    if (clause_satisfied(c, x)) ++n;
  }
  return n;
}

namespace {

std::vector<Literal> random_clause(std::size_t num_vars, std::size_t k,
                                   Rng& rng) {
  // k distinct variables, random signs.
  std::set<std::uint32_t> vars;
  while (vars.size() < k) {
    vars.insert(static_cast<std::uint32_t>(rng.below(num_vars)));
  }
  std::vector<Literal> clause;
  for (std::uint32_t v : vars) clause.push_back({v, rng.bernoulli(0.5)});
  return clause;
}

}  // namespace

KSatInstance random_ksat(std::size_t num_vars, std::size_t num_clauses,
                         std::size_t k, Rng& rng) {
  if (k == 0 || k > num_vars) throw std::invalid_argument("random_ksat: bad k");
  std::vector<bool> plant(num_vars);
  for (std::size_t i = 0; i < num_vars; ++i) plant[i] = rng.bernoulli(0.5);
  KSatInstance instance;
  instance.num_vars = num_vars;
  while (instance.clauses.size() < num_clauses) {
    auto clause = random_clause(num_vars, k, rng);
    // Fix up clauses the plant falsifies by flipping one literal's sign.
    bool satisfied = false;
    for (const Literal& lit : clause) {
      if (plant[lit.var] != lit.negated) {
        satisfied = true;
        break;
      }
    }
    if (!satisfied) {
      auto& lit = clause[rng.below(clause.size())];
      lit.negated = !lit.negated;
    }
    instance.clauses.push_back(std::move(clause));
  }
  return instance;
}

Env KSatProblem::encode_dual_rail() const {
  Env env;
  const std::size_t n = instance.num_vars;
  const auto pos = env.new_vars(n, "x");
  const auto neg = env.new_vars(n, "nx");
  for (std::size_t i = 0; i < n; ++i) env.different(pos[i], neg[i]);
  for (const auto& clause : instance.clauses) {
    std::vector<VarId> collection;
    for (const Literal& lit : clause) {
      collection.push_back(lit.negated ? neg[lit.var] : pos[lit.var]);
    }
    env.at_least(collection, 1);
  }
  return env;
}

Env KSatProblem::encode_repeated() const {
  Env env;
  const auto vars = env.new_vars(instance.num_vars, "x");
  for (const auto& clause : instance.clauses) {
    std::size_t q = 0;  // number of negated literals
    for (const Literal& lit : clause) {
      if (lit.negated) ++q;
    }
    std::vector<VarId> collection;
    for (const Literal& lit : clause) {
      const std::size_t mult = lit.negated ? 1 : q + 1;
      for (std::size_t m = 0; m < mult; ++m) {
        collection.push_back(vars[lit.var]);
      }
    }
    // Weighted count == q exactly when all positives are FALSE and all
    // negated are TRUE (the falsifying assignment); allow everything else.
    std::set<unsigned> selection;
    for (unsigned s = 0; s <= collection.size(); ++s) {
      if (s != q) selection.insert(s);
    }
    env.nck(collection, selection);
  }
  return env;
}

Qubo KSatProblem::handcrafted_mis_qubo() const {
  // Node layout: occurrence j of clause c gets index offset[c] + j.
  std::vector<std::size_t> offset;
  std::size_t total = 0;
  for (const auto& clause : instance.clauses) {
    offset.push_back(total);
    total += clause.size();
  }
  Qubo q(total);
  constexpr double kPenalty = 2.0;  // > 1 so the MIS objective dominates
  for (std::size_t c = 0; c < instance.clauses.size(); ++c) {
    const auto& clause = instance.clauses[c];
    for (std::size_t j = 0; j < clause.size(); ++j) {
      const auto node = static_cast<Qubo::Var>(offset[c] + j);
      q.add_linear(node, -1.0);
      // Clique within the clause: pick at most one literal per clause.
      for (std::size_t j2 = j + 1; j2 < clause.size(); ++j2) {
        q.add_quadratic(node, static_cast<Qubo::Var>(offset[c] + j2),
                        kPenalty);
      }
      // Conflicts with opposite-sign occurrences in other clauses.
      for (std::size_t c2 = c + 1; c2 < instance.clauses.size(); ++c2) {
        const auto& clause2 = instance.clauses[c2];
        for (std::size_t j2 = 0; j2 < clause2.size(); ++j2) {
          if (clause[j].var == clause2[j2].var &&
              clause[j].negated != clause2[j2].negated) {
            q.add_quadratic(node, static_cast<Qubo::Var>(offset[c2] + j2),
                            kPenalty);
          }
        }
      }
    }
  }
  return q;
}

std::optional<std::vector<bool>> KSatProblem::decode_mis(
    const std::vector<bool>& mis_selection) const {
  std::vector<int> value(instance.num_vars, -1);
  std::size_t node = 0;
  std::size_t picked = 0;
  for (const auto& clause : instance.clauses) {
    for (const Literal& lit : clause) {
      if (node < mis_selection.size() && mis_selection[node]) {
        ++picked;
        const int want = lit.negated ? 0 : 1;
        if (value[lit.var] != -1 && value[lit.var] != want) {
          return std::nullopt;  // conflicting picks: not independent
        }
        value[lit.var] = want;
      }
      ++node;
    }
  }
  if (picked != instance.clauses.size()) return std::nullopt;
  std::vector<bool> assignment(instance.num_vars);
  for (std::size_t v = 0; v < instance.num_vars; ++v) {
    assignment[v] = value[v] == 1;  // unconstrained variables default FALSE
  }
  if (!instance.satisfied(assignment)) return std::nullopt;
  return assignment;
}

bool KSatProblem::verify(const std::vector<bool>& assignment) const {
  std::vector<bool> x(assignment.begin(),
                      assignment.begin() +
                          static_cast<std::ptrdiff_t>(instance.num_vars));
  return instance.satisfied(x);
}

}  // namespace nck
