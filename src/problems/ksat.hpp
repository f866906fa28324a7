// k-SAT (Section VI-A-f), with both NchooseK encodings the paper discusses:
//
//  * dual-rail: every variable x gets a companion !x with hard
//    nck({x, !x}, {1}); each clause of k literals becomes
//    nck({lit_1..lit_k}, {1..k}) over the rail matching each literal's sign
//    — two non-symmetric constraint classes, 2n variables;
//
//  * repeated-variable: one constraint per clause, no companion variables.
//    For a clause with p positive and q negated literals, positive literals
//    get multiplicity q+1 and negated ones multiplicity 1; the weighted
//    count equals q exactly when the clause is falsified, so the selection
//    set is everything except q. (The paper prints the q=1 instance of this
//    trick with a typo — see tests/test_synth.cpp.)
#pragma once

#include <optional>
#include <vector>

#include "qubo/qubo.hpp"
#include "core/env.hpp"
#include "util/rng.hpp"

namespace nck {

struct Literal {
  std::uint32_t var = 0;
  bool negated = false;
};

struct KSatInstance {
  std::size_t num_vars = 0;
  std::vector<std::vector<Literal>> clauses;

  bool clause_satisfied(std::size_t c, const std::vector<bool>& x) const;
  bool satisfied(const std::vector<bool>& x) const;
  std::size_t num_satisfied(const std::vector<bool>& x) const;
};

/// Random k-SAT with a planted satisfying assignment (every clause is
/// checked against the plant and fixed up, so the instance is satisfiable).
KSatInstance random_ksat(std::size_t num_vars, std::size_t num_clauses,
                         std::size_t k, Rng& rng);

struct KSatProblem {
  KSatInstance instance;

  /// Dual-rail encoding. Variables [0, n) are the originals; [n, 2n) the
  /// negated companions.
  Env encode_dual_rail() const;

  /// Repeated-variable encoding over exactly n variables.
  Env encode_repeated() const;

  /// Checks an assignment over the first num_vars variables.
  bool verify(const std::vector<bool>& assignment) const;

  /// The handcrafted comparator the paper cites (Section VI-A-f): translate
  /// to Maximum Independent Set over one node per literal *occurrence*
  /// (k*m variables): clique edges within each clause, conflict edges
  /// between every x / !x occurrence pair, MIS objective -sum x + 2 sum
  /// over edges. The instance is satisfiable iff the QUBO minimum is -m.
  /// Worst case O(k m^2 + k^2 m) terms — the Table I entry.
  Qubo handcrafted_mis_qubo() const;

  /// Decodes a ground state of handcrafted_mis_qubo back to a variable
  /// assignment (std::nullopt if the selection is not a size-m independent
  /// set, i.e. the instance looks unsatisfiable).
  std::optional<std::vector<bool>> decode_mis(
      const std::vector<bool>& mis_selection) const;
};

}  // namespace nck
