// The NchooseK environment: variables plus a conjunction of hard and soft
// constraints (a "generalized NchooseK program", Definition 6). This is the
// primary user-facing type of the library; problem encoders in
// src/problems build Envs, and backends in src/runtime execute them.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/constraint.hpp"

namespace nck {

/// Per-assignment evaluation of a program (used for Definition 8
/// classification and by the classical solvers).
struct Evaluation {
  std::size_t hard_violated = 0;
  std::size_t soft_satisfied = 0;
  std::size_t soft_total = 0;

  bool feasible() const noexcept { return hard_violated == 0; }
};

/// One entry of a variable's incidence list: the variable occurs
/// `multiplicity` times in the collection of constraint `constraint`.
struct Occurrence {
  std::size_t constraint = 0;
  unsigned multiplicity = 0;
};

class Env {
 public:
  Env() = default;

  /// Creates a fresh variable. Anonymous variables get a generated name.
  VarId new_var(std::string name = "");

  /// Creates `count` fresh variables named `<prefix>0 .. <prefix>{count-1}`
  /// (or anonymous when prefix is empty).
  std::vector<VarId> new_vars(std::size_t count, const std::string& prefix = "");

  /// Returns the variable with the given name, creating it on first use.
  VarId var(const std::string& name);

  std::size_t num_vars() const noexcept { return names_.size(); }
  const std::string& var_name(VarId v) const { return names_.at(v); }
  const std::vector<std::string>& var_names() const noexcept { return names_; }

  /// Adds nck(collection, selection) — hard by default, soft on request.
  /// Validates ids and the selection set eagerly.
  void nck(std::vector<VarId> collection, std::set<unsigned> selection,
           ConstraintKind kind = ConstraintKind::kHard);

  // Convenience constraint builders --------------------------------------

  /// Exactly k of the collection must be TRUE.
  void exactly(std::vector<VarId> collection, unsigned k,
               ConstraintKind kind = ConstraintKind::kHard);
  /// At least k must be TRUE.
  void at_least(std::vector<VarId> collection, unsigned k,
                ConstraintKind kind = ConstraintKind::kHard);
  /// At most k must be TRUE.
  void at_most(std::vector<VarId> collection, unsigned k,
               ConstraintKind kind = ConstraintKind::kHard);
  /// All of the collection must be TRUE.
  void all_true(std::vector<VarId> collection,
                ConstraintKind kind = ConstraintKind::kHard);
  /// All of the collection must be FALSE.
  void all_false(std::vector<VarId> collection,
                 ConstraintKind kind = ConstraintKind::kHard);
  /// a and b must differ.
  void different(VarId a, VarId b, ConstraintKind kind = ConstraintKind::kHard);
  /// a and b must be equal.
  void same(VarId a, VarId b, ConstraintKind kind = ConstraintKind::kHard);
  /// Soft preference that v be FALSE (the minimization idiom of Section IV-C).
  void prefer_false(VarId v);
  /// Soft preference that v be TRUE (the maximization idiom).
  void prefer_true(VarId v);

  // Introspection ---------------------------------------------------------

  const std::vector<Constraint>& constraints() const noexcept {
    return constraints_;
  }
  std::size_t num_constraints() const noexcept { return constraints_.size(); }
  std::size_t num_hard() const noexcept { return num_hard_; }
  std::size_t num_soft() const noexcept {
    return constraints_.size() - num_hard_;
  }

  /// Number of mutually non-symmetric constraint classes (Definition 7):
  /// constraints grouped by (hardness, cardinality, selection set).
  std::size_t num_nonsymmetric() const;

  /// Evaluates an assignment over all constraints.
  Evaluation evaluate(const std::vector<bool>& assignment) const;

  /// Per variable, the constraints it occurs in (ascending index) with its
  /// multiplicity in each: flipping v moves every listed constraint's TRUE
  /// count by that multiplicity. The incremental counterpart of evaluate(),
  /// for walks that flip one variable at a time.
  std::vector<std::vector<Occurrence>> incidence() const;

  /// Multi-line rendering of the whole program.
  std::string to_string() const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, VarId> by_name_;
  std::vector<Constraint> constraints_;
  std::size_t num_hard_ = 0;
};

}  // namespace nck
