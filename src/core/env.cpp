#include "core/env.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <stdexcept>

namespace nck {

VarId Env::new_var(std::string name) {
  const VarId id = static_cast<VarId>(names_.size());
  if (name.empty()) name = "_v" + std::to_string(id);
  if (by_name_.count(name)) {
    throw std::invalid_argument("Env::new_var: duplicate name '" + name + "'");
  }
  by_name_.emplace(name, id);
  names_.push_back(std::move(name));
  return id;
}

std::vector<VarId> Env::new_vars(std::size_t count, const std::string& prefix) {
  std::vector<VarId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ids.push_back(new_var(prefix.empty() ? "" : prefix + std::to_string(i)));
  }
  return ids;
}

VarId Env::var(const std::string& name) {
  if (auto it = by_name_.find(name); it != by_name_.end()) return it->second;
  return new_var(name);
}

void Env::nck(std::vector<VarId> collection, std::set<unsigned> selection,
              ConstraintKind kind) {
  for (VarId v : collection) {
    if (v >= names_.size()) {
      throw std::invalid_argument("Env::nck: unknown variable id " +
                                  std::to_string(v));
    }
  }
  constraints_.emplace_back(std::move(collection), std::move(selection), kind);
  if (kind == ConstraintKind::kHard) ++num_hard_;
}

void Env::exactly(std::vector<VarId> collection, unsigned k,
                  ConstraintKind kind) {
  nck(std::move(collection), {k}, kind);
}

void Env::at_least(std::vector<VarId> collection, unsigned k,
                   ConstraintKind kind) {
  std::set<unsigned> sel;
  for (unsigned i = k; i <= collection.size(); ++i) sel.insert(i);
  nck(std::move(collection), std::move(sel), kind);
}

void Env::at_most(std::vector<VarId> collection, unsigned k,
                  ConstraintKind kind) {
  std::set<unsigned> sel;
  for (unsigned i = 0; i <= k && i <= collection.size(); ++i) sel.insert(i);
  nck(std::move(collection), std::move(sel), kind);
}

void Env::all_true(std::vector<VarId> collection, ConstraintKind kind) {
  const unsigned n = static_cast<unsigned>(collection.size());
  nck(std::move(collection), {n}, kind);
}

void Env::all_false(std::vector<VarId> collection, ConstraintKind kind) {
  nck(std::move(collection), {0u}, kind);
}

void Env::different(VarId a, VarId b, ConstraintKind kind) {
  nck({a, b}, {1u}, kind);
}

void Env::same(VarId a, VarId b, ConstraintKind kind) {
  nck({a, b}, {0u, 2u}, kind);
}

void Env::prefer_false(VarId v) { nck({v}, {0u}, ConstraintKind::kSoft); }

void Env::prefer_true(VarId v) { nck({v}, {1u}, ConstraintKind::kSoft); }

std::size_t Env::num_nonsymmetric() const {
  std::set<std::string> classes;
  for (const auto& c : constraints_) classes.insert(c.symmetry_key());
  return classes.size();
}

Evaluation Env::evaluate(const std::vector<bool>& assignment) const {
  Evaluation eval;
  eval.soft_total = num_soft();
  for (const auto& c : constraints_) {
    const bool ok = c.satisfied(assignment);
    if (c.soft()) {
      if (ok) ++eval.soft_satisfied;
    } else if (!ok) {
      ++eval.hard_violated;
    }
  }
  return eval;
}

std::vector<std::vector<Occurrence>> Env::incidence() const {
  std::vector<std::vector<Occurrence>> touching(num_vars());
  std::vector<VarId> members;
  for (std::size_t ci = 0; ci < constraints_.size(); ++ci) {
    members = constraints_[ci].collection();
    std::sort(members.begin(), members.end());
    for (std::size_t i = 0; i < members.size();) {
      std::size_t j = i;
      while (j < members.size() && members[j] == members[i]) ++j;
      touching[members[i]].push_back({ci, static_cast<unsigned>(j - i)});
      i = j;
    }
  }
  return touching;
}

std::string Env::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < constraints_.size(); ++i) {
    if (i) os << " /\\\n";
    os << constraints_[i].to_string(names_);
  }
  return os.str();
}

}  // namespace nck
