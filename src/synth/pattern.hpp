// Canonical form of a single nck(N, K) constraint for QUBO synthesis.
//
// A variable collection may repeat variables (Definition 1); what matters
// for synthesis is only the multiset of multiplicities and the selection
// set. Two constraints with the same canonical pattern share a QUBO
// (this is exactly the symmetric-constraint structure of Definition 7,
// refined by multiplicities), which drives the synthesis cache.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace nck {

class ConstraintPattern {
 public:
  /// `multiplicities[i]` is how many times distinct variable i appears in
  /// the collection (all >= 1); `selection` is the selection set K.
  /// The pattern canonicalizes by sorting multiplicities ascending; callers
  /// that instantiate the synthesized QUBO must order their distinct
  /// variables the same way (see Env::compile).
  ConstraintPattern(std::vector<unsigned> multiplicities,
                    std::set<unsigned> selection);

  /// Number of distinct variables d.
  std::size_t num_vars() const noexcept { return mults_.size(); }

  /// Cardinality of the variable collection (sum of multiplicities).
  unsigned cardinality() const noexcept { return cardinality_; }

  const std::vector<unsigned>& multiplicities() const noexcept { return mults_; }
  const std::set<unsigned>& selection() const noexcept { return selection_; }

  /// True if the selection set is a contiguous integer interval.
  bool selection_contiguous() const noexcept;

  /// Does assignment x (bit i = distinct variable i) satisfy the constraint?
  bool satisfied(std::uint32_t assignment_bits) const noexcept;

  /// Weighted TRUE count  sum_i m_i x_i  for the assignment.
  unsigned weighted_count(std::uint32_t assignment_bits) const noexcept;

  /// All satisfying assignments as bitmasks, ascending. Requires d <= 20.
  std::vector<std::uint32_t> valid_assignments() const;

  /// Stable cache key, e.g. "m:1,1,2|k:0,2,4".
  std::string key() const;

  bool operator==(const ConstraintPattern& other) const noexcept {
    return mults_ == other.mults_ && selection_ == other.selection_;
  }

 private:
  std::vector<unsigned> mults_;  // sorted ascending
  std::set<unsigned> selection_;
  unsigned cardinality_ = 0;
};

}  // namespace nck
