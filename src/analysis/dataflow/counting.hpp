// Reachable-count machinery shared by the propagation pass and the dataflow
// engine: exact subset-sum sets over unfixed multiplicities, the unfixed
// slice of a constraint under a partial assignment, and the selection-set
// hit tests. Moved out of program_passes.cpp so src/analysis/dataflow can
// reuse the exact reasoning instead of duplicating it.
#pragma once

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "analysis/program_passes.hpp"
#include "core/constraint.hpp"

namespace nck {
namespace dataflow {

/// Collections larger than this skip exact subset-sum reasoning (the bitset
/// grows with cardinality): propagation falls back to its interval bound and
/// pair mining skips the constraint.
inline constexpr std::size_t kMaxExactCardinality = 4096;

/// Bitset over achievable multiplicity sums in [0, cap].
class SumSet {
 public:
  explicit SumSet(std::size_t cap) : cap_(cap), bits_(cap / 64 + 1, 0) {
    bits_[0] = 1;  // the empty subset sums to 0
  }

  /// dp |= dp << m (one item of multiplicity m, chosen or not).
  void add_item(unsigned m) {
    if (m == 0) return;
    const std::size_t word_shift = m / 64;
    const unsigned bit_shift = m % 64;
    for (std::size_t i = bits_.size(); i-- > 0;) {
      std::uint64_t shifted = 0;
      if (i >= word_shift) {
        shifted = bits_[i - word_shift] << bit_shift;
        if (bit_shift != 0 && i > word_shift) {
          shifted |= bits_[i - word_shift - 1] >> (64 - bit_shift);
        }
      }
      bits_[i] |= shifted;
    }
  }

  bool test(std::size_t k) const noexcept {
    if (k > cap_) return false;
    return (bits_[k / 64] >> (k % 64)) & 1u;
  }

 private:
  std::size_t cap_;
  std::vector<std::uint64_t> bits_;
};

/// The unfixed slice of one constraint under a partial assignment.
struct UnfixedView {
  unsigned fixed_true = 0;     // multiplicity-weighted TRUE count so far
  unsigned unfixed_total = 0;  // sum of unfixed multiplicities
  std::vector<std::pair<VarId, unsigned>> unfixed;  // (var, multiplicity)
};

inline UnfixedView view_under(const Constraint& c,
                              const std::vector<ForcedValue>& values) {
  UnfixedView view;
  const auto& vars = c.distinct_vars();
  for (std::size_t i = 0; i < vars.size(); ++i) {
    unsigned mult = 0;
    for (VarId v : c.collection()) {
      if (v == vars[i]) ++mult;
    }
    switch (values[vars[i]]) {
      case ForcedValue::kTrue: view.fixed_true += mult; break;
      case ForcedValue::kFalse: break;
      case ForcedValue::kUnknown:
        view.unfixed.emplace_back(vars[i], mult);
        view.unfixed_total += mult;
        break;
    }
  }
  return view;
}

/// Does the selection set contain any value in [lo, hi]?
inline bool selection_hits_interval(const std::set<unsigned>& selection,
                                    unsigned lo, unsigned hi) {
  auto it = selection.lower_bound(lo);
  return it != selection.end() && *it <= hi;
}

/// Does the selection contain fixed + s for some achievable s, where the
/// achievable sums come from `sums` (offset by `fixed`)?
inline bool selection_hits_sums(const std::set<unsigned>& selection,
                                unsigned fixed, unsigned total,
                                const SumSet& sums) {
  for (auto it = selection.lower_bound(fixed);
       it != selection.end() && *it <= fixed + total; ++it) {
    if (sums.test(*it - fixed)) return true;
  }
  return false;
}

}  // namespace dataflow
}  // namespace nck
