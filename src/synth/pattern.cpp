#include "synth/pattern.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace nck {

ConstraintPattern::ConstraintPattern(std::vector<unsigned> multiplicities,
                                     std::set<unsigned> selection)
    : mults_(std::move(multiplicities)), selection_(std::move(selection)) {
  if (mults_.empty()) {
    throw std::invalid_argument("ConstraintPattern: empty variable collection");
  }
  for (unsigned m : mults_) {
    if (m == 0) {
      throw std::invalid_argument("ConstraintPattern: zero multiplicity");
    }
  }
  std::sort(mults_.begin(), mults_.end());
  cardinality_ = std::accumulate(mults_.begin(), mults_.end(), 0u);
  for (unsigned k : selection_) {
    if (k > cardinality_) {
      throw std::invalid_argument(
          "ConstraintPattern: selection value exceeds collection cardinality");
    }
  }
  if (selection_.empty()) {
    throw std::invalid_argument("ConstraintPattern: empty selection set");
  }
}

bool ConstraintPattern::selection_contiguous() const noexcept {
  if (selection_.empty()) return false;
  const unsigned lo = *selection_.begin();
  const unsigned hi = *selection_.rbegin();
  return selection_.size() == static_cast<std::size_t>(hi - lo + 1);
}

unsigned ConstraintPattern::weighted_count(
    std::uint32_t assignment_bits) const noexcept {
  unsigned total = 0;
  for (std::size_t i = 0; i < mults_.size(); ++i) {
    if ((assignment_bits >> i) & 1u) total += mults_[i];
  }
  return total;
}

bool ConstraintPattern::satisfied(std::uint32_t assignment_bits) const noexcept {
  return selection_.count(weighted_count(assignment_bits)) > 0;
}

std::vector<std::uint32_t> ConstraintPattern::valid_assignments() const {
  if (num_vars() > 20) {
    throw std::invalid_argument("ConstraintPattern: too many variables");
  }
  std::vector<std::uint32_t> out;
  const std::uint32_t total = 1u << num_vars();
  for (std::uint32_t bits = 0; bits < total; ++bits) {
    if (satisfied(bits)) out.push_back(bits);
  }
  return out;
}

std::string ConstraintPattern::key() const {
  std::ostringstream os;
  os << "m:";
  for (std::size_t i = 0; i < mults_.size(); ++i) {
    if (i) os << ',';
    os << mults_[i];
  }
  os << "|k:";
  bool first = true;
  for (unsigned k : selection_) {
    if (!first) os << ',';
    os << k;
    first = false;
  }
  return os.str();
}

}  // namespace nck
