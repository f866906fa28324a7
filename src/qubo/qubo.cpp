#include "qubo/qubo.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <tuple>

namespace nck {

Qubo::Qubo(std::size_t num_variables) : linear_(num_variables, 0.0) {}

void Qubo::resize(std::size_t n) {
  if (n > linear_.size()) linear_.resize(n, 0.0);
}

std::uint64_t Qubo::key(Var i, Var j) noexcept {
  if (i > j) std::swap(i, j);
  return (static_cast<std::uint64_t>(i) << 32) | j;
}

void Qubo::add_linear(Var i, double c) {
  resize(static_cast<std::size_t>(i) + 1);
  linear_[i] += c;
}

void Qubo::add_quadratic(Var i, Var j, double c) {
  if (i == j) {
    // x^2 == x for binary variables; fold into the linear term.
    add_linear(i, c);
    return;
  }
  resize(static_cast<std::size_t>(std::max(i, j)) + 1);
  quadratic_[key(i, j)] += c;
}

double Qubo::quadratic(Var i, Var j) const noexcept {
  if (i == j) return 0.0;
  const auto it = quadratic_.find(key(i, j));
  return it == quadratic_.end() ? 0.0 : it->second;
}

std::size_t Qubo::num_linear_terms() const noexcept {
  std::size_t n = 0;
  for (double c : linear_) {
    if (std::abs(c) > kEps) ++n;
  }
  return n;
}

std::size_t Qubo::num_quadratic_terms() const noexcept {
  std::size_t n = 0;
  for (const auto& [k, c] : quadratic_) {
    if (std::abs(c) > kEps) ++n;
  }
  return n;
}

double Qubo::energy(const std::vector<bool>& x) const {
  if (x.size() < linear_.size()) {
    throw std::invalid_argument("Qubo::energy: assignment too short");
  }
  double e = offset_;
  for (std::size_t i = 0; i < linear_.size(); ++i) {
    if (x[i]) e += linear_[i];
  }
  for (const auto& [k, c] : quadratic_) {
    const Var i = static_cast<Var>(k >> 32);
    const Var j = static_cast<Var>(k & 0xFFFFFFFFu);
    if (x[i] && x[j]) e += c;
  }
  return e;
}

FlatQubo::FlatQubo(const Qubo& qubo) : offset_(qubo.offset_) {
  if (qubo.num_variables() > 64) {
    throw std::invalid_argument("FlatQubo: more than 64 variables");
  }
  terms_.reserve(qubo.linear_.size() + qubo.quadratic_.size());
  for (std::size_t i = 0; i < qubo.linear_.size(); ++i) {
    terms_.push_back({std::uint64_t{1} << i, qubo.linear_[i]});
  }
  for (const auto& [k, c] : qubo.quadratic_) {
    const auto i = static_cast<Qubo::Var>(k >> 32);
    const auto j = static_cast<Qubo::Var>(k & 0xFFFFFFFFu);
    terms_.push_back({(std::uint64_t{1} << i) | (std::uint64_t{1} << j), c});
  }
}

double FlatQubo::energy(std::uint64_t x) const noexcept {
  // e + (-0.0) == e for every e, so a term that does not apply adds -0.0
  // and leaves e exactly as Qubo::energy's skipped addition does. The
  // select is a bit mask, not a branch: whether a term applies is a coin
  // flip per shot, which a branch would mispredict.
  constexpr std::uint64_t kNegativeZero = std::uint64_t{1} << 63;
  double e = offset_;
  for (const Term& t : terms_) {
    const std::uint64_t take =
        std::uint64_t{0} - static_cast<std::uint64_t>((x & t.mask) == t.mask);
    e += std::bit_cast<double>((std::bit_cast<std::uint64_t>(t.c) & take) |
                               (kNegativeZero & ~take));
  }
  return e;
}

Qubo& Qubo::operator+=(const Qubo& other) {
  resize(other.linear_.size());
  for (std::size_t i = 0; i < other.linear_.size(); ++i) {
    linear_[i] += other.linear_[i];
  }
  for (const auto& [k, c] : other.quadratic_) quadratic_[k] += c;
  offset_ += other.offset_;
  return *this;
}

Qubo& Qubo::scale(double factor) {
  if (factor <= 0.0) {
    throw std::invalid_argument("Qubo::scale: factor must be positive");
  }
  for (double& c : linear_) c *= factor;
  for (auto& [k, c] : quadratic_) c *= factor;
  offset_ *= factor;
  return *this;
}

double Qubo::max_abs_coefficient() const noexcept {
  double m = 0.0;
  for (double c : linear_) m = std::max(m, std::abs(c));
  for (const auto& [k, c] : quadratic_) m = std::max(m, std::abs(c));
  return m;
}

Qubo Qubo::remapped(std::span<const Var> mapping) const {
  Qubo out;
  for (std::size_t i = 0; i < linear_.size(); ++i) {
    if (std::abs(linear_[i]) > kEps) {
      if (i >= mapping.size()) {
        throw std::invalid_argument("Qubo::remapped: mapping too short");
      }
      out.add_linear(mapping[i], linear_[i]);
    }
  }
  for (const auto& [k, c] : quadratic_) {
    if (std::abs(c) <= kEps) continue;
    const Var i = static_cast<Var>(k >> 32);
    const Var j = static_cast<Var>(k & 0xFFFFFFFFu);
    if (i >= mapping.size() || j >= mapping.size()) {
      throw std::invalid_argument("Qubo::remapped: mapping too short");
    }
    out.add_quadratic(mapping[i], mapping[j], c);
  }
  out.add_offset(offset_);
  return out;
}

std::vector<std::vector<std::pair<Qubo::Var, double>>> Qubo::adjacency() const {
  std::vector<std::vector<std::pair<Var, double>>> adj(num_variables());
  for (const auto& [k, c] : quadratic_) {
    if (std::abs(c) <= kEps) continue;
    const Var i = static_cast<Var>(k >> 32);
    const Var j = static_cast<Var>(k & 0xFFFFFFFFu);
    adj[i].emplace_back(j, c);
    adj[j].emplace_back(i, c);
  }
  return adj;
}

std::vector<std::tuple<Qubo::Var, Qubo::Var, double>> Qubo::quadratic_terms()
    const {
  std::vector<std::tuple<Var, Var, double>> terms;
  terms.reserve(quadratic_.size());
  for (const auto& [k, c] : quadratic_) {
    if (std::abs(c) <= kEps) continue;
    terms.emplace_back(static_cast<Var>(k >> 32),
                       static_cast<Var>(k & 0xFFFFFFFFu), c);
  }
  std::sort(terms.begin(), terms.end());
  return terms;
}

std::string Qubo::to_string() const {
  std::ostringstream os;
  bool first = true;
  auto emit = [&](double c, const std::string& mono) {
    if (std::abs(c) <= kEps) return;
    if (first) {
      if (c < 0) os << "-";
      first = false;
    } else {
      os << (c < 0 ? " - " : " + ");
    }
    const double a = std::abs(c);
    if (mono.empty()) {
      os << a;
    } else if (a == 1.0) {
      os << mono;
    } else {
      os << a << "*" << mono;
    }
  };
  emit(offset_, "");
  for (std::size_t i = 0; i < linear_.size(); ++i) {
    std::string mono = "x";
    mono += std::to_string(i);
    emit(linear_[i], mono);
  }
  for (const auto& [i, j, c] : quadratic_terms()) {
    std::string mono = "x";
    mono += std::to_string(i);
    mono += "*x";
    mono += std::to_string(j);
    emit(c, mono);
  }
  if (first) os << "0";
  return os.str();
}

}  // namespace nck
