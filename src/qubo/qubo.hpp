// Quadratic unconstrained binary optimization (QUBO) model — the paper's
// intermediate representation (Section V):
//
//   f(x) = offset + sum_i a_i x_i + sum_{i<j} b_ij x_i x_j,  x_i in {0,1}.
//
// Key property exploited by NchooseK: QUBOs are *compositional with respect
// to addition*, so per-constraint QUBOs sum into a whole-problem QUBO, and
// can be scaled by positive factors (used to bias hard over soft
// constraints).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace nck {

class Qubo {
 public:
  using Var = std::uint32_t;

  Qubo() = default;
  /// Pre-declares `num_variables` variables (they may all stay zero-weight).
  explicit Qubo(std::size_t num_variables);

  /// Number of declared variables (max touched index + 1).
  std::size_t num_variables() const noexcept { return linear_.size(); }

  /// Declares variables up to `n` without adding terms.
  void resize(std::size_t n);

  /// Adds `c` to the linear coefficient of x_i (declaring i if needed).
  void add_linear(Var i, double c);

  /// Adds `c` to the quadratic coefficient of x_i x_j. Requires i != j;
  /// the pair is stored unordered ((i,j) and (j,i) accumulate together).
  void add_quadratic(Var i, Var j, double c);

  /// Adds a constant to the objective.
  void add_offset(double c) noexcept { offset_ += c; }

  double linear(Var i) const noexcept {
    return i < linear_.size() ? linear_[i] : 0.0;
  }
  double quadratic(Var i, Var j) const noexcept;
  double offset() const noexcept { return offset_; }

  /// Number of nonzero linear terms (|a_i| > eps).
  std::size_t num_linear_terms() const noexcept;
  /// Number of nonzero quadratic terms (|b_ij| > eps).
  std::size_t num_quadratic_terms() const noexcept;
  /// Total nonzero terms — the "QUBO terms" column of Table I.
  std::size_t num_terms() const noexcept {
    return num_linear_terms() + num_quadratic_terms();
  }

  /// Objective value for a full assignment (size must be >= num_variables).
  double energy(const std::vector<bool>& x) const;

  /// In-place sum of another QUBO (variables identified by index).
  Qubo& operator+=(const Qubo& other);
  friend Qubo operator+(Qubo lhs, const Qubo& rhs) {
    lhs += rhs;
    return lhs;
  }

  /// Scales every coefficient (including the offset) by `factor`.
  /// `factor` must be positive to preserve the minimizer set.
  Qubo& scale(double factor);

  /// Largest absolute coefficient over linear and quadratic terms.
  double max_abs_coefficient() const noexcept;

  /// Remaps variable i to `mapping[i]`. Used when composing per-constraint
  /// QUBOs into problem-level variable space. A non-injective mapping
  /// merges variables: quadratic terms whose endpoints collide fold into
  /// linear terms (x^2 == x for binaries).
  Qubo remapped(std::span<const Var> mapping) const;

  /// Interaction list of (neighbor, coefficient) per variable; rebuilt on
  /// call. Samplers use this for O(degree) energy deltas.
  std::vector<std::vector<std::pair<Var, double>>> adjacency() const;

  /// Quadratic terms as a flat list of (i, j, coeff) with i < j, in
  /// deterministic (sorted) order.
  std::vector<std::tuple<Var, Var, double>> quadratic_terms() const;

  /// Human-readable polynomial, e.g. "1 + 2*x0 - 3*x0*x1" (debugging aid).
  std::string to_string() const;

  /// Coefficients closer to zero than this are treated as absent.
  static constexpr double kEps = 1e-9;

 private:
  friend class FlatQubo;

  static std::uint64_t key(Var i, Var j) noexcept;

  std::vector<double> linear_;
  std::unordered_map<std::uint64_t, double> quadratic_;
  double offset_ = 0.0;
};

/// Qubo::energy over assignments packed into one word, bit i holding x_i,
/// for QUBOs of at most 64 variables: a flat term list that sums, bit for
/// bit, what Qubo::energy sums, in its order — the offset, every linear
/// coefficient by index, then every stored quadratic entry in the order
/// Qubo::energy iterates them, near-zero ones included. It snapshots the
/// QUBO at construction.
class FlatQubo {
 public:
  /// Throws std::invalid_argument above 64 variables.
  explicit FlatQubo(const Qubo& qubo);

  /// Qubo::energy of the assignment x_i = bit i of `x`; bits at and above
  /// the QUBO's num_variables() are ignored.
  double energy(std::uint64_t x) const noexcept;

 private:
  // A term adds `c` when every variable in `mask` is set.
  struct Term {
    std::uint64_t mask = 0;
    double c = 0.0;
  };

  double offset_ = 0.0;
  std::vector<Term> terms_;  // linear by index, then the quadratic entries
};

}  // namespace nck
