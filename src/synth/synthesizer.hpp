// Constraint -> QUBO synthesis interfaces (Section V of the paper).
//
// A synthesized QUBO for a pattern with d distinct variables and a ancilla
// variables uses QUBO indices [0, d) for the variables (ordered to match the
// pattern's sorted multiplicities) and [d, d+a) for ancillas. It is
// normalized so that
//   * min over ancillas of f(x, z) == 0 for every satisfying x, and
//   * min over ancillas of f(x, z) >= gap (> 0) for every violating x.
#pragma once

#include <optional>
#include <string>

#include "qubo/qubo.hpp"
#include "synth/pattern.hpp"

namespace nck {

/// Ancilla budget of the general synthesizers unless the engine is given
/// another.
inline constexpr std::size_t kDefaultMaxAncillas = 3;

struct SynthesizedQubo {
  Qubo qubo;
  std::size_t num_vars = 0;      // d — distinct constraint variables
  std::size_t num_ancillas = 0;  // a — extra degrees of freedom
  double gap = 1.0;              // minimum energy of any violating assignment
  std::string method;            // which synthesis path produced it
};

class ConstraintSynthesizer {
 public:
  virtual ~ConstraintSynthesizer() = default;

  /// Returns std::nullopt if this synthesizer cannot handle the pattern
  /// (e.g. a closed-form synthesizer given a non-contiguous selection set,
  /// or ancilla budget exhausted). Throws only on internal errors.
  virtual std::optional<SynthesizedQubo> synthesize(
      const ConstraintPattern& pattern) = 0;

  virtual std::string name() const = 0;

  /// Largest total variable count d + a this synthesizer accepts; patterns
  /// with more distinct variables than this are refused outright. The
  /// NCK-P008 lint pass compares constraint widths against the engine-wide
  /// maximum of this budget so oversized constraints fail at lint time
  /// instead of mid-solve. Default: unbounded (closed forms).
  virtual std::size_t max_vars() const noexcept {
    return static_cast<std::size_t>(-1);
  }

  /// Drops any solver session kept between synthesize() calls, returning
  /// whether one was held; the next call builds a fresh one. Default: none
  /// is kept.
  virtual bool release_session() noexcept { return false; }
};

/// Expands (c0 + sum_i coeffs[i] * y_i)^2 into a QUBO over y (binary), using
/// y^2 == y. Shared by the closed-form synthesizers.
Qubo square_of_linear(std::span<const double> coeffs, double c0);

/// The QUBO over `num_vars` variables with offset `offset`, linear(i) and
/// the nonzero quadratic(i, j), i < j, added in that order, row by row:
/// the insertion order fixes the order Qubo::energy and FlatQubo sum in.
/// Shared by the LP and Z3 synthesizers.
template <typename Linear, typename Quadratic>
Qubo dense_qubo(std::size_t num_vars, double offset, Linear linear,
                Quadratic quadratic) {
  Qubo q(num_vars);
  q.add_offset(offset);
  for (Qubo::Var i = 0; i < num_vars; ++i) q.add_linear(i, linear(i));
  for (Qubo::Var i = 0; i < num_vars; ++i) {
    for (Qubo::Var j = i + 1; j < num_vars; ++j) {
      if (const double c = quadratic(i, j); c != 0.0) q.add_quadratic(i, j, c);
    }
  }
  return q;
}

}  // namespace nck
