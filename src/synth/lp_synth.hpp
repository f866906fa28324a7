// General constraint -> QUBO synthesis by exact linear programming, the
// native (non-Z3) path. For a candidate ancilla count `a`, the QUBO
// coefficients form an LP feasibility problem:
//
//   for every satisfying x:  f(x, z*(x)) == 0 for some chosen z*(x)   (eq)
//                            f(x, z) >= 0 for every z                 (ge)
//   for every violating x:   f(x, z) >= gap for every z               (ge)
//
// The existential choice of z*(x) is resolved by backtracking over per-row
// ancilla ground states, pruning with LP feasibility after each choice.
// Among feasible coefficient vectors, the L1 norm is minimized, which keeps
// the generated QUBOs as small and human-comparable as the handcrafted ones
// (Section VI-B).
#pragma once

#include "synth/synthesizer.hpp"

namespace nck {

/// Total-variable budget: patterns with d + a > kLpMaxVars are refused (the
/// LP has a constraint row per (x, z) pair, so it grows as 2^(d+a)).
/// NOTE: this budget (8) deliberately differs from kZ3MaxVars (10); Z3's
/// learned-clause search stretches two variables further. The engine-wide
/// budget visible to lint (SynthEngine::general_var_budget, NCK-P008) is
/// the max over the attached general synthesizers, so LP's lower budget
/// only binds in non-Z3 builds.
inline constexpr std::size_t kLpMaxVars = 8;

class LpSynthesizer final : public ConstraintSynthesizer {
 public:
  explicit LpSynthesizer(std::size_t max_ancillas = kDefaultMaxAncillas)
      : max_ancillas_(max_ancillas) {}

  std::optional<SynthesizedQubo> synthesize(
      const ConstraintPattern& pattern) override;
  std::string name() const override { return "lp"; }
  std::size_t max_vars() const noexcept override { return kLpMaxVars; }

 private:
  std::size_t max_ancillas_;
};

}  // namespace nck
