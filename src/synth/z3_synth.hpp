// Z3-backed constraint -> QUBO synthesis — the path the paper's NchooseK
// implementation uses (Section V): coefficients become SMT integer unknowns,
// the ground/gap conditions become assertions, and Z3 searches for a model.
// Coefficient bounds escalate geometrically, which keeps the found QUBOs
// small-coefficient and human-comparable (e.g. it recovers Eq. 3's XOR QUBO
// up to ancilla symmetry).
#pragma once

#include <memory>

#include "synth/synthesizer.hpp"

#if NCK_HAVE_Z3

namespace nck {

/// Total-variable budget: patterns with d + a > kZ3MaxVars are refused
/// (the SMT search space doubles per variable). NOTE: this budget (10)
/// deliberately differs from kLpMaxVars (8) — the LP grows a row per
/// (x, z) pair and saturates earlier. The engine-wide budget visible to
/// lint (SynthEngine::general_var_budget, NCK-P008) is the max over the
/// attached general synthesizers, i.e. 10 when Z3 is built.
inline constexpr std::size_t kZ3MaxVars = 10;

class Z3Synthesizer final : public ConstraintSynthesizer {
 public:
  explicit Z3Synthesizer(std::size_t max_ancillas = kDefaultMaxAncillas);
  ~Z3Synthesizer() override;

  std::optional<SynthesizedQubo> synthesize(
      const ConstraintPattern& pattern) override;
  std::string name() const override { return "z3"; }
  std::size_t max_vars() const noexcept override { return kZ3MaxVars; }
  bool release_session() noexcept override;

 private:
  /// One incremental z3::context + z3::solver, built on the first
  /// synthesis and held until release_session(), with lazily-grown
  /// coefficient variable pools. Each (ancilla, bound) attempt is a
  /// push/pop scope over the same solver instead of a from-scratch solver
  /// build — the rmc-compiler smt.h idiom. Pimpl keeps z3++.h out of this
  /// header.
  struct Incremental;
  std::size_t max_ancillas_;
  std::unique_ptr<Incremental> inc_;
};

}  // namespace nck

#endif  // NCK_HAVE_Z3
