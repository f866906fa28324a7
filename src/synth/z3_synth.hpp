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

struct Z3SynthOptions {
  std::size_t max_ancillas = 3;
  /// Total-variable budget: patterns with d + a > max_vars are refused
  /// (the SMT search space doubles per variable). NOTE: this budget (10)
  /// deliberately differs from LpSynthOptions::max_vars (8) — the LP grows
  /// a row per (x, z) pair and saturates earlier. The engine-wide budget
  /// visible to lint (SynthEngine::general_var_budget, NCK-P008) is the
  /// max over the attached general synthesizers, i.e. 10 when Z3 is built.
  std::size_t max_vars = 10;
  long long initial_bound = 4;    // first coefficient magnitude bound
  long long max_bound = 64;       // give up past this bound
};

class Z3Synthesizer final : public ConstraintSynthesizer {
 public:
  explicit Z3Synthesizer(Z3SynthOptions options = {});
  ~Z3Synthesizer() override;

  std::optional<SynthesizedQubo> synthesize(
      const ConstraintPattern& pattern) override;
  std::string name() const override { return "z3"; }
  std::size_t max_vars() const noexcept override { return options_.max_vars; }
  bool release_session() noexcept override;

 private:
  /// One incremental z3::context + z3::solver, built on the first
  /// synthesis and held until release_session(), with lazily-grown
  /// coefficient variable pools. Each (ancilla, bound) attempt is a
  /// push/pop scope over the same solver instead of a from-scratch solver
  /// build — the rmc-compiler smt.h idiom. Pimpl keeps z3++.h out of this
  /// header.
  struct Incremental;
  Z3SynthOptions options_;
  std::unique_ptr<Incremental> inc_;
};

}  // namespace nck

#endif  // NCK_HAVE_Z3
