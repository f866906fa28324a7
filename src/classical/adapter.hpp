// backend::Backend adapter over the native exact solver. prepare() runs
// branch and bound once and caches the program's exact solution; execute()
// returns its witness as the single sample, or kInfeasible when the hard
// constraints conflict. The same plan is the Solver's Definition 8 ground
// truth (its truth stage reads it under this adapter's plan key), so a
// classical solve searches once, cold or warm. Always valid, and
// deadline-exempt: it is the fallback chain's guaranteed landing.
#pragma once

#include "backend/backend.hpp"
#include "classical/exact_solver.hpp"

namespace nck::backend {

/// The classical plan: the program's exact solution and its witness's
/// evaluation (meaningful only when the program is feasible).
struct ClassicalPlan final : Plan {
  ClassicalSolution solution;
  Evaluation evaluation;
  std::size_t bytes() const noexcept override {
    return sizeof(ClassicalPlan) + solution.assignment.capacity() / 8;
  }
};

class ClassicalAdapter final : public Backend {
 public:
  BackendKind kind() const noexcept override { return BackendKind::kClassical; }
  const char* name() const noexcept override { return "classical"; }
  bool validate(std::string* why) const override;
  AnalysisTarget analysis_target() const noexcept override { return {}; }
  Fingerprint plan_key(const PrepareContext& ctx) const override;
  PrepareOutcome prepare(const PrepareContext& ctx) const override;
  ExecutionResult execute(const Plan& plan, ExecuteContext& ctx) const override;
  Budget initial_budget() const noexcept override;
  bool deadline_exempt() const noexcept override { return true; }
};

}  // namespace nck::backend
