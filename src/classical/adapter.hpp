// backend::Backend adapter over the native exact solver — the trivial
// member of the backend family: prepare() just snapshots the program
// (nothing expensive to cache) and execute() runs branch and bound.
// Always valid, deadline-exempt (it is the fallback chain's guaranteed
// landing), and it produces a single witness sample.
#pragma once

#include "backend/backend.hpp"

namespace nck::backend {

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
