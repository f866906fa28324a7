#include "classical/adapter.hpp"

namespace nck::backend {

bool ClassicalAdapter::validate(std::string* why) const {
  (void)why;
  return true;  // no options to get wrong
}

Fingerprint ClassicalAdapter::plan_key(const PrepareContext& ctx) const {
  Fingerprint fp;
  fp.mix(std::string("classical"));
  mix_env(fp, *ctx.env);
  return fp;
}

PrepareOutcome ClassicalAdapter::prepare(const PrepareContext& ctx) const {
  auto plan = std::make_shared<ClassicalPlan>();
  plan->solution = solve_exact(*ctx.env);
  if (plan->solution.feasible) {
    plan->evaluation = ctx.env->evaluate(plan->solution.assignment);
  }
  PrepareOutcome outcome;
  outcome.plan = std::move(plan);
  return outcome;
}

ExecutionResult ClassicalAdapter::execute(const Plan& plan,
                                          ExecuteContext& ctx) const {
  (void)ctx;
  const auto& exact = static_cast<const ClassicalPlan&>(plan);
  ExecutionResult result;
  if (!exact.solution.feasible) {
    result.failure = FailureKind::kInfeasible;
    result.detail = failure_kind_description(result.failure);
    return result;
  }
  result.single_answer = true;
  result.evaluations.push_back(exact.evaluation);
  result.samples.push_back(exact.solution.assignment);
  return result;
}

Budget ClassicalAdapter::initial_budget() const noexcept {
  return {1, 0, 1, 0};
}

}  // namespace nck::backend
