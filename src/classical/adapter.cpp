#include "classical/adapter.hpp"

#include "classical/exact_solver.hpp"

namespace nck::backend {
namespace {

struct ClassicalPlan final : Plan {
  Env env;
  std::size_t footprint = 0;
  std::size_t bytes() const noexcept override { return footprint; }
};

}  // namespace

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
  plan->env = *ctx.env;
  plan->footprint = sizeof(Env) + env_bytes(plan->env);
  PrepareOutcome outcome;
  outcome.plan = std::move(plan);
  return outcome;
}

ExecutionResult ClassicalAdapter::execute(const Plan& plan,
                                          ExecuteContext& ctx) const {
  (void)ctx;
  const auto& classical = static_cast<const ClassicalPlan&>(plan);
  ExecutionResult result;
  const ClassicalSolution solution = solve_exact(classical.env);
  result.single_answer = true;
  result.evaluations.push_back(classical.env.evaluate(solution.assignment));
  result.samples.push_back(solution.assignment);
  return result;
}

Budget ClassicalAdapter::initial_budget() const noexcept {
  return {1, 0, 1, 0};
}

}  // namespace nck::backend
