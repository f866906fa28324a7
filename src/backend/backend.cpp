#include "backend/backend.hpp"

namespace nck::backend {

std::size_t env_bytes(const Env& env) noexcept {
  std::size_t total = 0;
  for (const Constraint& c : env.constraints()) {
    total += c.collection().capacity() * sizeof(VarId);
    total += c.distinct_vars().capacity() * sizeof(VarId);
  }
  return total;
}

bool submission_failed(FaultInjector& faults, obs::Trace* trace,
                       ExecutionResult& result) {
  const auto fault = faults.submit_fault();
  if (!fault) return false;
  obs::count(trace, std::string("resilience.fault.") + fault_name(*fault));
  result.failure = failure_from_fault(*fault);
  result.detail = failure_kind_description(result.failure);
  return true;
}

ExecutionResult run_once(const Backend& backend, const Env& env,
                         SynthEngine& engine, Rng& rng, obs::Trace* trace) {
  PrepareContext pctx;
  pctx.env = &env;
  pctx.engine = &engine;
  pctx.trace = trace;
  pctx.key = backend.plan_key(pctx);
  PrepareOutcome prep = backend.prepare(pctx);
  if (prep.plan == nullptr) {
    ExecutionResult result;
    result.failure = prep.failure;
    result.detail = std::move(prep.detail);
    return result;
  }
  ExecuteContext ectx;
  ectx.rng = &rng;
  ectx.trace = trace;
  ectx.budget = backend.initial_budget();
  return backend.execute(*prep.plan, ectx);
}

}  // namespace nck::backend
