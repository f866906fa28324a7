#include "backend/backend.hpp"

namespace nck::backend {

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
