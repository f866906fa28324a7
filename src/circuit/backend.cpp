#include "circuit/backend.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "resilience/policy.hpp"

namespace nck {

std::size_t CircuitPrepared::bytes() const noexcept {
  std::size_t total = sizeof(CircuitPrepared);
  total += compiled.qubo.num_variables() * sizeof(double);
  total += compiled.qubo.num_quadratic_terms() * 3 * sizeof(double);
  total += qaoa.ising.h.capacity() * sizeof(double);
  total += qaoa.ising.j.capacity() *
           sizeof(std::tuple<Qubo::Var, Qubo::Var, double>);
  for (const Constraint& c : env.constraints()) {
    total += c.collection().capacity() * sizeof(VarId);
    total += c.distinct_vars().capacity() * sizeof(VarId);
  }
  return total;
}

}  // namespace nck

namespace nck::backend {

bool CircuitAdapter::validate(std::string* why) const {
  const QaoaOptions& q = *options_;
  if (q.shots == 0) {
    if (why) *why = "circuit shots must be > 0";
    return false;
  }
  if (q.p < 1) {
    if (why) *why = "QAOA depth p must be >= 1";
    return false;
  }
  return true;
}

AnalysisTarget CircuitAdapter::analysis_target() const noexcept {
  AnalysisTarget target;
  target.coupling = coupling_;
  return target;
}

Fingerprint CircuitAdapter::plan_key(const PrepareContext& ctx) const {
  Fingerprint fp;
  fp.mix(std::string("circuit"));
  mix_env(fp, *ctx.env);
  mix_graph(fp, *coupling_);
  fp.mix(options_->p);
  return fp;
}

PrepareOutcome CircuitAdapter::prepare(const PrepareContext& ctx) const {
  auto plan = std::make_shared<CircuitPrepared>();
  plan->env = *ctx.env;
  plan->compiled = compile(*ctx.env, *ctx.engine, ctx.trace);

  PrepareOutcome outcome;
  const auto too_small = [&] {
    outcome.failure = FailureKind::kDeviceTooSmall;
    outcome.detail = "problem does not fit the " +
                     std::to_string(coupling_->num_vertices()) +
                     "-qubit device";
    return outcome;
  };
  if (plan->compiled.num_qubo_vars() > coupling_->num_vertices()) {
    return too_small();  // more variables than physical qubits
  }
  try {
    plan->qaoa = prepare_qaoa(plan->compiled.qubo, *coupling_, *options_,
                              ctx.trace);
  } catch (const std::invalid_argument&) {
    return too_small();  // device region too small after layout
  }
  outcome.plan = std::move(plan);
  return outcome;
}

ExecutionResult CircuitAdapter::execute(const Plan& plan,
                                        ExecuteContext& ctx) const {
  const auto& prepared = static_cast<const CircuitPrepared&>(plan);
  obs::Trace* trace = ctx.trace;
  ExecutionResult result;
  result.qubits_used = prepared.compiled.num_qubo_vars();
  const auto fail = [&](FailureKind kind, std::string detail) {
    result.failure = kind;
    result.detail = std::move(detail);
    return result;
  };

  if (FaultInjector* faults = ctx.faults) {
    // Session faults surface at submission / first execution, before any
    // server time is spent (the job never leaves the queue). Note:
    // ctx.rng is untouched until both gates pass.
    if (const auto fault = faults->submit_fault()) {
      obs::count(trace, std::string("resilience.fault.") + fault_name(*fault));
      const FailureKind kind = failure_from_fault(*fault);
      return fail(kind, failure_kind_description(kind));
    }
    if (faults->execution_fault()) {
      obs::count(trace, "resilience.fault.execution-error");
      const FailureKind kind = failure_from_fault(FaultKind::kExecutionError);
      return fail(kind, failure_kind_description(kind));
    }
  }

  QaoaOptions qaoa_options = *options_;
  qaoa_options.shots = ctx.budget.samples;
  qaoa_options.max_evaluations = ctx.budget.aux;
  const QaoaResult qaoa = run_qaoa_prepared(
      prepared.compiled.qubo, prepared.qaoa, qaoa_options, *ctx.rng, trace);
  result.circuit_depth = qaoa.depth;

  // Order samples by energy so samples.front() is the reported result.
  std::vector<std::size_t> order(qaoa.samples.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return qaoa.energies[a] < qaoa.energies[b];
  });
  result.samples.reserve(order.size());
  result.evaluations.reserve(order.size());
  for (std::size_t idx : order) {
    std::vector<bool> program_vars(
        qaoa.samples[idx].begin(),
        qaoa.samples[idx].begin() +
            static_cast<std::ptrdiff_t>(prepared.compiled.num_problem_vars));
    result.evaluations.push_back(prepared.env.evaluate(program_vars));
    result.samples.push_back(std::move(program_vars));
  }

  // IBM timing model: fixed server overhead, then one modeled job per
  // optimizer evaluation plus the final sampling job.
  const IbmTimingModel& timing = kBrooklynTiming;
  if (trace) {
    trace->registry().add("qaoa.jobs", static_cast<double>(qaoa.num_jobs));
    trace->record_modeled("device.server_overhead",
                          timing.server_overhead_s * 1e6);
  }
  double total = timing.server_overhead_s;
  for (std::size_t j = 0; j < qaoa.num_jobs; ++j) {
    const double t = timing.job_seconds(*ctx.rng);
    total += t + timing.optimizer_s_per_job;
    if (trace) trace->record_modeled("device.job", t * 1e6);
  }
  result.device_seconds = total;

  if (result.samples.empty()) {
    return fail(FailureKind::kNoSamples, "circuit backend returned no samples");
  }
  // QAOA reports a single answer: the lowest-energy sample.
  result.single_answer = true;
  return result;
}

Budget CircuitAdapter::initial_budget() const noexcept {
  // Degradation floors: deadline pressure halves shots toward 100 and
  // optimizer evaluations toward 4, never below.
  constexpr std::size_t kMinShots = 100;
  constexpr std::size_t kMinEvaluations = 4;
  return {options_->shots, options_->max_evaluations, kMinShots,
          kMinEvaluations};
}

double CircuitAdapter::estimate_attempt_ms(const Budget& budget) const noexcept {
  const IbmTimingModel& t = kBrooklynTiming;
  const double jobs = static_cast<double>(budget.aux) + 1.0;
  return (t.server_overhead_s +
          jobs * (t.job_base_s + 0.5 * t.job_jitter_s +
                  t.optimizer_s_per_job)) *
         1e3;
}

bool CircuitAdapter::degrade(Budget& budget) const noexcept {
  if (budget.samples <= budget.min_samples && budget.aux <= budget.min_aux) {
    return false;
  }
  budget.samples = degrade_samples(budget.samples, budget.min_samples);
  budget.aux = degrade_samples(budget.aux, budget.min_aux);
  return true;
}

}  // namespace nck::backend
