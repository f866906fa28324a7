#include "anneal/backend.hpp"

#include <cmath>
#include <string>

#include "qubo/ising.hpp"
#include "resilience/policy.hpp"

namespace nck {

std::size_t AnnealPrepared::bytes() const noexcept {
  std::size_t total = sizeof(AnnealPrepared);
  total += compiled.qubo.num_variables() * sizeof(double);
  total += compiled.qubo.num_quadratic_terms() * 3 * sizeof(double);
  total += logical.h.capacity() * sizeof(double);
  total += logical.j.capacity() * sizeof(std::tuple<Qubo::Var, Qubo::Var, double>);
  for (const auto& chain : embedding.chains) {
    total += chain.capacity() * sizeof(Graph::Vertex);
  }
  total += problem.ising.h.capacity() * sizeof(double);
  total +=
      problem.ising.j.capacity() * sizeof(std::tuple<Qubo::Var, Qubo::Var, double>);
  total += problem.qubit.capacity() * sizeof(Graph::Vertex);
  for (const auto& chain : problem.chain) {
    total += chain.capacity() * sizeof(std::uint32_t);
  }
  return total + backend::env_bytes(env);
}

}  // namespace nck

namespace nck::backend {

bool AnnealAdapter::validate(std::string* why) const {
  const AnnealerSamplerOptions& s = options_->sampler;
  const auto reject = [&](const std::string& what) {
    if (why) *why = what;
    return false;
  };
  if (s.num_reads == 0) return reject("annealer num_reads must be > 0");
  if (s.num_sweeps == 0) return reject("annealer num_sweeps must be > 0");
  if (s.num_replicas == 0) return reject("annealer num_replicas must be > 0");
  if (std::isnan(s.ice_sigma) || s.ice_sigma < 0.0) {
    return reject("ice_sigma must be >= 0");
  }
  return true;
}

AnalysisTarget AnnealAdapter::analysis_target() const noexcept {
  AnalysisTarget target;
  target.annealer = device_;
  return target;
}

Fingerprint AnnealAdapter::plan_key(const PrepareContext& ctx) const {
  Fingerprint fp;
  fp.mix(std::string("anneal"));
  mix_env(fp, *ctx.env);
  mix_device(fp, device_for(ctx));
  // The key seeds the embedding RNG in prepare(), so values that stopped
  // being options stay mixed as constants (the compile margin, the
  // embedder's budgets, the retired QUBO presolve switch): dropping one
  // re-draws every embedding.
  fp.mix(kHardMargin);
  fp.mix(kEmbedMaxPasses);
  fp.mix(kEmbedPenaltyBase);
  fp.mix(kEmbedTries);
  fp.mix(options_->chain_strength);
  fp.mix(false);  // retired QUBO presolve switch, always off
  return fp;
}

PrepareOutcome AnnealAdapter::prepare(const PrepareContext& ctx) const {
  // Content-addressed preparation RNG: derived from the plan key, never
  // from the solve's sample stream, so the embedding a plan carries is a
  // function of its inputs alone (warm and cold solves agree exactly, and
  // batch results do not depend on which worker built the plan first).
  Rng rng(ctx.key.lo() ^ (ctx.key.hi() * 0x9E3779B97F4A7C15ull));
  const AnnealBackendOptions& options = *options_;
  obs::Trace* trace = ctx.trace;
  auto plan = std::make_shared<AnnealPrepared>();
  plan->env = *ctx.env;
  plan->compiled = compile(*ctx.env, *ctx.engine, trace);
  plan->logical = qubo_to_ising(plan->compiled.qubo);

  PrepareOutcome outcome;
  if (plan->compiled.num_qubo_vars() > 0) {
    obs::Span embed_span(trace, "embed");
    const Graph logical_graph = interaction_graph(plan->compiled.qubo);
    const Graph& working = device_for(ctx).working_graph();
    auto embedding = find_embedding(logical_graph, working, rng);
    embed_span.close();
    if (!embedding) {
      outcome.failure = FailureKind::kNoEmbedding;
      outcome.detail = "no minor embedding found on the device";
      return outcome;
    }
    plan->embedding = std::move(*embedding);
    plan->qubits_used = plan->embedding.total_qubits();
    plan->max_chain_length = plan->embedding.max_chain_length();
    plan->problem = embed_ising(plan->logical, plan->embedding, working,
                                options.chain_strength);
  }
  outcome.plan = std::move(plan);
  return outcome;
}

ExecutionResult AnnealAdapter::execute(const Plan& plan,
                                       ExecuteContext& ctx) const {
  const auto& prepared = static_cast<const AnnealPrepared&>(plan);
  const AnnealerSamplerOptions& sampler = options_->sampler;
  obs::Trace* trace = ctx.trace;
  ExecutionResult result;
  const auto fail = [&](FailureKind kind, std::string detail) {
    result.failure = kind;
    result.detail = std::move(detail);
    return result;
  };
  const auto keep = [&](std::vector<bool> program_vars) {
    result.evaluations.push_back(prepared.env.evaluate(program_vars));
    result.samples.push_back(std::move(program_vars));
  };

  if (prepared.compiled.num_qubo_vars() == 0) {
    // Empty QUBO (a program with no variables): nothing to embed, so
    // replicate the one empty answer.
    for (std::size_t r = 0; r < ctx.budget.samples; ++r) keep({});
    if (result.samples.empty()) {
      return fail(FailureKind::kNoSamples, "annealer returned no samples");
    }
    return result;
  }

  result.qubits_used = prepared.qubits_used;
  AnnealerSamplerOptions sampler_options = sampler;
  sampler_options.num_reads = ctx.budget.samples;
  if (FaultInjector* faults = ctx.faults) {
    // The job is built and submitted only now, so an injected session
    // fault wastes the client-side compile/embed work — as on real QPUs.
    // Note: ctx.rng is untouched until both gates below pass.
    if (submission_failed(*faults, trace, result)) return result;
    // Mid-session dead-qubit event: the device was already programmed, so
    // that time is lost; the current embedding is invalidated and the
    // caller should mark the qubits inoperable and re-embed.
    std::vector<std::size_t> in_use;
    for (const auto& chain : prepared.embedding.chains) {
      in_use.insert(in_use.end(), chain.begin(), chain.end());
    }
    std::vector<std::size_t> dead = faults->dead_qubit_event(in_use);
    if (!dead.empty()) {
      obs::count(trace, "resilience.fault.dead-qubits");
      obs::count(trace, "resilience.dead_qubits",
                 static_cast<double>(dead.size()));
      result.device_seconds = kAdvantageTiming.programming_us * 1e-6;
      result.dead_qubits = std::move(dead);
      return fail(failure_from_fault(FaultKind::kDeadQubits),
                  std::to_string(result.dead_qubits.size()) +
                      " embedded qubit(s) died mid-session");
    }
    const double drift = faults->drift_sigma();
    if (drift > 0.0) {
      sampler_options.ice_sigma += drift;
      obs::gauge(trace, "resilience.drift_sigma", drift);
    }
  }

  if (trace) {
    obs::Registry& reg = trace->registry();
    reg.set("embed.qubits_used", static_cast<double>(prepared.qubits_used));
    reg.set("embed.max_chain_length",
            static_cast<double>(prepared.max_chain_length));
    for (const auto& chain : prepared.embedding.chains) {
      reg.observe("embed.chain_length", static_cast<double>(chain.size()));
    }
  }

  const AnnealSampleResult sampled = sample_annealer(
      prepared.logical, prepared.problem, sampler_options, *ctx.rng, trace);
  result.samples.reserve(sampled.reads.size());
  result.evaluations.reserve(sampled.reads.size());
  for (const auto& read : sampled.reads) {
    keep(prepared.compiled.project(read.logical));
  }
  result.device_seconds = sampled.timing.total_us * 1e-6;
  if (result.samples.empty()) {
    return fail(FailureKind::kNoSamples, "annealer returned no samples");
  }
  return result;
}

Budget AnnealAdapter::initial_budget() const noexcept {
  // Degradation floor: deadline pressure halves reads toward it, never
  // below.
  constexpr std::size_t kMinReads = 10;
  return {options_->sampler.num_reads, 0, kMinReads, 0};
}

double AnnealAdapter::estimate_attempt_ms(const Budget& budget) const noexcept {
  return kAdvantageTiming.qpu_access_time_us(budget.samples) * 1e-3;
}

bool AnnealAdapter::degrade(Budget& budget) const noexcept {
  if (budget.samples <= budget.min_samples) return false;
  budget.samples = degrade_samples(budget.samples, budget.min_samples);
  return true;
}

}  // namespace nck::backend
