#include "anneal/backend.hpp"

#include <numeric>

#include "qubo/ising.hpp"
#include "qubo/presolve.hpp"
#include "util/timer.hpp"

namespace nck {
namespace {

// Expands a sample over the (possibly compacted) sampled problem back to
// the program variables.
std::vector<bool> to_program_vars(const AnnealPrepared& prepared,
                                  const std::vector<bool>& sampled) {
  std::vector<bool> full(prepared.compiled.num_qubo_vars(), false);
  if (prepared.use_presolve) {
    for (std::size_t k = 0; k < prepared.free_vars.size(); ++k) {
      full[prepared.free_vars[k]] = sampled[k];
    }
    full = prepared.pres.complete(std::move(full));
  } else {
    full = sampled;
    full.resize(prepared.compiled.num_qubo_vars(), false);
  }
  return {full.begin(), full.begin() + static_cast<std::ptrdiff_t>(
                            prepared.compiled.num_problem_vars)};
}

}  // namespace

std::size_t AnnealPrepared::bytes() const noexcept {
  std::size_t total = sizeof(AnnealPrepared);
  total += compiled.qubo.num_variables() * sizeof(double);
  total += compiled.qubo.num_quadratic_terms() * 3 * sizeof(double);
  total += pres.fixed.capacity() * sizeof(int);
  total += pres.reduced.num_variables() * sizeof(double);
  total += free_vars.capacity() * sizeof(std::size_t);
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
  // The env copy: constraint collections dominate.
  for (const Constraint& c : env.constraints()) {
    total += c.collection().capacity() * sizeof(VarId);
    total += c.distinct_vars().capacity() * sizeof(VarId);
  }
  return total;
}

AnnealPrepared prepare_annealer(const Env& env, const Device& device,
                                SynthEngine& engine, Rng& rng,
                                const AnnealBackendOptions& options,
                                obs::Trace* trace) {
  AnnealPrepared prepared;
  prepared.env = env;
  prepared.use_presolve = options.use_presolve;

  Timer compile_timer;
  prepared.compiled = compile(env, engine, options.compile, trace);

  // Optional presolve: pin decidable variables, then sample only the free
  // ones. `free_vars` maps compacted indices back to full QUBO indices.
  Qubo sampled_qubo = prepared.compiled.qubo;
  if (options.use_presolve) {
    obs::Span presolve_span(trace, "presolve");
    prepared.pres = presolve(prepared.compiled.qubo);
    std::vector<Qubo::Var> to_sampled(prepared.compiled.num_qubo_vars(), 0);
    for (std::size_t i = 0; i < prepared.pres.fixed.size(); ++i) {
      if (prepared.pres.fixed[i] == -1) {
        to_sampled[i] = static_cast<Qubo::Var>(prepared.free_vars.size());
        prepared.free_vars.push_back(i);
      }
    }
    sampled_qubo = prepared.pres.reduced.remapped(to_sampled);
    sampled_qubo.resize(prepared.free_vars.size());
    obs::count(trace, "presolve.fixed",
               static_cast<double>(prepared.pres.num_fixed));
  }
  prepared.num_sampled_vars = sampled_qubo.num_variables();
  prepared.logical = qubo_to_ising(sampled_qubo);
  prepared.compile_ms = compile_timer.milliseconds();

  if (prepared.num_sampled_vars == 0) {
    // Everything pinned by presolve: the answer is deterministic and
    // nothing needs embedding.
    prepared.embedded = true;
    return prepared;
  }

  obs::Span embed_span(trace, "embed");
  Timer embed_timer;
  const Graph logical_graph = interaction_graph(sampled_qubo);
  const Graph& working = device.working_graph();
  const auto embedding =
      find_embedding(logical_graph, working, rng, options.embed);
  prepared.embed_ms = embed_timer.milliseconds();
  embed_span.close();
  if (!embedding) return prepared;  // embedded == false

  prepared.embedded = true;
  prepared.embedding = *embedding;
  prepared.qubits_used = embedding->total_qubits();
  prepared.max_chain_length = embedding->max_chain_length();
  prepared.problem = embed_ising(prepared.logical, prepared.embedding, working,
                                 options.chain_strength);
  return prepared;
}

AnnealOutcome execute_annealer(const AnnealPrepared& prepared, Rng& rng,
                               const AnnealBackendOptions& options,
                               obs::Trace* trace) {
  AnnealOutcome outcome;
  outcome.num_logical = prepared.compiled.num_qubo_vars();
  outcome.presolve_fixed = prepared.pres.num_fixed;
  outcome.timing.client_compile_ms = prepared.compile_ms;
  outcome.timing.client_embed_ms = prepared.embed_ms;

  if (!prepared.embedded) return outcome;  // embedded == false

  if (prepared.num_sampled_vars == 0) {
    // Fully pinned by presolve: replicate the deterministic answer.
    outcome.embedded = true;
    for (std::size_t r = 0; r < options.sampler.num_reads; ++r) {
      std::vector<bool> program_vars = to_program_vars(prepared, {});
      outcome.evaluations.push_back(prepared.env.evaluate(program_vars));
      outcome.samples.push_back(std::move(program_vars));
    }
    return outcome;
  }

  outcome.embedded = true;
  outcome.qubits_used = prepared.qubits_used;
  outcome.max_chain_length = prepared.max_chain_length;

  if (options.faults) {
    // The job is built and submitted only now, so an injected session
    // fault wastes the client-side compile/embed work — as on real QPUs.
    // Note: `rng` is untouched until both gates below pass.
    if (const auto fault = options.faults->submit_fault()) {
      outcome.fault = fault;
      obs::count(trace, std::string("resilience.fault.") + fault_name(*fault));
      return outcome;
    }
    // Mid-session dead-qubit event: the device was already programmed, so
    // that time is lost; the current embedding is invalidated.
    std::vector<std::size_t> in_use;
    for (const auto& chain : prepared.embedding.chains) {
      in_use.insert(in_use.end(), chain.begin(), chain.end());
    }
    const std::vector<std::size_t> dead =
        options.faults->dead_qubit_event(in_use);
    if (!dead.empty()) {
      outcome.fault = FaultKind::kDeadQubits;
      outcome.dead_qubits = dead;
      outcome.timing.programming_us = options.sampler.timing_model.programming_us;
      outcome.timing.total_us = outcome.timing.programming_us;
      obs::count(trace, "resilience.fault.dead-qubits");
      obs::count(trace, "resilience.dead_qubits",
                 static_cast<double>(dead.size()));
      return outcome;
    }
  }

  if (trace) {
    obs::Registry& reg = trace->registry();
    reg.set("embed.qubits_used", static_cast<double>(outcome.qubits_used));
    reg.set("embed.max_chain_length",
            static_cast<double>(outcome.max_chain_length));
    for (const auto& chain : prepared.embedding.chains) {
      reg.observe("embed.chain_length", static_cast<double>(chain.size()));
    }
  }

  AnnealerSamplerOptions sampler_options = options.sampler;
  if (options.faults) {
    const double drift = options.faults->drift_sigma();
    if (drift > 0.0) {
      sampler_options.ice_sigma += drift;
      obs::gauge(trace, "resilience.drift_sigma", drift);
    }
  }

  const AnnealSampleResult sampled = sample_annealer(
      prepared.logical, prepared.problem, sampler_options, rng, trace);

  outcome.samples.reserve(sampled.reads.size());
  outcome.evaluations.reserve(sampled.reads.size());
  for (const auto& read : sampled.reads) {
    std::vector<bool> program_vars = to_program_vars(prepared, read.logical);
    outcome.evaluations.push_back(prepared.env.evaluate(program_vars));
    outcome.samples.push_back(std::move(program_vars));
  }
  outcome.timing = sampled.timing;
  outcome.timing.client_compile_ms = prepared.compile_ms;
  outcome.timing.client_embed_ms = prepared.embed_ms;
  return outcome;
}

AnnealOutcome run_annealer(const Env& env, const Device& device,
                           SynthEngine& engine, Rng& rng,
                           const AnnealBackendOptions& options,
                           obs::Trace* trace) {
  const AnnealPrepared prepared =
      prepare_annealer(env, device, engine, rng, options, trace);
  return execute_annealer(prepared, rng, options, trace);
}

}  // namespace nck
