#include "core/compile.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "qubo/brute_force.hpp"

namespace nck {

double max_min_penalty(const SynthesizedQubo& synth) {
  if (synth.num_vars + synth.num_ancillas > 24) {
    throw std::invalid_argument("max_min_penalty: constraint too large");
  }
  double worst = 0.0;
  for (double m : ancilla_projected_minima(synth.qubo, synth.num_vars,
                                           synth.num_ancillas)) {
    worst = std::max(worst, m);
  }
  return worst;
}

CompiledQubo compile(const Env& env, SynthEngine& engine, obs::Trace* trace) {
  obs::Span compile_span(trace, "compile");
  const SynthEngineStats stats_before = engine.stats();
  CompiledQubo out;
  out.num_problem_vars = env.num_vars();

  // Pass 1: synthesize every constraint, instantiate soft ones at weight
  // 1/gap (cheapest violation costs exactly 1), and collect hard ones with
  // their gaps so they can be scaled afterwards.
  struct PendingHard {
    Qubo qubo;   // already remapped into program space
    double gap;  // minimum violation energy at weight 1
  };
  std::vector<PendingHard> hard;
  Qubo soft_sum(env.num_vars());
  double max_soft_energy = 0.0;
  std::size_t next_ancilla = env.num_vars();

  for (const auto& c : env.constraints()) {
    const SynthesizedQubo& synth = engine.synthesize(c.pattern());
    // Mapping: pattern variable i -> program variable; ancillas -> fresh ids.
    std::vector<Qubo::Var> mapping;
    mapping.reserve(synth.num_vars + synth.num_ancillas);
    for (VarId v : c.distinct_vars()) mapping.push_back(v);
    for (std::size_t k = 0; k < synth.num_ancillas; ++k) {
      mapping.push_back(static_cast<Qubo::Var>(next_ancilla++));
    }
    Qubo instantiated = synth.qubo.remapped(mapping);
    if (c.soft()) {
      if (synth.gap <= 0.0) {
        throw std::runtime_error("compile: non-positive gap for " +
                                 c.to_string(env.var_names()));
      }
      instantiated.scale(1.0 / synth.gap);
      soft_sum += instantiated;
      max_soft_energy += max_min_penalty(synth) / synth.gap;
    } else {
      hard.push_back({std::move(instantiated), synth.gap});
    }
  }

  // Pass 2: hard constraints must dominate all soft energy. Scaling each by
  // hard_scale / gap makes the cheapest hard violation cost
  // max_soft_energy + kHardMargin.
  out.max_soft_energy = max_soft_energy;
  out.hard_scale = max_soft_energy + kHardMargin;
  Qubo total(env.num_vars());
  for (auto& h : hard) {
    h.qubo.scale(out.hard_scale / h.gap);
    total += h.qubo;
  }
  total += soft_sum;
  total.resize(next_ancilla);  // declare trailing ancillas even if untouched
  out.qubo = std::move(total);
  out.num_ancillas = next_ancilla - env.num_vars();

  if (trace) {
    // Promote this run's SynthEngine::Stats deltas into the trace (the
    // engine is long-lived and its totals span solves).
    const SynthEngineStats& now = engine.stats();
    obs::Registry& reg = trace->registry();
    const auto delta = [](std::size_t after, std::size_t before) {
      return static_cast<double>(after - before);
    };
    reg.add("synth.requests", delta(now.requests, stats_before.requests));
    reg.add("synth.cache_hits", delta(now.cache_hits, stats_before.cache_hits));
    reg.add("synth.cache_misses",
            delta(now.requests, stats_before.requests) -
                delta(now.cache_hits, stats_before.cache_hits));
    reg.add("synth.builtin_hits",
            delta(now.builtin_hits, stats_before.builtin_hits));
    reg.add("synth.z3_calls", delta(now.z3_calls, stats_before.z3_calls));
    reg.add("synth.lp_calls", delta(now.lp_calls, stats_before.lp_calls));
    reg.set("compile.qubo_vars", static_cast<double>(out.num_qubo_vars()));
    reg.set("compile.ancillas", static_cast<double>(out.num_ancillas));
    reg.set("compile.hard_scale", out.hard_scale);
  }
  return out;
}

CompiledQubo compile(const Env& env) {
  SynthEngine engine;
  return compile(env, engine);
}

}  // namespace nck
