#include "layers.hpp"

#include <algorithm>
#include <string>

#include "analysis/analyzer.hpp"
#include "analysis/certify.hpp"
#include "analysis/qubo_passes.hpp"
#include "analysis/reduce/reduce.hpp"
#include "anneal/embedded_ising.hpp"
#include "anneal/embedding.hpp"
#include "anneal/topology.hpp"
#include "circuit/coupling.hpp"
#include "circuit/qaoa.hpp"
#include "circuit/transpiler.hpp"
#include "core/compile.hpp"
#include "core/parse.hpp"
#include "qubo/ising.hpp"
#include "runtime/solver.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kReps = 3;

/// Keeps every timed result observable, so no timed call is optimized away.
volatile std::size_t g_sink = 0;
void keep(std::size_t value) { g_sink = value; }
/// Programs probed per workload: enough to cover the mix, few enough that
/// the cold layers (embedding, certification) stay under a second.
constexpr std::size_t kMaxPrograms = 10;

/// Median over programs of `time(program)`.
template <class Fn>
double per_program(const std::vector<Program>& programs, Fn&& time) {
  std::vector<double> values;
  const std::size_t n = std::min(programs.size(), kMaxPrograms);
  for (std::size_t i = 0; i < n; ++i) values.push_back(time(programs[i]));
  return median(std::move(values));
}

}  // namespace

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"runtime.solver_construct_ms", "ms"},
      {"anneal.device_build_ms", "ms"},
      {"graph.working_graph_ms", "ms"},
      {"backend.plan_key_ms", "ms"},
      {"analysis.analyze_ms", "ms"},
      {"core.parse_ms", "ms"},
      {"analysis.presolve_ms", "ms"},
      {"runtime.solve_self_ms", "ms"},
      {"synth.synthesize_ms", "ms"},
      {"synth.pattern_hit_ratio", "ratio"},
      {"synth.pattern_requests", "count"},
      {"core.compile_ms", "ms"},
      {"anneal.embed_ms", "ms"},
      {"analysis.certify_ms", "ms"},
      {"classical.truth_ms", "ms"},
      {"backend.plan_cache_hit_ratio", "ratio"},
      {"backend.plan_cache_lookups", "count"},
      {"backend.plan_cache_bytes", "bytes"},
      {"backend.plan_cache_evictions", "count"},
      {"anneal.sample_ms", "ms"},
      {"anneal.qubits", "count"},
      {"anneal.chain_break_frac", "ratio"},
      {"decompose.partition_ms", "ms"},
      {"decompose.clamp_ms", "ms"},
      {"decompose.polish_ms", "ms"},
      {"decompose.round_ms", "ms"},
      {"decompose.rounds", "count"},
      {"decompose.subproblems_ran", "count"},
      {"decompose.improved_ratio", "ratio"},
      {"decompose.subplan_hit_ratio", "ratio"},
      {"decompose.subplan_lookups", "count"},
      {"circuit.transpile_ms", "ms"},
      {"circuit.qaoa_optimize_ms", "ms"},
      {"circuit.qaoa_sample_ms", "ms"},
      {"circuit.qaoa_jobs", "count"},
      {"circuit.swap_count", "count"},
      {"runtime.pool_busy_frac", "ratio"},
      {"runtime.pool_busy_frac_omp_default", "ratio"},
      {"runtime.omp_default_speedup", "ratio"},
      {"serve.queue_ms", "ms"},
      {"serve.service_ms", "ms"},
      {"serve.overhead_ms", "ms"},
      {"serve.generator_late_p99_ms", "ms"},
      {"serve.open_p50_ms", "ms"},
      {"serve.open_p99_ms", "ms"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return kMetrics;
}

void zero_layers(Metrics& out) {
  for (const LayerMetric& m : layer_metrics()) out.set(m.name, 0.0, m.unit);
}

void probe_layers(const std::vector<Program>& programs,
                  nck::BackendKind backend, std::uint64_t seed,
                  const Probes& which, Metrics& out) {
  out.set("runtime.solver_construct_ms", median_ms(kReps, [&] {
            keep(nck::Solver(seed).plan_cache().stats().entries);
          }),
          "ms");
  // The Solver's own calibration stream, so the probed device is the one
  // every solve of the workload runs on.
  nck::Rng device_rng(seed ^ 0xD3071CEull);
  const nck::Device device = nck::advantage_4_1(device_rng);
  out.set("anneal.device_build_ms", median_ms(kReps, [&] {
            nck::Rng rng(seed ^ 0xD3071CEull);
            keep(nck::advantage_4_1(rng).graph.num_edges());
          }),
          "ms");
  const nck::Graph working = device.working_graph();
  out.set("graph.working_graph_ms",
          median_ms(kReps, [&] { keep(device.working_graph().num_edges()); }),
          "ms");

  nck::Solver solver(seed);
  const nck::backend::Backend& be = *solver.backends().find(backend);
  out.set("backend.plan_key_ms", per_program(programs, [&](const Program& p) {
            nck::backend::PrepareContext ctx;
            ctx.env = &p.env;
            ctx.engine = &solver.engine();
            ctx.device = &device;
            return median_ms(kReps, [&] { keep(be.plan_key(ctx).lo() & 1u); });
          }),
          "ms");
  // Warm engine: the first call synthesizes, the median is the steady
  // per-request cost a served solve pays.
  out.set("analysis.analyze_ms", per_program(programs, [&](const Program& p) {
            return median_ms(kReps, [&] {
              keep(solver.analyzer().analyze(p.env, solver.engine(),
                                       be.analysis_target())
                          .diagnostics()
                          .size());
            });
          }),
          "ms");
  out.set("analysis.presolve_ms", per_program(programs, [&](const Program& p) {
            return median_ms(kReps, [&] {
              keep(nck::reduce_program(p.env).steps.size());
            });
          }),
          "ms");

  if (which.parse) {
    out.set("core.parse_ms", per_program(programs, [&](const Program& p) {
              return median_ms(kReps, [&] {
                keep(nck::parse_program(p.text).num_constraints());
              });
            }),
            "ms");
  }

  nck::SynthEngine& warm = solver.engine();
  if (which.synth) {
    out.set("synth.synthesize_ms", per_program(programs, [&](const Program& p) {
              std::vector<double> times;
              for (std::size_t r = 0; r < kReps; ++r) {
                nck::SynthEngine cold;
                const auto start = Clock::now();
                for (const nck::Constraint& c : p.env.constraints()) {
                  keep(cold.synthesize(c.pattern()).num_ancillas);
                }
                times.push_back(ms_since(start));
              }
              return median(std::move(times));
            }),
            "ms");
    out.set("core.compile_ms", per_program(programs, [&](const Program& p) {
              return median_ms(kReps, [&] {
                keep(nck::compile(p.env, warm).num_ancillas);
              });
            }),
            "ms");
  }
  if (which.certify) {
    out.set("analysis.certify_ms", per_program(programs, [&](const Program& p) {
              return median_ms(kReps, [&] {
                keep(nck::certify_program(p.env, warm).constraints.size());
              });
            }),
            "ms");
  }
  if (which.truth) {
    out.set("classical.truth_ms", per_program(programs, [&](const Program& p) {
              return median_ms(kReps, [&] {
                keep(nck::ground_truth(p.env).best_soft_satisfied);
              });
            }),
            "ms");
  }

  if (which.embed || which.sample) {
    std::vector<double> embed_ms, sample_ms, qubits;
    TraceFold sampled;
    const std::size_t n = std::min(programs.size(), kMaxPrograms);
    for (std::size_t i = 0; i < n; ++i) {
      const nck::CompiledQubo compiled = nck::compile(programs[i].env, warm);
      const nck::Graph logical = nck::interaction_graph(compiled.qubo);
      const nck::IsingModel ising = nck::qubo_to_ising(compiled.qubo);
      nck::EmbeddedProblem problem;
      embed_ms.push_back(median_ms(kReps, [&] {
        nck::Rng rng(seed);
        const auto embedding = nck::find_embedding(logical, working, rng);
        if (embedding) problem = nck::embed_ising(ising, *embedding, working);
      }));
      if (problem.num_physical_qubits() == 0) continue;
      qubits.push_back(static_cast<double>(problem.num_physical_qubits()));
      nck::Rng rng(seed);
      sample_ms.push_back(median_ms(kReps, [&] {
        nck::obs::Trace trace;  // for the chain-break rate it records
        keep(nck::sample_annealer(ising, problem, which.sampler, rng, &trace)
                 .reads.size());
        sampled.add(trace.snapshot());
      }));
    }
    out.set("anneal.qubits", median(qubits), "count");
    if (which.embed) out.set("anneal.embed_ms", median(embed_ms), "ms");
    if (which.sample) {
      out.set("anneal.sample_ms", median(sample_ms), "ms");
      out.set("anneal.chain_break_frac",
              sampled.gauge("anneal.chain_break_rate"), "ratio");
    }
  }

  if (which.transpile) {
    const nck::Graph coupling = nck::brooklyn_coupling();
    out.set("circuit.transpile_ms",
            per_program(programs, [&](const Program& p) {
              const nck::CompiledQubo compiled = nck::compile(p.env, warm);
              // Angles do not change the gate structure transpile routes.
              const nck::Circuit circuit = nck::build_qaoa_circuit(
                  nck::qubo_to_ising(compiled.qubo), {0.4, 0.3});
              return median_ms(kReps, [&] {
                const auto routed = nck::transpile(circuit, coupling);
                keep(routed ? routed->swap_count : 0);
              });
            }),
            "ms");
  }
}

}  // namespace perfbench
