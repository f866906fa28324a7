// decompose_large: one Solver per solve runs the 203-variable chained set
// cover with decompose.enabled on the annealer, each solve under its own
// seed. The only workload where the partition, clamp, polish and LNS-round
// layers run; dominated by annealer sampling. A solve that misses the
// provable optimum of 41 subsets counts as failed.
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "decompose/decompose.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "runtime/solver.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kSetups = 5;
constexpr std::size_t kReps = 3;
constexpr std::size_t kProbeParts = 4;

void configure(nck::Solver& solver, const Config& config) {
  solver.solve_options().decompose.enabled = true;
  solver.solve_options().decompose.num_threads = config.workers;
}

struct Solved {
  double wall_ms = 0.0;
  nck::SolveReport report;
  nck::backend::PlanCacheStats cache;  // the solver's cache afterwards
};

Solved solve(const Config& config, const Program& program,
             std::uint64_t solve_seed) {
  nck::Solver solver(solve_seed);
  configure(solver, config);
  Solved s;
  const auto start = Clock::now();
  s.report = solver.solve(program.env, nck::BackendKind::kAnnealer);
  s.wall_ms = ms_since(start);
  s.cache = solver.plan_cache().stats();
  return s;
}

}  // namespace

Outcome run_decompose_large(const Config& config) {
  Outcome out;
  const Program program = set_cover_instance();
  const Program warm = warmup_program();

  // Set-up: the Solver a caller builds, plus one small solve through it.
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    nck::Solver solver(config.seed);
    configure(solver, config);
    const nck::SolveReport r =
        solver.solve(warm.env, nck::BackendKind::kAnnealer);
    setups.push_back(ms_since(start));
    out.check.solve(warm, r.ran, r.best_assignment, r.best_quality, &r.truth,
                    "set-up " + warm.label);
  }

  // Solve i runs under stream_seed(seed, i). The traced half re-solves the
  // untraced half's seeds, so both halves do identical work.
  const double phase_ms = config.seconds * 1e3 / (config.trace ? 2.0 : 1.0);
  std::vector<double> wall;
  std::vector<nck::SolveReport> reports;
  std::vector<nck::backend::PlanCacheStats> caches;
  Digest determinism;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; wall.empty() || ms_since(start) < phase_ms; ++i) {
    Solved s = solve(config, program, nck::stream_seed(config.seed, i));
    const nck::SolveReport& r = s.report;
    out.check.solve(program, r.ran, r.best_assignment, r.best_quality,
                    r.truth_exact ? &r.truth : nullptr,
                    program.label + " solve " + std::to_string(i));
    if (!r.decompose) out.check.op(false, "the decompose stage never ran");
    if (i == 0) {
      determinism.add(program.text);
      determinism.add(r.best_assignment);
    }
    wall.push_back(s.wall_ms);
    caches.push_back(s.cache);
    reports.push_back(std::move(s.report));
  }
  out.info["workload_digest"] = texts_digest({program});
  out.info["determinism_digest"] = determinism.hex();
  out.info["solves"] = std::to_string(wall.size());

  Metrics& m = out.metrics;
  if (!config.trace) {
    m.set("setup_s", median(setups) / 1e3, "s");
    m.set("throughput_per_s", 1e3 / median(wall), "1/s");
    m.set("latency_p50_ms", quantile(wall, 0.50), "ms");
    m.set("latency_p99_ms", quantile(wall, 0.99), "ms");
    m.set("time_to_solution_s", median(wall) / 1e3, "s");
    m.set("optimal_frac", out.check.optimal_frac(), "ratio");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  TraceFold fold;
  double traced_ms = 0.0;
  for (std::uint64_t i = 0; i < wall.size(); ++i) {
    const Solved s = solve(config, program, nck::stream_seed(config.seed, i));
    fold.add(s.report.trace);
    traced_ms += s.wall_ms;
  }

  // Sub-solves run on an internal pool whose traces stay inside it, so the
  // sub-solve layers are timed from outside on the clamped neighborhoods
  // of the first solve's final incumbent. The first kProbeParts parts
  // stand for all: embedding one ~120-qubit neighborhood takes ~0.5 s.
  nck::Solver solver(config.seed);
  const nck::decompose::Partition partition = nck::decompose::plan_partition(
      program.env, solver.solve_options().decompose.subproblem_vars,
      &solver.engine());
  const std::vector<bool>& incumbent = reports.front().best_assignment;
  std::vector<Program> subs;
  std::vector<double> clamp_ms, polish_ms;
  for (const std::vector<nck::VarId>& part : partition.parts) {
    if (subs.size() == kProbeParts) break;
    nck::decompose::Subproblem sub;
    clamp_ms.push_back(median_ms(kReps, [&] {
      sub = nck::decompose::clamp_to_incumbent(program.env, part, incumbent);
    }));
    const std::vector<bool> start_bits(sub.env.num_vars(), false);
    polish_ms.push_back(median_ms(kReps, [&] {
      (void)nck::decompose::polish_assignment(sub.env, start_bits);
    }));
    Program p;
    p.label = program.label + "/part";
    p.text = sub.env.to_string();
    p.env = std::move(sub.env);
    subs.push_back(std::move(p));
  }

  zero_layers(m);
  Probes probes;
  probes.synth = probes.truth = probes.embed = probes.sample = true;
  // What every sub-solve's sampler runs (decompose.polish_subsolves).
  probes.sampler.postprocess = true;
  probes.sampler.postprocess_tabu_iters = 512;
  probe_layers(subs, nck::BackendKind::kAnnealer, config.seed, probes, m);
  m.set("decompose.partition_ms", median_ms(kReps, [&] {
          (void)nck::decompose::plan_partition(
              program.env, solver.solve_options().decompose.subproblem_vars,
              &solver.engine());
        }),
        "ms");
  m.set("decompose.clamp_ms", median(clamp_ms), "ms");
  m.set("decompose.polish_ms", median(polish_ms), "ms");
  m.set("decompose.round_ms", fold.span_ms("round"), "ms");
  m.set("runtime.solve_self_ms", fold.self_ms("solve"), "ms");

  double rounds = 0, ran = 0, improved = 0, hits = 0, misses = 0;
  for (const nck::SolveReport& r : reports) {
    rounds += static_cast<double>(r.decompose->rounds);
    for (const nck::decompose::RoundStats& rs : r.decompose->round_stats) {
      ran += static_cast<double>(rs.subproblems_ran);
      improved += static_cast<double>(rs.improved);
      // Round 1 is the cold fill; iterated rounds re-visit neighborhoods.
      if (rs.round > 1) {
        hits += static_cast<double>(rs.cache_hits);
        misses += static_cast<double>(rs.cache_misses);
      }
    }
  }
  // The sub-solves share the solver's cache, so its counters (not the
  // parent trace's) carry the sub-plan and synthesis traffic.
  double cache_hits = 0, cache_lookups = 0, bytes = 0, evictions = 0;
  double synth_hits = 0, synth_lookups = 0;
  for (const nck::backend::PlanCacheStats& c : caches) {
    cache_hits += static_cast<double>(c.hits);
    cache_lookups += static_cast<double>(c.hits + c.misses);
    bytes += static_cast<double>(c.bytes);
    evictions += static_cast<double>(c.evictions);
    synth_hits += static_cast<double>(c.synth_hits);
    synth_lookups += static_cast<double>(c.synth_hits + c.synth_misses);
  }
  const double n = static_cast<double>(reports.size());
  m.set("synth.pattern_requests", synth_lookups / n, "count");
  m.set("synth.pattern_hit_ratio",
        synth_lookups > 0 ? synth_hits / synth_lookups : 0.0, "ratio");
  m.set("decompose.rounds", rounds / n, "count");
  m.set("decompose.subproblems_ran", ran / n, "count");
  m.set("decompose.improved_ratio", ran > 0 ? improved / ran : 0.0, "ratio");
  m.set("decompose.subplan_lookups", (hits + misses) / n, "count");
  m.set("decompose.subplan_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  m.set("backend.plan_cache_lookups", cache_lookups / n, "count");
  m.set("backend.plan_cache_hit_ratio",
        cache_lookups > 0 ? cache_hits / cache_lookups : 0.0, "ratio");
  m.set("backend.plan_cache_bytes", bytes / n, "bytes");
  m.set("backend.plan_cache_evictions", evictions, "count");
  const double untraced_ms = std::accumulate(wall.begin(), wall.end(), 0.0);
  m.set("obs.trace_overhead_frac", 1.0 - untraced_ms / traced_ms, "ratio");
  return out;
}

}  // namespace perfbench
