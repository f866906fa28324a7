// The two SolverPool workloads. Both solve seeded batches of structurally
// distinct programs, one fresh pool (and plan cache) per batch:
//
//   batch_cold    annealer, certification on: every plan lookup misses and
//                 inserts, so time goes to synthesis, embedding, presolve,
//                 certification and truth (the write side of the cache);
//   qaoa_circuit  circuit backend on 10-16-qubit QUBOs, all on the dense
//                 state-vector path: transpile plus the QAOA optimizer loop.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "runtime/pool.hpp"

namespace perfbench {
namespace {

/// Batches covered by the determinism digest.
constexpr std::size_t kDigestBatches = 2;
constexpr int kSetups = 5;

struct Workload {
  nck::BackendKind backend = nck::BackendKind::kAnnealer;
  std::size_t batch_size = 0;
  nck::PoolOptions options;
  /// Program `index` of the seeded stream.
  std::function<Program(std::size_t index)> next;
};

/// Totals over every batch of one measured phase.
struct Tally {
  double wall_ms = 0.0;
  double busy_ms = 0.0;  // summed solve-span time of every task
  std::size_t programs = 0;
  std::vector<double> batch_ms;
  std::vector<double> solve_ms;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t cache_evictions = 0;
  std::vector<double> cache_bytes;
  std::size_t synth_hits = 0;  // the shared synthesis (pattern) cache
  std::size_t synth_misses = 0;

  /// Programs per second of the median batch (batches are equal in size),
  /// so one batch slowed by outside load moves it by one rank at most.
  double throughput() const {
    const double batch = static_cast<double>(programs) /
                         static_cast<double>(batch_ms.size());
    return batch / (median(batch_ms) / 1e3);
  }
  double busy_frac(std::size_t threads) const {
    return wall_ms > 0 ? busy_ms / (wall_ms * static_cast<double>(threads))
                       : 0.0;
  }
};

/// Median of `kSetups` pool constructions plus one warm-up batch.
double set_up(const Workload& w, Checker& check) {
  const Program warm = warmup_program();
  const std::vector<nck::Env> envs = {warm.env};
  std::vector<double> times;
  for (int i = 0; i < kSetups; ++i) {
    const auto start = Clock::now();
    nck::SolverPool pool(w.options);
    const nck::BatchReport batch = pool.solve_all(envs, w.backend);
    times.push_back(ms_since(start));
    const nck::SolveReport& r = batch.reports.front();
    check.solve(warm, r.ran, r.best_assignment, r.best_quality, &r.truth,
                "set-up " + warm.label);
  }
  return median(std::move(times)) / 1e3;
}

class Runner {
 public:
  Runner(const Workload& w, Outcome& out) : w_(w), out_(out) {}

  /// Solves batches for `seconds`. With `fold` the traces are folded inside
  /// the timed region, which is what tracing costs a consumer.
  Tally run(double seconds, TraceFold* fold) {
    Tally t;
    const auto start = Clock::now();
    while (t.programs == 0 || ms_since(start) < seconds * 1e3) {
      std::vector<Program> batch;
      std::vector<nck::Env> envs;
      for (std::size_t k = 0; k < w_.batch_size; ++k) {
        batch.push_back(w_.next(next_++));
        envs.push_back(batch.back().env);
      }
      const auto batch_start = Clock::now();
      nck::SolverPool pool(w_.options);
      const nck::BatchReport rep = pool.solve_all(envs, w_.backend);
      if (fold != nullptr) {
        for (const nck::SolveReport& r : rep.reports) fold->add(r.trace);
      }
      const double wall = ms_since(batch_start);
      t.wall_ms += wall;
      t.batch_ms.push_back(wall);
      t.programs += batch.size();
      t.cache_hits += rep.cache.hits;
      t.cache_misses += rep.cache.misses;
      t.cache_evictions += rep.cache.evictions;
      t.cache_bytes.push_back(static_cast<double>(rep.cache.bytes));
      t.synth_hits += rep.cache.synth_hits;
      t.synth_misses += rep.cache.synth_misses;
      for (std::size_t k = 0; k < batch.size(); ++k) {
        check(batch[k], rep.reports[k], t);
      }
      ++batches_;
    }
    return t;
  }

  const std::vector<Program>& probe_programs() const { return first_batch_; }
  std::string workload_digest() const { return workload_.hex(); }
  std::string determinism_digest() const { return determinism_.hex(); }

 private:
  void check(const Program& p, const nck::SolveReport& r, Tally& t) {
    const std::string context = p.label + " (batch " +
                                std::to_string(batches_) + ")";
    out_.check.solve(p, r.ran, r.best_assignment, r.best_quality,
                     r.truth_exact ? &r.truth : nullptr, context);
    if (r.trace.find_span("qaoa.surrogate") != nullptr) {
      out_.check.op(false, context + ": left the state-vector path");
    }
    if (const nck::obs::SpanRecord* solve = r.trace.find_span("solve")) {
      t.solve_ms.push_back(solve->duration_us / 1e3);
      t.busy_ms += solve->duration_us / 1e3;
    }
    workload_.add(p.text);
    if (batches_ < kDigestBatches) {
      determinism_.add(p.text);
      determinism_.add(r.best_assignment);
      first_batch_.push_back(p);
    }
  }

  const Workload& w_;
  Outcome& out_;
  std::size_t next_ = 0;
  std::size_t batches_ = 0;
  std::vector<Program> first_batch_;
  Digest workload_;
  Digest determinism_;
};

Outcome run_pool(const Config& config, const Workload& w, Probes probes) {
  Outcome out;
  Runner runner(w, out);
  const double setup_s = config.pool_probe ? 0.0 : set_up(w, out.check);
  const std::size_t threads = w.options.num_threads;

  if (config.pool_probe) {
    const Tally t = runner.run(config.seconds, nullptr);
    out.metrics.set("runtime.pool_busy_frac", t.busy_frac(threads), "ratio");
    out.metrics.set("throughput_per_s", t.throughput(), "1/s");
    return out;
  }

  TraceFold fold;
  const Tally t =
      runner.run(config.trace ? config.seconds / 2 : config.seconds, nullptr);
  out.info["workload_digest"] = runner.workload_digest();
  out.info["determinism_digest"] = runner.determinism_digest();
  out.info["programs"] = std::to_string(t.programs);
  out.info["batch_size"] = std::to_string(w.batch_size);

  Metrics& m = out.metrics;
  if (!config.trace) {
    m.set("setup_s", setup_s, "s");
    m.set("throughput_per_s", t.throughput(), "1/s");
    m.set("latency_p50_ms", quantile(t.solve_ms, 0.50), "ms");
    m.set("latency_p99_ms", quantile(t.solve_ms, 0.99), "ms");
    m.set("time_to_solution_s", median(t.batch_ms) / 1e3, "s");
    m.set("optimal_frac", out.check.optimal_frac(), "ratio");
    m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return out;
  }

  const Tally traced = runner.run(config.seconds / 2, &fold);
  zero_layers(m);
  probe_layers(runner.probe_programs(), w.backend, w.options.seed, probes, m);
  m.set("runtime.solve_self_ms", fold.self_ms("solve"), "ms");
  const double patterns = static_cast<double>(t.synth_hits + t.synth_misses);
  m.set("synth.pattern_requests", patterns, "count");
  m.set("synth.pattern_hit_ratio",
        patterns > 0 ? static_cast<double>(t.synth_hits) / patterns : 0.0,
        "ratio");
  const double lookups = static_cast<double>(t.cache_hits + t.cache_misses);
  m.set("backend.plan_cache_lookups", lookups, "count");
  m.set("backend.plan_cache_hit_ratio",
        lookups > 0 ? static_cast<double>(t.cache_hits) / lookups : 0.0,
        "ratio");
  m.set("backend.plan_cache_bytes", mean(t.cache_bytes), "bytes");
  m.set("backend.plan_cache_evictions",
        static_cast<double>(t.cache_evictions), "count");
  if (w.backend == nck::BackendKind::kAnnealer) {
    m.set("anneal.sample_ms", fold.span_ms("anneal.sample"), "ms");
    m.set("anneal.qubits", fold.gauge("embed.qubits_used"), "count");
    m.set("anneal.chain_break_frac", fold.gauge("anneal.chain_break_rate"),
          "ratio");
  } else {
    m.set("circuit.qaoa_optimize_ms", fold.span_ms("qaoa.optimize"), "ms");
    m.set("circuit.qaoa_sample_ms", fold.span_ms("qaoa.sample"), "ms");
    const double solves = static_cast<double>(fold.traces());
    m.set("circuit.qaoa_jobs",
          solves > 0 ? fold.counter("qaoa.jobs") / solves : 0.0, "count");
    m.set("circuit.swap_count", fold.gauge("transpile.swap_count"), "count");
  }
  m.set("runtime.pool_busy_frac", t.busy_frac(threads), "ratio");
  m.set("obs.trace_overhead_frac",
        t.throughput() > 0 ? 1.0 - traced.throughput() / t.throughput() : 0.0,
        "ratio");
  return out;
}

nck::PoolOptions pool_options(const Config& config) {
  nck::PoolOptions options;
  options.num_threads = config.workers;
  options.seed = config.seed;
  return options;
}

}  // namespace

Outcome run_batch_cold(const Config& config) {
  Workload w;
  w.backend = nck::BackendKind::kAnnealer;
  w.batch_size = 20;  // four programs of each of the five problems
  w.options = pool_options(config);
  // A small sample budget keeps execution cheap, so the cacheable prepare
  // work (the write side) dominates, as in batch pipelines.
  w.options.annealer.sampler.num_reads = 20;
  w.options.annealer.sampler.num_sweeps = 128;
  nck::SolveOptions solve;
  solve.certify = true;
  w.options.solve = solve;
  auto rng = std::make_shared<nck::Rng>(config.seed);
  w.next = [rng](std::size_t index) { return cold_program(*rng, index); };
  Probes probes;
  probes.synth = probes.certify = probes.truth = probes.embed = true;
  return run_pool(config, w, probes);
}

Outcome run_qaoa_circuit(const Config& config) {
  Workload w;
  w.backend = nck::BackendKind::kCircuit;
  w.batch_size = 6;  // both problems at 10, 13 and 16 qubits
  w.options = pool_options(config);
  auto rng = std::make_shared<nck::Rng>(config.seed);
  auto engine = std::make_shared<nck::SynthEngine>();
  w.next = [rng, engine](std::size_t index) {
    return qaoa_program(*rng, *engine, index);
  };
  Probes probes;
  probes.synth = probes.truth = probes.transpile = true;
  return run_pool(config, w, probes);
}

}  // namespace perfbench
