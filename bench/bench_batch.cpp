// Batch-solver study: what the shared plan cache and the SolverPool's
// thread pool buy on a sweep of distinct programs.
//
// Two measurements over one 16-program batch (annealer backend, where
// prepare = QUBO synthesis + minor embedding dominates a small-read
// sample budget):
//
//   cold vs warm   a fresh 4-worker pool solves the batch twice; the
//                  second pass serves every plan from the cache and should
//                  beat the first by well over 1.5x;
//   thread scaling the cold batch on fresh pools with 1, 4, and 8
//                  workers; tasks are independent, so 1 -> 4 should be
//                  near-linear.
//
// Each point is the median of kRepeats runs, each on a fresh pool, with
// the min and max beside it; the speedups are ratios of medians.
//
// Writes BENCH_batch.json (override with --out=<file>); CI validates the
// JSON and checks the cold/warm speedup and 1 -> 4 scaling floors.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "anneal/packed.hpp"
#include "graph/generators.hpp"
#include "problems/max_cut.hpp"
#include "problems/vertex_cover.hpp"
#include "qubo/heuristic.hpp"
#include "qubo/ising.hpp"
#include "runtime/pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace nck;

namespace {

/// 16 structurally distinct programs: every task needs its own synthesis
/// and embedding, so a cold batch is 16 prepares and a warm batch is 0.
/// Dense graphs on purpose — complete-graph QUBOs need chain-heavy minor
/// embeddings, the expensive prepare work the cache exists to amortize.
std::vector<Env> batch_programs() {
  std::vector<Env> envs;
  for (std::size_t n = 6; n < 14; ++n) {
    envs.push_back(MaxCutProblem{complete_graph(n)}.encode());
    envs.push_back(
        VertexCoverProblem{circulant_graph(n + 4, std::size_t{4})}.encode());
  }
  return envs;
}

PoolOptions pool_options(std::size_t threads) {
  PoolOptions options;
  options.num_threads = threads;
  // Small sample budget: keeps execute cheap so prepare (the cacheable
  // part) dominates, which is the regime batch pipelines run in.
  options.annealer.sampler.num_reads = 20;
  options.annealer.sampler.num_sweeps = 128;
  return options;
}

/// Fresh-pool runs behind every batch timing.
constexpr std::size_t kRepeats = 5;

double solve_batch_ms(SolverPool& pool, const std::vector<Env>& envs) {
  const auto start = std::chrono::steady_clock::now();
  const BatchReport report = pool.solve_all(envs, BackendKind::kAnnealer);
  const auto stop = std::chrono::steady_clock::now();
  std::size_t solved = report.solved();
  if (solved != envs.size()) {
    std::cerr << "bench_batch: only " << solved << "/" << envs.size()
              << " tasks solved\n";
  }
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// Before/after timing of the annealing hot loop itself: the retired scalar
/// per-read path (QUBO conversion + adjacency-list Metropolis, what
/// sample_annealer ran before the packed kernel) against the lockstep
/// parallel-tempering kernel (four reads per AVX2 step where the CPU has
/// AVX2), on an embedded-problem-density random Ising with an equal total
/// sweep budget per read.
struct KernelTimings {
  std::string label;
  std::size_t num_spins = 0;
  std::size_t num_reads = 0;
  std::size_t num_sweeps = 0;
  double scalar_ms = 0.0;
  double packed_ms = 0.0;
  double speedup = 0.0;
};

KernelTimings kernel_study(const std::string& label, const Graph& g) {
  KernelTimings k;
  k.label = label;
  k.num_spins = g.num_vertices();
  k.num_reads = 20;
  k.num_sweeps = 1024;

  Rng gen(99);
  IsingModel ising;
  ising.h.resize(k.num_spins);
  for (double& h : ising.h) h = gen.uniform(-1.0, 1.0);
  for (const Graph::Edge& e : g.edges()) {
    ising.j.emplace_back(e.first, e.second, gen.uniform(-1.0, 1.0));
  }

  // Scalar "before": per read, convert to QUBO and run the adjacency-list
  // annealer — exactly what each sampler read used to cost.
  Rng scalar_rng(7);
  Timer scalar_timer;
  double scalar_best = 0.0;
  for (std::size_t r = 0; r < k.num_reads; ++r) {
    const Qubo q = ising_to_qubo(ising);
    const Sample s = anneal_once(q, k.num_sweeps, scalar_rng);
    if (r == 0 || s.energy < scalar_best) scalar_best = s.energy;
  }
  k.scalar_ms = scalar_timer.milliseconds();

  // Lockstep "after": the CSR program is built once per problem and the
  // reads, each from its own stream, anneal in groups of lockstep_lanes(),
  // as in sample_annealer (on one thread here).
  const PackedIsing packed(ising);
  LockstepWorkspace workspace(packed, lockstep_lanes());
  Rng packed_rng(7);
  std::vector<Rng> streams;
  for (std::size_t r = 0; r < k.num_reads; ++r) {
    streams.push_back(packed_rng.split());
  }
  Timer packed_timer;
  double packed_best = 0.0;
  for (std::size_t first = 0; first < k.num_reads;
       first += workspace.lanes()) {
    const std::size_t count =
        std::min(workspace.lanes(), k.num_reads - first);
    workspace.anneal(std::span<Rng>(streams).subspan(first, count),
                     ReadProgram{}, AnnealerSamplerOptions{}.num_replicas,
                     k.num_sweeps);
    for (std::size_t lane = 0; lane < count; ++lane) {
      const double e = workspace.energy(lane);
      if (first + lane == 0 || e < packed_best) packed_best = e;
    }
  }
  k.packed_ms = packed_timer.milliseconds();
  k.speedup = k.packed_ms > 0.0 ? k.scalar_ms / k.packed_ms : 0.0;

  // Sanity line (offset is zero, so QUBO and packed energies compare 1:1).
  std::cout << "kernel [" << label << "]: best energy scalar " << scalar_best
            << " vs packed " << packed_best << "\n";
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_batch.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_batch [--out=<file>]\n";
      return 2;
    }
  }

  const std::vector<Env> envs = batch_programs();
  std::cout << "=== Batch solver: plan cache + thread scaling ===\n\n";
  std::cout << "batch: " << envs.size()
            << " distinct programs, annealer backend, 20 reads/task\n\n";

  // --- cold vs warm on fresh 4-worker pools ----------------------------
  std::vector<double> cold_runs, warm_runs;
  backend::PlanCacheStats cache;
  for (std::size_t rep = 0; rep < kRepeats; ++rep) {
    SolverPool pool(pool_options(4));
    cold_runs.push_back(solve_batch_ms(pool, envs));
    warm_runs.push_back(solve_batch_ms(pool, envs));
    cache = pool.plan_cache().stats();
  }
  const Summary cold = summarize(cold_runs);
  const Summary warm = summarize(warm_runs);
  const double speedup = warm.median > 0.0 ? cold.median / warm.median : 0.0;

  Table cache_table({"pass", "median(ms)", "min(ms)", "max(ms)", "speedup"});
  cache_table.row()
      .cell("cold (16 prepares)")
      .cell(cold.median, 2)
      .cell(cold.min, 2)
      .cell(cold.max, 2)
      .cell("1.00x");
  cache_table.row()
      .cell("warm (all cached)")
      .cell(warm.median, 2)
      .cell(warm.min, 2)
      .cell(warm.max, 2)
      .cell(format_double(speedup, 2) + "x");
  cache_table.print(std::cout);
  std::cout << "\nplan cache (one pool): " << cache.hits << " hits, "
            << cache.misses << " misses, " << cache.bytes << " bytes\n\n";

  // --- cold-batch thread scaling on fresh pools -------------------------
  const std::size_t thread_counts[] = {1, 4, 8};
  std::vector<Summary> scaling_ms;
  for (std::size_t t : thread_counts) {
    std::vector<double> runs;
    for (std::size_t rep = 0; rep < kRepeats; ++rep) {
      SolverPool fresh(pool_options(t));
      runs.push_back(solve_batch_ms(fresh, envs));
    }
    scaling_ms.push_back(summarize(runs));
  }
  const auto speedup_vs_1 = [&](std::size_t i) {
    return scaling_ms[0].median / scaling_ms[i].median;
  };
  Table scaling({"threads", "median(ms)", "min(ms)", "max(ms)",
                 "speedup vs 1"});
  for (std::size_t i = 0; i < scaling_ms.size(); ++i) {
    scaling.row()
        .cell(thread_counts[i])
        .cell(scaling_ms[i].median, 2)
        .cell(scaling_ms[i].min, 2)
        .cell(scaling_ms[i].max, 2)
        .cell(format_double(speedup_vs_1(i), 2) + "x");
  }
  scaling.print(std::cout);
  std::cout << "\n(median of " << kRepeats << " fresh-pool runs per row)\n";

  // --- annealing kernel: scalar adjacency loop vs lockstep tempering ----
  // Two density regimes: a degree-12 circulant at embedded-problem density
  // (chain-heavy minor embeddings on Pegasus have physical degree <= 15),
  // and a complete graph at logical density (NchooseK constraint blocks are
  // cliques, the regime the heuristic solver and boltzmann surrogate run).
  std::cout << "\n=== Annealing kernel: scalar vs lockstep ===\n\n";
  const std::vector<KernelTimings> kernels = {
      kernel_study("embedded-density", circulant_graph(128, std::size_t{12})),
      kernel_study("logical-clique", complete_graph(96)),
  };
  Table kernel_table({"problem", "scalar(ms)", "packed(ms)", "speedup"});
  for (const KernelTimings& k : kernels) {
    kernel_table.row()
        .cell(k.label)
        .cell(k.scalar_ms, 2)
        .cell(k.packed_ms, 2)
        .cell(format_double(k.speedup, 2) + "x");
  }
  kernel_table.print(std::cout);
  std::cout << "\n(per problem: " << kernels[0].num_reads << " reads x "
            << kernels[0].num_sweeps
            << " total sweeps, equal budget both kernels)\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_batch: cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\"bench\":\"batch\",\"tasks\":" << envs.size()
      << ",\"backend\":\"annealer\",\"reads_per_task\":20"
      << ",\"repeats\":" << kRepeats << ",\"cold_ms\":" << cold.median
      << ",\"cold_ms_min\":" << cold.min << ",\"cold_ms_max\":" << cold.max
      << ",\"warm_ms\":" << warm.median << ",\"warm_ms_min\":" << warm.min
      << ",\"warm_ms_max\":" << warm.max
      << ",\"speedup_cold_over_warm\":" << speedup << ",\"cache\":{\"hits\":"
      << cache.hits << ",\"misses\":" << cache.misses << ",\"evictions\":"
      << cache.evictions << ",\"bytes\":" << cache.bytes << "},\"scaling\":[";
  for (std::size_t i = 0; i < scaling_ms.size(); ++i) {
    if (i) out << ",";
    out << "{\"threads\":" << thread_counts[i]
        << ",\"ms\":" << scaling_ms[i].median
        << ",\"ms_min\":" << scaling_ms[i].min
        << ",\"ms_max\":" << scaling_ms[i].max
        << ",\"speedup_vs_1\":" << speedup_vs_1(i) << "}";
  }
  out << "],\"kernel\":[";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelTimings& k = kernels[i];
    if (i) out << ",";
    out << "{\"problem\":\"" << k.label << "\",\"num_spins\":" << k.num_spins
        << ",\"num_reads\":" << k.num_reads
        << ",\"num_sweeps\":" << k.num_sweeps
        << ",\"scalar_ms\":" << k.scalar_ms << ",\"packed_ms\":" << k.packed_ms
        << ",\"speedup\":" << k.speedup << "}";
  }
  out << "]}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
