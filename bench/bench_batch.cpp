// Batch-solver study: what the shared plan cache and the SolverPool's
// thread pool buy on a sweep of distinct programs.
//
// Two measurements over one 16-program batch (annealer backend, where
// prepare = QUBO synthesis + minor embedding dominates a small-read
// sample budget):
//
//   cold vs warm   the same pool solves the batch twice; the second pass
//                  serves every plan from the cache and should beat the
//                  first by well over 1.5x;
//   thread scaling the cold batch on fresh pools with 1, 4, and 8
//                  workers; tasks are independent, so 1 -> 4 should be
//                  near-linear.
//
// Writes BENCH_batch.json (override with --out=<file>); CI validates the
// JSON and checks the cold/warm speedup floor.
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
  AnnealParams params;
  params.num_sweeps = k.num_sweeps;
  params.beta_initial = 0.05;
  params.beta_final = 6.0;
  Rng scalar_rng(7);
  Timer scalar_timer;
  double scalar_best = 0.0;
  for (std::size_t r = 0; r < k.num_reads; ++r) {
    const Qubo q = ising_to_qubo(ising);
    const Sample s = anneal_once(q, params, scalar_rng);
    if (r == 0 || s.energy < scalar_best) scalar_best = s.energy;
  }
  k.scalar_ms = scalar_timer.milliseconds();

  // Lockstep "after": the CSR program is built once per problem and the
  // reads, each from its own stream, anneal in groups of lockstep_lanes(),
  // as in sample_annealer (on one thread here).
  const PackedIsing packed(ising);
  LockstepWorkspace workspace(packed, lockstep_lanes());
  TemperingOptions options;
  options.num_sweeps = k.num_sweeps;
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
                     ReadProgram{}, options);
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

  // --- cold vs warm on one 4-worker pool --------------------------------
  SolverPool pool(pool_options(4));
  const double cold_ms = solve_batch_ms(pool, envs);
  // Best of three warm passes: the cache is already hot, so repetition
  // only strips scheduler noise from the measurement.
  double warm_ms = solve_batch_ms(pool, envs);
  for (int rep = 0; rep < 2; ++rep) {
    const double ms = solve_batch_ms(pool, envs);
    if (ms < warm_ms) warm_ms = ms;
  }
  const double speedup = warm_ms > 0.0 ? cold_ms / warm_ms : 0.0;
  const backend::PlanCacheStats cache = pool.plan_cache().stats();

  Table cache_table({"pass", "wall(ms)", "speedup"});
  cache_table.row().cell("cold (16 prepares)").cell(cold_ms, 2).cell("1.00x");
  cache_table.row().cell("warm (all cached)").cell(warm_ms, 2).cell(
      format_double(speedup, 2) + "x");
  cache_table.print(std::cout);
  std::cout << "\nplan cache: " << cache.hits << " hits, " << cache.misses
            << " misses, " << cache.bytes << " bytes\n\n";

  // --- cold-batch thread scaling on fresh pools -------------------------
  const std::size_t thread_counts[] = {1, 4, 8};
  std::vector<double> scaling_ms;
  for (std::size_t t : thread_counts) {
    SolverPool fresh(pool_options(t));
    scaling_ms.push_back(solve_batch_ms(fresh, envs));
  }
  Table scaling({"threads", "wall(ms)", "speedup vs 1"});
  for (std::size_t i = 0; i < scaling_ms.size(); ++i) {
    scaling.row()
        .cell(thread_counts[i])
        .cell(scaling_ms[i], 2)
        .cell(format_double(scaling_ms[0] / scaling_ms[i], 2) + "x");
  }
  scaling.print(std::cout);

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
      << ",\"cold_ms\":" << cold_ms << ",\"warm_ms\":" << warm_ms
      << ",\"speedup_cold_over_warm\":" << speedup << ",\"cache\":{\"hits\":"
      << cache.hits << ",\"misses\":" << cache.misses << ",\"evictions\":"
      << cache.evictions << ",\"bytes\":" << cache.bytes << "},\"scaling\":[";
  for (std::size_t i = 0; i < scaling_ms.size(); ++i) {
    if (i) out << ",";
    out << "{\"threads\":" << thread_counts[i] << ",\"ms\":" << scaling_ms[i]
        << ",\"speedup_vs_1\":" << scaling_ms[0] / scaling_ms[i] << "}";
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
