// Fig 7 reproduction: percentage of optimal results (y) versus physical
// qubits used (x) on the (simulated) D-Wave Advantage, per problem, under
// the Section VII vertex-scaling study. Expected shape, per the paper:
//   * success decays as qubit usage grows;
//   * problems with soft constraints (max cut, min vertex cover, min set
//     cover) generally fare *worse* than hard-only problems at similar
//     sizes, because hard constraints get a larger bias and the optimal/
//     suboptimal energy gap shrinks — but their optimal+suboptimal
//     ("correct") rate is higher;
//   * exact cover is the soft-less exception that degrades early.
#include <iostream>

#include "anneal/backend.hpp"
#include "anneal/topology.hpp"
#include "harness.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace nck;
using nck::bench::Instance;

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  // Per-problem size caps: the one-hot problems blow up quadratically in
  // QUBO variables, so they stop earlier (as they do in the paper, where
  // clique cover is the first to fail).
  const std::size_t cheap_max = quick ? 12 : 33;
  const std::size_t coloring_max = quick ? 12 : 15;
  // "12 vertices ... is where the clique cover problem fails on the D-Wave
  // system" (Section VII) — and where our embedder's budget is spent too.
  const std::size_t clique_max = 12;
  const std::size_t cover_max = quick ? 12 : 18;
  const std::size_t sat_max = quick ? 8 : 12;

  std::cout << "=== Fig 7: % optimal vs qubits used (simulated Advantage) ===\n"
            << "(100 reads per problem; 'correct' = optimal or suboptimal)\n\n";

  Rng device_rng(2022);
  const Device device = advantage_4_1(device_rng);
  AnnealBackendOptions options;
  options.sampler.num_reads = 100;
  const backend::AnnealAdapter annealer(&options, &device);
  SynthEngine engine;
  Rng rng(7);

  Table table({"problem", "size", "nck-vars", "qubits", "max-chain",
               "%optimal", "%correct", "any-opt", "soft?"});

  std::vector<bench::Instance> instances;
  for (const char* problem : {"max-cut", "min-vertex-cover"}) {
    for (auto& inst : bench::graph_instances(problem, cheap_max)) {
      instances.push_back(std::move(inst));
    }
  }
  for (auto& inst : bench::graph_instances("map-coloring", coloring_max)) {
    instances.push_back(std::move(inst));
  }
  for (auto& inst : bench::graph_instances("clique-cover", clique_max)) {
    instances.push_back(std::move(inst));
  }
  for (const char* problem : {"exact-cover", "min-set-cover"}) {
    for (auto& inst : bench::cover_instances(problem, cover_max)) {
      instances.push_back(std::move(inst));
    }
  }
  for (auto& inst : bench::ksat_instances(sat_max)) {
    instances.push_back(std::move(inst));
  }

  for (bench::Instance& inst : instances) {
    const GroundTruth& truth = inst.truth;  // precomputed by the harness
    if (!truth.feasible) continue;

    obs::Trace trace;
    const backend::ExecutionResult result =
        backend::run_once(annealer, inst.env, engine, rng, &trace);
    if (result.failure != FailureKind::kNone) {
      table.row()
          .cell(inst.problem)
          .cell(inst.label)
          .cell(inst.env.num_vars())
          .cell("(embed failed)")
          .cell("-")
          .cell("-")
          .cell("-")
          .cell("-")
          .cell(inst.env.num_soft() > 0 ? "yes" : "no");
      continue;
    }
    const QualityCounts counts = classify_all(result.evaluations, truth);
    const auto max_chain = static_cast<std::size_t>(
        trace.snapshot().gauge("embed.max_chain_length"));
    table.row()
        .cell(inst.problem)
        .cell(inst.label)
        .cell(inst.env.num_vars())
        .cell(result.qubits_used)
        .cell(max_chain)
        .cell(100.0 * counts.fraction_optimal(), 1)
        .cell(100.0 * counts.fraction_correct(), 1)
        .cell(counts.any_optimal() ? "yes" : "NO")
        .cell(inst.env.num_soft() > 0 ? "yes" : "no");
  }
  table.print(std::cout);
  std::cout << "\n(run with --quick for a smaller sweep)\n";
  return 0;
}
