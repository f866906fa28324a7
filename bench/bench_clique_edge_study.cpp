// Section VIII-A reproduction: the clique-cover edge-scaling study on
// 12 vertices. The paper's observations:
//   * at 48 one-hot variables and 18 edges the problem needs 188 physical
//     qubits; *adding* edges removes complement-edge constraints, shrinking
//     the footprint (37 edges -> 132 qubits; 63 edges -> 52 qubits) and
//     *raising* the success rate (65% at the dense end);
//   * constraint count matters as much as qubit count: at similar qubit
//     usage, more constraints = markedly lower success.
// We sweep the same 12-vertex family with 4 target cliques (and 3 where
// coverable), reporting constraints, embedded qubits and success rates.
#include <iostream>

#include "anneal/backend.hpp"
#include "anneal/topology.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "problems/coloring.hpp"
#include "runtime/result.hpp"
#include "util/table.hpp"

using namespace nck;

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  std::cout << "=== Section VIII-A: clique cover edge-scaling (12 vertices) "
               "===\n\n";

  Rng device_rng(2022);
  const Device device = advantage_4_1(device_rng);
  SynthEngine engine;
  Rng rng(12);

  Table table({"edges", "cliques", "feasible", "constraints", "nck-vars",
               "qubits", "%optimal", "any-opt"});

  const std::vector<std::size_t> extra_edges =
      quick ? std::vector<std::size_t>{6, 25, 51}
            : std::vector<std::size_t>{6, 13, 19, 25, 31, 36, 41, 46, 51};
  for (std::size_t extra : extra_edges) {
    const Graph g = edge_scaling_graph(extra);
    for (int cliques : {4, 3}) {
      const CliqueCoverProblem problem{g, cliques};
      if (!problem.feasible()) {
        table.row()
            .cell(g.num_edges())
            .cell(cliques)
            .cell("no")
            .cell(problem.encode().num_constraints())
            .cell(problem.encode().num_vars())
            .cell("-")
            .cell("-")
            .cell("-");
        continue;
      }
      const Env env = problem.encode();
      const GroundTruth truth = ground_truth(env);
      AnnealBackendOptions options;
      options.sampler.num_reads = quick ? 50 : 100;
      const backend::AnnealAdapter annealer(&options, &device);
      const backend::ExecutionResult result =
          backend::run_once(annealer, env, engine, rng, nullptr);
      if (result.failure != FailureKind::kNone) continue;
      const QualityCounts counts = classify_all(result.evaluations, truth);
      table.row()
          .cell(g.num_edges())
          .cell(cliques)
          .cell("yes")
          .cell(env.num_constraints())
          .cell(env.num_vars())
          .cell(result.qubits_used)
          .cell(100.0 * counts.fraction_optimal(), 1)
          .cell(counts.any_optimal() ? "yes" : "NO");
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: qubit footprint and constraint count "
               "*shrink* as edges are\nadded (fewer complement edges), and "
               "the optimal fraction rises.\n";
  return 0;
}
