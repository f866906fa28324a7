// Ablation: QAOA depth p. The paper runs Qiskit's default (p = 1); deeper
// ansatze trade circuit depth (hence noise) against expressiveness. This
// sweep quantifies the NISQ tension: noiseless quality rises with p while
// noisy quality peaks at shallow depth — the regime argument for why the
// paper's results sit where they do.
#include <iostream>

#include "circuit/coupling.hpp"
#include "circuit/qaoa.hpp"
#include "core/compile.hpp"
#include "graph/generators.hpp"
#include "problems/max_cut.hpp"
#include "util/table.hpp"

using namespace nck;

int main() {
  std::cout << "=== Ablation: QAOA depth p (max cut on a 10-vertex graph) "
               "===\n\n";
  Rng graph_rng(8);
  const MaxCutProblem problem{random_connected_gnm(10, 16, graph_rng)};
  const CompiledQubo cq = compile(problem.encode());
  const std::size_t best_cut = problem.optimal_cut();
  const Graph coupling = brooklyn_coupling();

  Table table({"p", "noise", "depth", "cx", "fidelity", "jobs",
               "%optimal-shots", "best-cut"});
  for (int p = 1; p <= 3; ++p) {
    for (bool noisy : {false, true}) {
      QaoaOptions options;
      options.p = p;
      options.shots = 2000;
      options.max_sim_qubits = 16;
      options.max_evaluations = 24 + 12 * p;  // more params
      if (!noisy) {
        options.noise.error_1q = 0.0;
        options.noise.error_cx = 0.0;
        options.noise.readout_flip = 0.0;
      }
      Rng rng(100 + p);
      const QaoaResult result = run_qaoa(cq.qubo, coupling, options, rng);
      std::size_t optimal_shots = 0;
      std::size_t best_found = 0;
      for (const auto& s : result.samples) {
        const std::size_t cut = problem.cut_of(cq.project(s));
        best_found = std::max(best_found, cut);
        if (cut == best_cut) ++optimal_shots;
      }
      table.row()
          .cell(p)
          .cell(noisy ? "yes" : "no")
          .cell(result.depth)
          .cell(result.cx_count)
          .cell(result.fidelity, 3)
          .cell(result.num_jobs)
          .cell(100.0 * static_cast<double>(optimal_shots) /
                    static_cast<double>(result.samples.size()),
                1)
          .cell(std::to_string(best_found) + "/" + std::to_string(best_cut));
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected: noiseless %optimal grows with p; with noise the "
               "depth cost wins\nand shallow circuits do best (the NISQ "
               "regime of the paper).\n";
  return 0;
}
