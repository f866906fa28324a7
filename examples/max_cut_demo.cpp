// Max Cut (Section IV-C): the soft-only NP-hard problem, in both encodings
// the paper discusses — one soft constraint per edge versus explicit
// cut-indicator variables — executed on the annealing and circuit backends.
#include <cstdio>

#include "graph/generators.hpp"
#include "problems/max_cut.hpp"
#include "runtime/solver.hpp"

int main() {
  using namespace nck;

  Rng rng(99);
  const Graph g = random_connected_gnm(10, 18, rng);
  const MaxCutProblem problem{g};
  std::printf("Random graph: %zu vertices, %zu edges; exact max cut = %zu\n\n",
              g.num_vertices(), g.num_edges(), problem.optimal_cut());

  // --- Encoding comparison (Section IV-C's efficiency argument). ---------
  const Env lean = problem.encode();
  const Env fat = problem.encode_with_edge_vars();
  std::printf("Soft-edge encoding:      %2zu vars, %2zu constraints "
              "(%zu non-symmetric)\n",
              lean.num_vars(), lean.num_constraints(), lean.num_nonsymmetric());
  std::printf("Edge-indicator encoding: %2zu vars, %2zu constraints "
              "(%zu non-symmetric)  <- the paper's rejected alternative\n\n",
              fat.num_vars(), fat.num_constraints(), fat.num_nonsymmetric());

  // --- Solve the lean encoding on all backends. ---------------------------
  Solver solver(123);
  solver.annealer_options().sampler.num_reads = 100;
  solver.circuit_options().shots = 2000;
  for (BackendKind backend :
       {BackendKind::kClassical, BackendKind::kAnnealer, BackendKind::kCircuit}) {
    const SolveReport report = solver.solve(lean, backend);
    if (!report.ran) {
      std::printf("%-9s: %s\n", backend_name(backend), report.failure_message().c_str());
      continue;
    }
    std::printf("%-9s: cut=%zu/%zu [%s]", backend_name(backend),
                problem.cut_of(report.best_assignment), problem.optimal_cut(),
                quality_name(report.best_quality));
    if (backend == BackendKind::kAnnealer) {
      std::printf("  physical qubits=%zu", report.qubits_used);
    } else if (backend == BackendKind::kCircuit) {
      std::printf("  depth=%zu", report.circuit_depth);
    }
    std::printf("\n");
  }
  return 0;
}
