// Ablation for the paper's Section IX future work: standard QAOA
// (transverse-field mixer over the penalty-laden QUBO) versus the Quantum
// Alternating Operator Ansatz with one-hot-preserving XY mixers, on map
// coloring. The AOA's mixer confines evolution to the feasible one-hot
// subspace, so (noiselessly) *every* sample decodes, while standard QAOA
// wastes most of its amplitude on one-hot-violating states — the
// quantitative argument for why "custom mixers seem especially appropriate
// to NchooseK problems".
#include <iostream>

#include "circuit/coupling.hpp"
#include "circuit/qaoa.hpp"
#include "core/compile.hpp"
#include "graph/generators.hpp"
#include "problems/coloring.hpp"
#include "util/table.hpp"

using namespace nck;

namespace {

struct Row {
  std::size_t valid = 0;    // samples that decode as one-hot
  std::size_t proper = 0;   // samples that are proper colorings
  std::size_t total = 0;
  std::size_t depth = 0;
  std::size_t cx = 0;
};

Row summarize_samples(const MapColoringProblem& problem,
                      const QaoaResult& result) {
  Row row;
  row.total = result.samples.size();
  row.depth = result.depth;
  row.cx = result.cx_count;
  for (const auto& s : result.samples) {
    if (decode_one_hot(s, problem.graph.num_vertices(),
                       static_cast<std::size_t>(problem.num_colors))) {
      ++row.valid;
    }
    if (problem.verify(s)) ++row.proper;
  }
  return row;
}

}  // namespace

int main() {
  std::cout << "=== Ablation: standard QAOA vs XY-mixer AOA (map coloring, "
               "noiseless) ===\n\n";
  const Graph coupling = brooklyn_coupling();
  Table table({"graph", "qubits", "ansatz", "depth", "cx", "%one-hot",
               "%proper"});

  QaoaOptions options;
  options.shots = 2000;
  options.max_sim_qubits = 16;
  options.noise.error_1q = 0.0;
  options.noise.error_cx = 0.0;
  options.noise.readout_flip = 0.0;

  int case_index = 0;
  for (const auto& [name, graph, colors] :
       {std::tuple<const char*, Graph, int>{"path-4", path_graph(4), 2},
        {"cycle-5", cycle_graph(5), 3},
        {"triangle+tail", vertex_scaling_graph(3), 3}}) {
    const MapColoringProblem problem{graph, colors};
    const CompiledQubo cq = compile(problem.encode());
    if (cq.num_qubo_vars() > options.max_sim_qubits) continue;

    Rng rng_std(100 + case_index);
    const QaoaResult standard =
        run_qaoa(cq.qubo, coupling, options, rng_std);
    const Row std_row = summarize_samples(problem, standard);
    table.row()
        .cell(name)
        .cell(cq.num_qubo_vars())
        .cell("qaoa-x-mixer")
        .cell(std_row.depth)
        .cell(std_row.cx)
        .cell(100.0 * static_cast<double>(std_row.valid) /
                  static_cast<double>(std::max<std::size_t>(1, std_row.total)),
              1)
        .cell(100.0 * static_cast<double>(std_row.proper) /
                  static_cast<double>(std::max<std::size_t>(1, std_row.total)),
              1);

    Rng rng_aoa(200 + case_index);
    const QaoaResult aoa =
        run_aoa(problem.conflict_qubo(), cq.qubo,
                OneHotGroups{problem.one_hot_groups()}, coupling, options,
                rng_aoa);
    const Row aoa_row = summarize_samples(problem, aoa);
    table.row()
        .cell(name)
        .cell(cq.num_qubo_vars())
        .cell("aoa-xy-mixer")
        .cell(aoa_row.depth)
        .cell(aoa_row.cx)
        .cell(100.0 * static_cast<double>(aoa_row.valid) /
                  static_cast<double>(std::max<std::size_t>(1, aoa_row.total)),
              1)
        .cell(100.0 * static_cast<double>(aoa_row.proper) /
                  static_cast<double>(std::max<std::size_t>(1, aoa_row.total)),
              1);
    ++case_index;
  }
  table.print(std::cout);
  std::cout << "\nThe XY mixer holds %one-hot at 100 by construction; the "
               "transverse-field mixer\nmust *learn* the one-hot structure "
               "through penalties and loses most shots to it.\n";
  return 0;
}
