// Extension bench: embedding footprint on Chimera (D-Wave 2000Q-class)
// versus Pegasus (Advantage-class) topologies. The paper runs only on
// Advantage 4.1; this quantifies why: Pegasus's degree-15 connectivity
// roughly halves chain lengths relative to degree-6 Chimera, which is the
// direct driver of the qubit counts in Figs 7 and Section VIII-A.
#include <iostream>

#include "anneal/embedding.hpp"
#include "anneal/topology.hpp"
#include "core/compile.hpp"
#include "graph/generators.hpp"
#include "problems/coloring.hpp"
#include "problems/ksat.hpp"
#include "problems/max_cut.hpp"
#include "problems/vertex_cover.hpp"
#include "util/table.hpp"

using namespace nck;

int main() {
  std::cout << "=== Topology ablation: Chimera (2000Q) vs Pegasus "
               "(Advantage) embedding footprint ===\n\n";
  const Graph chimera = chimera_graph(16, 16, 4);  // 2048 qubits
  const Graph pegasus = pegasus_graph(16);         // 5640 qubits

  Table table({"problem", "nck-vars", "chimera-qubits", "chimera-maxchain",
               "pegasus-qubits", "pegasus-maxchain"});
  SynthEngine engine;
  Rng instance_rng(4);

  std::vector<std::pair<std::string, Env>> cases;
  cases.emplace_back("max-cut-18", MaxCutProblem{vertex_scaling_graph(18)}.encode());
  cases.emplace_back("vertex-cover-18",
                     VertexCoverProblem{vertex_scaling_graph(18)}.encode());
  cases.emplace_back("map-coloring-9",
                     MapColoringProblem{vertex_scaling_graph(9), 3}.encode());
  cases.emplace_back(
      "3-sat-8", KSatProblem{random_ksat(8, 24, 3, instance_rng)}.encode_repeated());

  for (auto& [name, env] : cases) {
    const CompiledQubo cq = compile(env, engine);
    const Graph logical = interaction_graph(cq.qubo);

    std::size_t c_qubits = 0, c_chain = 0, p_qubits = 0, p_chain = 0;
    {
      Rng rng(7);
      if (auto emb = find_embedding(logical, chimera, rng)) {
        c_qubits = emb->total_qubits();
        c_chain = emb->max_chain_length();
      }
    }
    {
      Rng rng(7);
      if (auto emb = find_embedding(logical, pegasus, rng)) {
        p_qubits = emb->total_qubits();
        p_chain = emb->max_chain_length();
      }
    }
    auto cell_or_dash = [&](Table& t, std::size_t v) -> Table& {
      if (v == 0) return t.cell("(failed)");
      return t.cell(v);
    };
    auto& row = table.row().cell(name).cell(cq.num_qubo_vars());
    cell_or_dash(row, c_qubits);
    cell_or_dash(row, c_chain);
    cell_or_dash(row, p_qubits);
    cell_or_dash(row, p_chain);
  }
  table.print(std::cout);
  std::cout << "\nExpected: Pegasus needs consistently fewer qubits and "
               "shorter chains than\nChimera for the same logical problems "
               "(degree 15 vs 6).\n";
  return 0;
}
