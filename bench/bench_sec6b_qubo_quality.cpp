// Section VI-B reproduction: generated (NchooseK-compiled) versus
// handcrafted QUBOs. The paper's claims:
//   * for every problem here except 3-SAT and min set cover, the generated
//     QUBO matches the handcrafted one — we check minimizer-set equality by
//     brute force and compare sizes;
//   * min set cover / SAT differ in ancilla variables (the handcrafted
//     min-set-cover formulation carries its own one-hot counters — in fact
//     *more* extra variables than NchooseK's log-slack ancillas);
//   * the XOR constraint nck({a,b,c},{0,2}) requires one ancilla (Eq. 3) —
//     and, as printed, the paper's Eq. 3 itself fails verification (sign
//     typo), which we demonstrate.
#include <iostream>

#include "analysis/certify.hpp"
#include "core/compile.hpp"
#include "graph/generators.hpp"
#include "problems/coloring.hpp"
#include "problems/cover.hpp"
#include "problems/max_cut.hpp"
#include "problems/vertex_cover.hpp"
#include "qubo/brute_force.hpp"
#include "synth/engine.hpp"
#include "util/table.hpp"

using namespace nck;

namespace {

// Compares minimizer sets restricted to problem variables (the generated
// QUBO may append ancillas; a minimizer projection must coincide).
bool same_minimizers(const Qubo& generated, std::size_t problem_vars,
                     const Qubo& handcrafted) {
  const auto g = brute_force_minimize(generated, 1u << 16);
  const auto h = brute_force_minimize(handcrafted, 1u << 16);
  std::set<std::vector<bool>> g_set, h_set;
  for (const auto& x : g.ground_states) {
    g_set.insert({x.begin(), x.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(problem_vars, x.size()))});
  }
  for (const auto& x : h.ground_states) {
    h_set.insert({x.begin(), x.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(problem_vars, x.size()))});
  }
  return g_set == h_set;
}

}  // namespace

int main() {
  std::cout << "=== Section VI-B: generated vs handcrafted QUBOs ===\n\n";
  Table table({"problem", "nck-vars", "gen-ancillas", "gen-terms",
               "hand-extra-vars", "hand-terms", "same-minimizers"});
  Rng rng(3);

  auto report = [&](const std::string& name, const Env& env,
                    const Qubo& handcrafted) {
    const CompiledQubo cq = compile(env);
    const std::size_t hand_extra =
        handcrafted.num_variables() > env.num_vars()
            ? handcrafted.num_variables() - env.num_vars()
            : 0;
    const bool same = cq.qubo.num_variables() <= 20 &&
                              handcrafted.num_variables() <= 20
                          ? same_minimizers(cq.qubo, env.num_vars(), handcrafted)
                          : false;
    table.row()
        .cell(name)
        .cell(env.num_vars())
        .cell(cq.num_ancillas)
        .cell(cq.qubo.num_terms())
        .cell(hand_extra)
        .cell(handcrafted.num_terms())
        .cell(cq.qubo.num_variables() <= 20 ? (same ? "yes" : "NO") : "(too big)");
  };

  {
    Graph g(5);  // the paper's Fig 2 graph
    g.add_edge(0, 1);
    g.add_edge(0, 2);
    g.add_edge(1, 2);
    g.add_edge(2, 3);
    g.add_edge(3, 4);
    const VertexCoverProblem vc{g};
    report("min-vertex-cover", vc.encode(), vc.handcrafted_qubo());
    const MaxCutProblem mc{g};
    report("max-cut", mc.encode(), mc.handcrafted_qubo());
  }
  {
    const MapColoringProblem col{path_graph(4), 2};
    report("map-coloring", col.encode(), col.handcrafted_qubo());
    const CliqueCoverProblem cc{edge_scaling_graph(0).induced_subgraph(
                                    std::vector<Graph::Vertex>{0, 1, 2, 3, 4, 5}),
                                2};
    report("clique-cover", cc.encode(), cc.handcrafted_qubo());
  }
  {
    const SetSystem system = random_set_system(6, 2, 3, rng);
    const ExactCoverProblem ec{system};
    report("exact-cover", ec.encode(), ec.handcrafted_qubo());
    const MinSetCoverProblem msc{system};
    report("min-set-cover", msc.encode(), msc.handcrafted_qubo());
  }
  table.print(std::cout);

  // --- XOR / Eq. 3 (Section VI-C). ----------------------------------------
  std::cout << "\n=== Section VI-C: the XOR constraint ===\n\n";
  SynthEngine engine;
  const ConstraintPattern xor_pattern({1, 1, 1}, {0, 2});
  const SynthesizedQubo& synth = engine.synthesize(xor_pattern);
  std::cout << "nck({a,b,c},{0,2}) synthesized (" << synth.method << "): "
            << synth.num_ancillas << " ancilla, QUBO = "
            << synth.qubo.to_string() << "\n";
  const auto check = certify_synthesis(xor_pattern, synth);
  std::cout << "exhaustive verification: " << (check.ok ? "PASS" : "FAIL")
            << " (gap " << check.observed_gap << ")\n\n";

  // The paper's Eq. 3 as printed.
  Qubo eq3(4);
  eq3.add_linear(0, 1);
  eq3.add_linear(1, 1);
  eq3.add_linear(2, 1);
  eq3.add_linear(3, 4);
  eq3.add_quadratic(0, 1, -2);
  eq3.add_quadratic(0, 2, -2);
  eq3.add_quadratic(0, 3, -4);
  eq3.add_quadratic(1, 2, -2);
  eq3.add_quadratic(1, 3, -4);
  eq3.add_quadratic(2, 3, 4);
  SynthesizedQubo paper_eq3{eq3, 3, 1, 1.0, "paper-eq3"};
  const auto eq3_check = certify_synthesis(xor_pattern, paper_eq3);
  std::cout << "paper Eq. 3 as printed: "
            << (eq3_check.ok ? "verifies (unexpected!)"
                             : "FAILS verification — " + eq3_check.error)
            << "\n(reproduction note: Eq. 3 appears to contain a sign typo; "
               "energy at a=b=1, c=0, k=1 is "
            << eq3.energy({true, true, false, true}) << ")\n";
  return 0;
}
