// Fig 9 reproduction: transpiled circuit depth (y) per problem (x) on the
// simulated Brooklyn device, with optimal/suboptimal/incorrect markers.
// Expected shape: deeper circuits correlate with worse outcomes, with
// problem-specific exceptions (the paper shows a suboptimal Max Cut at
// depth 172 followed by optimal runs at 179+ — depth is not a perfect
// predictor because which qubits/paths get used also matters).
#include <iostream>

#include "circuit/backend.hpp"
#include "circuit/coupling.hpp"
#include "harness.hpp"
#include "util/table.hpp"

using namespace nck;
using nck::bench::Instance;

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  std::cout << "=== Fig 9: circuit depth per problem (simulated "
               "ibmq_brooklyn) ===\n\n";

  const Graph coupling = brooklyn_coupling();
  SynthEngine engine;
  Rng rng(9);

  CircuitBackendOptions options;
  options.qaoa.shots = quick ? 512 : 2000;
  options.qaoa.max_sim_qubits = 14;
  options.qaoa.optimizer.max_evaluations = quick ? 12 : 28;
  const backend::CircuitAdapter circuit(&options, &coupling);

  Table table({"problem", "size", "qubits", "depth", "cx", "result"});
  for (Instance& inst : bench::all_instances(quick ? 9 : 18, quick ? 6 : 12,
                                             quick ? 4 : 8)) {
    const GroundTruth& truth = inst.truth;  // precomputed by the harness
    if (!truth.feasible) continue;
    obs::Trace trace;
    const backend::ExecutionResult result =
        backend::run_once(circuit, inst.env, engine, rng, &trace);
    if (result.failure != FailureKind::kNone) continue;
    const Quality q = classify(result.evaluations.front(), truth);
    table.row()
        .cell(inst.problem)
        .cell(inst.label)
        .cell(result.qubits_used)
        .cell(result.circuit_depth)
        .cell(static_cast<std::size_t>(
            trace.snapshot().gauge("transpile.cx_count")))
        .cell(quality_name(q));
  }
  table.print(std::cout);
  return 0;
}
