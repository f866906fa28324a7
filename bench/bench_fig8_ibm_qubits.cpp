// Fig 8 reproduction: qubits used (y) per problem (x) on the simulated
// 65-qubit Brooklyn-class device, with each run classified optimal /
// suboptimal / incorrect. Expected shape: optimal results at small qubit
// counts, turning suboptimal then incorrect as utilization grows, with
// constraint-heavy problems (vertex cover) failing even at low qubit
// counts.
#include <iostream>

#include "circuit/backend.hpp"
#include "circuit/coupling.hpp"
#include "harness.hpp"
#include "util/table.hpp"

using namespace nck;
using nck::bench::Instance;

int main(int argc, char** argv) {
  const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
  std::cout << "=== Fig 8: qubits used per problem (simulated ibmq_brooklyn) "
               "===\n(result of each run marked optimal/suboptimal/incorrect; "
               "65-qubit ceiling)\n\n";

  const Graph coupling = brooklyn_coupling();
  SynthEngine engine;
  Rng rng(8);

  QaoaOptions options;
  options.shots = quick ? 512 : 2000;
  options.max_sim_qubits = 14;  // state vector below, surrogate above
  options.max_evaluations = quick ? 12 : 28;
  const backend::CircuitAdapter circuit(&options, &coupling);

  Table table({"problem", "size", "qubits", "touched", "mode", "fidelity",
               "result"});

  for (Instance& inst : bench::all_instances(quick ? 9 : 18, quick ? 6 : 12,
                                             quick ? 4 : 8)) {
    const GroundTruth& truth = inst.truth;  // precomputed by the harness
    if (!truth.feasible) continue;
    obs::Trace trace;
    const backend::ExecutionResult result =
        backend::run_once(circuit, inst.env, engine, rng, &trace);
    const obs::TraceData data = trace.snapshot();
    if (result.failure != FailureKind::kNone) {
      // The requirement still shows: compile ran before the fit check.
      table.row()
          .cell(inst.problem)
          .cell(inst.label)
          .cell(static_cast<std::size_t>(data.gauge("compile.qubo_vars")))
          .cell("-")
          .cell("-")
          .cell("-")
          .cell("(does not fit)");
      continue;
    }
    // QAOA reports one answer: the lowest-energy sample.
    const Quality q = classify(result.evaluations.front(), truth);
    const auto touched =
        static_cast<std::size_t>(data.gauge("transpile.qubits_touched"));
    table.row()
        .cell(inst.problem)
        .cell(inst.label)
        .cell(result.qubits_used)
        .cell(touched)
        .cell(data.find_span("qaoa.surrogate") != nullptr
                  ? "boltzmann-surrogate"
                  : "statevector")
        .cell(data.gauge("qaoa.fidelity"), 3)
        .cell(quality_name(q));
  }
  table.print(std::cout);
  return 0;
}
