// Quickstart: the paper's introductory program
//
//   nck({a, b}, {0, 1}) /\ nck({b, c}, {1})
//
// ("neither or exactly one of a and b is TRUE, and exactly one of b and c
// is TRUE"), plus the XOR constraint of Section VI-C, executed on all three
// backends: the classical exact solver, the simulated D-Wave annealer, and
// the simulated IBM QAOA device.
#include <cstdio>

#include "core/compile.hpp"
#include "core/env.hpp"
#include "runtime/solver.hpp"

int main() {
  using namespace nck;

  // --- Build the program through the DSL. --------------------------------
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b}, {0, 1});
  env.nck({b, c}, {1});

  std::printf("Program:\n%s\n\n", env.to_string().c_str());

  // --- Inspect the compiled QUBO (the portable IR of Section V). ---------
  const CompiledQubo compiled = compile(env);
  std::printf("Compiled QUBO over %zu variables (+%zu ancillas):\n  %s\n\n",
              compiled.num_problem_vars, compiled.num_ancillas,
              compiled.qubo.to_string().c_str());

  // --- Run on every backend. ----------------------------------------------
  Solver solver(/*seed=*/2022);
  solver.annealer_options().sampler.num_reads = 100;  // the paper's setting
  solver.circuit_options().shots = 4000;         // the paper's setting

  for (BackendKind backend :
       {BackendKind::kClassical, BackendKind::kAnnealer, BackendKind::kCircuit}) {
    const SolveReport report = solver.solve(env, backend);
    if (!report.ran) {
      std::printf("%-9s: did not run (%s)\n", backend_name(backend),
                  report.failure_message().c_str());
      continue;
    }
    std::printf("%-9s: a=%d b=%d c=%d  [%s]", backend_name(backend),
                static_cast<int>(report.best_assignment[a]),
                static_cast<int>(report.best_assignment[b]),
                static_cast<int>(report.best_assignment[c]),
                quality_name(report.best_quality));
    if (report.qubits_used > 0) {
      std::printf("  qubits=%zu", report.qubits_used);
    }
    std::printf("\n");
  }

  // --- Bonus: the XOR constraint (Section VI-C). --------------------------
  // nck({a, b, c}, {0, 2}) encodes c == a XOR b... more precisely "an even
  // number, but not all, of a, b, c are TRUE". It needs one ancilla qubit.
  Env xor_env;
  const VarId xa = xor_env.var("a"), xb = xor_env.var("b"),
              xc = xor_env.var("c");
  xor_env.nck({xa, xb, xc}, {0, 2});
  const CompiledQubo xor_compiled = compile(xor_env);
  std::printf("\nXOR constraint nck({a, b, c}, {0, 2}) compiles to a QUBO on "
              "%zu + %zu ancilla qubits:\n  %s\n",
              xor_compiled.num_problem_vars, xor_compiled.num_ancillas,
              xor_compiled.qubo.to_string().c_str());
  return 0;
}
