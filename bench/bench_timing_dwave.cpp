// Section VIII-C reproduction (D-Wave side): QPU access-time breakdown for
// a 100-sample job — ~15 ms programming step, per-sample anneal (20 us) +
// readout (3-4x anneal) + delay (~20 us), sampling total slightly below the
// programming cost, ~30 ms per job overall — plus the client-side costs
// (QUBO compilation, embedding, and the ~40 ms submit preparation).
//
// `--trace=json` additionally captures a full observability trace per
// client-side run and writes them as one machine-readable document to
// BENCH_timing_dwave.json (override the path with --out=<file>) — the
// per-stage timing record future sessions diff for perf trajectories.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "anneal/backend.hpp"
#include "anneal/packed.hpp"
#include "anneal/topology.hpp"
#include "graph/generators.hpp"
#include "obs/json.hpp"
#include "problems/vertex_cover.hpp"
#include "qubo/heuristic.hpp"
#include "qubo/ising.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace nck;

namespace {

/// Before/after sweep-kernel timing at true hardware density: a random
/// +-1 Ising over a Chimera C4 working graph (degree <= 6, the density of
/// the physical programs this bench's jobs run), scalar adjacency-list
/// annealing versus the bit-packed tempering kernel, equal sweep budget.
struct KernelTimings {
  std::size_t num_spins = 0;
  std::size_t num_reads = 0;
  std::size_t num_sweeps = 0;
  double scalar_ms = 0.0;
  double packed_ms = 0.0;
  double speedup = 0.0;
};

KernelTimings chimera_kernel_study() {
  KernelTimings k;
  k.num_reads = 10;
  k.num_sweeps = 1024;

  const Graph g = chimera_graph(4, 4, 4);
  k.num_spins = g.num_vertices();
  Rng gen(2023);
  IsingModel ising;
  ising.h.resize(k.num_spins);
  for (double& h : ising.h) h = gen.uniform(-1.0, 1.0);
  for (const Graph::Edge& e : g.edges()) {
    ising.j.emplace_back(e.first, e.second, gen.bernoulli(0.5) ? 1.0 : -1.0);
  }

  AnnealParams params;
  params.num_sweeps = k.num_sweeps;
  params.beta_initial = 0.05;
  params.beta_final = 6.0;
  Rng scalar_rng(3);
  Timer scalar_timer;
  for (std::size_t r = 0; r < k.num_reads; ++r) {
    const Qubo q = ising_to_qubo(ising);
    anneal_once(q, params, scalar_rng);
  }
  k.scalar_ms = scalar_timer.milliseconds();

  const PackedIsing packed(ising);
  PackedWorkspace workspace(packed);
  workspace.load_clean();
  TemperingOptions options;
  options.num_sweeps = k.num_sweeps;
  Rng packed_rng(3);
  Timer packed_timer;
  for (std::size_t r = 0; r < k.num_reads; ++r) {
    workspace.anneal(options, packed_rng);
  }
  k.packed_ms = packed_timer.milliseconds();
  k.speedup = k.packed_ms > 0.0 ? k.scalar_ms / k.packed_ms : 0.0;
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  bool emit_json = false;
  std::string out_path = "BENCH_timing_dwave.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace=json") {
      emit_json = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::cerr << "usage: bench_timing_dwave [--trace=json] [--out=<file>]\n";
      return 2;
    }
  }

  std::cout << "=== Section VIII-C: D-Wave timing model ===\n\n";

  const DWaveTimingModel model;
  Table breakdown({"component", "time"});
  breakdown.row().cell("programming").cell(
      format_double(model.programming_us / 1000.0, 2) + " ms");
  breakdown.row().cell("anneal / sample").cell(
      format_double(model.anneal_us, 1) + " us");
  breakdown.row().cell("readout / sample").cell(
      format_double(model.readout_us(), 1) + " us");
  breakdown.row().cell("delay / sample").cell(
      format_double(model.delay_us, 1) + " us");
  breakdown.row().cell("sampling (100 reads)").cell(
      format_double(model.sampling_time_us(100) / 1000.0, 2) + " ms");
  breakdown.row().cell("post-processing").cell(
      format_double(model.postprocess_us / 1000.0, 2) + " ms");
  breakdown.row().cell("total QPU access (100 reads)").cell(
      format_double(model.qpu_access_time_us(100) / 1000.0, 2) + " ms");
  breakdown.print(std::cout);

  std::cout << "\nPaper: jobs spent ~30 ms apiece on the Advantage system; "
               "sampling for 100 reads\ncosts slightly less than the "
               "programming step. Both hold above.\n";

  // Client-side: compile + embed wall times for a few problem sizes.
  std::cout << "\n=== Client-side costs ===\n\n";
  Rng device_rng(2022);
  const Device device = advantage_4_1(device_rng);
  AnnealBackendOptions options;
  options.sampler.num_reads = 100;
  const backend::AnnealAdapter annealer(&options, &device);
  Rng rng(13);
  Table client({"problem", "nck-vars", "compile(ms)", "embed(ms)",
                "qpu-total(ms)"});
  std::vector<std::pair<std::string, obs::TraceData>> traces;
  for (std::size_t n : {9u, 18u, 27u}) {
    const std::string label = "min-vertex-cover " + std::to_string(n) + "v";
    const VertexCoverProblem problem{vertex_scaling_graph(n)};
    const Env env = problem.encode();
    SynthEngine engine;  // fresh engine: includes first-pattern synthesis
    obs::Trace trace;
    const backend::ExecutionResult result =
        backend::run_once(annealer, env, engine, rng, &trace);
    const obs::TraceData data = trace.snapshot();
    if (emit_json) traces.emplace_back(label, data);
    if (result.failure != FailureKind::kNone) continue;
    const auto span_ms = [&](const char* stage) {
      const obs::SpanRecord* span = data.find_span(stage);
      return span != nullptr ? span->duration_us * 1e-3 : 0.0;
    };
    client.row()
        .cell(label)
        .cell(env.num_vars())
        .cell(span_ms("compile"), 2)
        .cell(span_ms("embed"), 2)
        .cell(result.device_seconds * 1e3, 2);
  }
  client.print(std::cout);

  // Sweep-kernel before/after at hardware density.
  std::cout << "\n=== Annealing kernel (Chimera C4 density) ===\n\n";
  const KernelTimings kernel = chimera_kernel_study();
  Table kernel_table({"kernel", "wall(ms)", "speedup"});
  kernel_table.row()
      .cell("scalar per-read (old sampler path)")
      .cell(kernel.scalar_ms, 2)
      .cell("1.00x");
  kernel_table.row()
      .cell("packed tempering (anneal/packed.hpp)")
      .cell(kernel.packed_ms, 2)
      .cell(format_double(kernel.speedup, 2) + "x");
  kernel_table.print(std::cout);
  std::cout << "\n(" << kernel.num_reads << " reads x " << kernel.num_sweeps
            << " sweeps, " << kernel.num_spins << "-qubit Chimera program)\n";

  if (emit_json) {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "bench_timing_dwave: cannot write " << out_path << "\n";
      return 1;
    }
    out << "{\"bench\":\"timing_dwave\",\"runs\":[";
    for (std::size_t i = 0; i < traces.size(); ++i) {
      if (i) out << ",";
      out << "{\"label\":\"" << traces[i].first << "\",\"trace\":";
      obs::write_trace(out, traces[i].second);
      out << "}";
    }
    out << "],\"kernel\":{\"num_spins\":" << kernel.num_spins
        << ",\"num_reads\":" << kernel.num_reads
        << ",\"num_sweeps\":" << kernel.num_sweeps
        << ",\"scalar_ms\":" << kernel.scalar_ms
        << ",\"packed_ms\":" << kernel.packed_ms
        << ",\"speedup\":" << kernel.speedup << "}}\n";
    std::cout << "\nwrote " << traces.size() << " trace(s) to " << out_path
              << "\n";
  }
  return 0;
}
