// Ablation: annealer fidelity knobs. Sweeps the integrated-control-error
// noise, readout error and chain strength on a fixed mixed hard/soft
// problem (minimum vertex cover) and reports the optimal fraction — the
// mechanism behind Fig 7's soft-constraint penalty: mixed problems have a
// small optimal/suboptimal gap that noise washes out first.
#include <iostream>

#include "anneal/backend.hpp"
#include "anneal/topology.hpp"
#include "graph/generators.hpp"
#include "problems/vertex_cover.hpp"
#include "runtime/result.hpp"
#include "util/table.hpp"

using namespace nck;

int main() {
  std::cout << "=== Ablation: annealer noise and chain strength ===\n\n";
  const VertexCoverProblem problem{vertex_scaling_graph(15)};
  const Env env = problem.encode();
  const GroundTruth truth = ground_truth(env);

  Rng device_rng(2022);
  const Device device = advantage_4_1(device_rng);

  Table table({"ice-sigma", "readout-err", "chain-strength", "qubits",
               "%optimal", "%correct"});
  for (double ice : {0.0, 0.015, 0.05, 0.15}) {
    for (double readout : {0.0, 0.002, 0.02}) {
      SynthEngine engine;
      Rng rng(99);
      AnnealBackendOptions options;
      options.sampler.num_reads = 100;
      options.sampler.ice_sigma = ice;
      options.sampler.readout_error = readout;
      const backend::AnnealAdapter annealer(&options, &device);
      const backend::ExecutionResult result =
          backend::run_once(annealer, env, engine, rng, nullptr);
      if (result.failure != FailureKind::kNone) continue;
      const QualityCounts counts = classify_all(result.evaluations, truth);
      table.row()
          .cell(ice, 3)
          .cell(readout, 3)
          .cell("auto")
          .cell(result.qubits_used)
          .cell(100.0 * counts.fraction_optimal(), 1)
          .cell(100.0 * counts.fraction_correct(), 1);
    }
  }
  // Mitigation options at fixed moderate noise: spin-reversal transforms
  // and greedy post-processing (both real D-Wave features).
  std::cout << "\n";
  Table mitig({"spin-reversal", "postprocess", "%optimal", "%correct"});
  for (bool srt : {false, true}) {
    for (bool post : {false, true}) {
      SynthEngine engine;
      Rng rng(99);
      AnnealBackendOptions options;
      options.sampler.num_reads = 100;
      options.sampler.ice_sigma = 0.05;  // noisier device to expose effects
      options.sampler.spin_reversal_transform = srt;
      options.sampler.postprocess = post;
      const backend::AnnealAdapter annealer(&options, &device);
      const backend::ExecutionResult result =
          backend::run_once(annealer, env, engine, rng, nullptr);
      if (result.failure != FailureKind::kNone) continue;
      const QualityCounts counts = classify_all(result.evaluations, truth);
      mitig.row()
          .cell(srt ? "on" : "off")
          .cell(post ? "on" : "off")
          .cell(100.0 * counts.fraction_optimal(), 1)
          .cell(100.0 * counts.fraction_correct(), 1);
    }
  }
  mitig.print(std::cout);
  std::cout << "\n";

  // Chain-strength sweep at fixed moderate noise.
  for (double strength : {0.5, 1.0, 2.0, 4.0, 8.0}) {
    SynthEngine engine;
    Rng rng(99);
    AnnealBackendOptions options;
    options.sampler.num_reads = 100;
    options.chain_strength = strength;
    const backend::AnnealAdapter annealer(&options, &device);
    const backend::ExecutionResult result =
        backend::run_once(annealer, env, engine, rng, nullptr);
    if (result.failure != FailureKind::kNone) continue;
    const QualityCounts counts = classify_all(result.evaluations, truth);
    table.row()
        .cell(0.015, 3)
        .cell(0.002, 3)
        .cell(strength, 1)
        .cell(result.qubits_used)
        .cell(100.0 * counts.fraction_optimal(), 1)
        .cell(100.0 * counts.fraction_correct(), 1);
  }
  table.print(std::cout);
  std::cout << "\nExpected: fidelity degrades monotonically with ICE noise; "
               "too-weak chains break,\ntoo-strong chains drown the problem "
               "signal (sweet spot near the automatic value).\n";
  return 0;
}
