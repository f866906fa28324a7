// Per-layer metrics of the traced run. Layer names follow the source
// modules (runtime, anneal, graph, backend, analysis, core, synth,
// classical, decompose, circuit, serve, obs). Each time is measured from
// outside by calling the module's public entry point on the workload's
// own programs; the rest is folded from the spans and counters the
// program returns. A layer the workload never runs reads 0.
#pragma once

#include <cstdint>
#include <vector>

#include "anneal/sampler.hpp"
#include "backend/kinds.hpp"
#include "bench.hpp"

namespace perfbench {

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric, in BENCHMARK.json order.
const std::vector<LayerMetric>& layer_metrics();

/// Sets every per-layer metric to 0 (workloads then fill in what ran).
void zero_layers(Metrics& out);

/// The public entry points to time on a workload's programs, beyond the
/// request-path layers every workload runs.
struct Probes {
  /// parse_program on each program text (serve requests arrive as text).
  bool parse = false;
  /// SynthEngine::synthesize on a cold engine, then compile on a warm one.
  bool synth = false;
  bool certify = false;   // certify_program
  bool truth = false;     // ground_truth
  /// find_embedding + embed_ising on the device's working graph.
  bool embed = false;
  /// sample_annealer on the embedded problem with `sampler`.
  bool sample = false;
  nck::AnnealerSamplerOptions sampler;
  /// transpile of the p=1 QAOA circuit onto the Brooklyn coupling map.
  bool transpile = false;
};

/// Times the always-present request-path layers (Solver construction,
/// advantage_4_1, Device::working_graph, the backend plan key,
/// Analyzer::analyze, reduce_program) plus the layers `which` selects,
/// each as the median over `programs` of a per-program median, and writes
/// them into `out`.
void probe_layers(const std::vector<Program>& programs,
                  nck::BackendKind backend, std::uint64_t seed,
                  const Probes& which, Metrics& out);

}  // namespace perfbench
