// Analyzer facade: one entry point that runs the program-level passes and,
// when a backend target is known, compiles the program and runs the QUBO/
// hardware-level passes against that target. runtime::Solver runs this
// before dispatching any backend; examples/nck_cli exposes it as the `lint`
// subcommand.
//
// The Analyzer holds no settings. Every threshold is a named constant beside
// the pass that reads it, every device fact (ICE noise, QAOA depth, per-CX
// error, compile margin) is read from its one definition, and NCK-P008 reads
// the SynthEngine it is given. The one choice a caller makes is
// `scale_separation`: the heuristic NCK-P007 runs unless the caller also
// certifies, in which case NCK-V001/V002 (analysis/certify) replace it.
#pragma once

#include "analysis/program_passes.hpp"
#include "analysis/qubo_passes.hpp"
#include "anneal/topology.hpp"
#include "core/env.hpp"
#include "graph/graph.hpp"
#include "synth/engine.hpp"

namespace nck {

/// Which hardware-level passes to run on top of the program passes.
struct AnalysisTarget {
  const Device* annealer = nullptr;  // run embedding/ICE passes against this
  const Graph* coupling = nullptr;   // run circuit passes against this
};

class Analyzer {
 public:
  /// Program-level passes only; without an engine NCK-P008 is skipped.
  AnalysisReport analyze(const Env& env, bool scale_separation = true) const;

  /// Program passes plus, if the program-level analysis finds no errors,
  /// compilation and the hardware-level passes for each set target. A
  /// failed compilation becomes an NCK-Q000 error instead of an exception.
  AnalysisReport analyze(const Env& env, SynthEngine& engine,
                         const AnalysisTarget& target,
                         bool scale_separation = true) const;

  /// Feasibility pre-check of a resilient fallback chain: one target per
  /// rung (both pointers null = the classical rung, always feasible).
  /// Per-rung hardware errors are demoted to warnings — a later rung may
  /// still land the solve — and tagged with their rung index; only when
  /// *no* rung is feasible does the report carry an NCK-R000 error.
  AnalysisReport analyze_chain(const Env& env, SynthEngine& engine,
                               const std::vector<AnalysisTarget>& chain,
                               bool scale_separation = true) const;
};

}  // namespace nck
