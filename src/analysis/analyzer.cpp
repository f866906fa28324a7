#include "analysis/analyzer.hpp"

#include <stdexcept>
#include <string>

namespace nck {
namespace {

/// Hardware-level passes for one target, appended to `report`. Assumes
/// the program-level analysis already passed. Returns false when the
/// program could not even be compiled (NCK-Q000 was added).
bool analyze_hardware(const Env& env, SynthEngine& engine,
                      const AnalysisTarget& target, AnalysisReport& report) {
  if (!target.annealer && !target.coupling) return true;
  if (env.num_constraints() == 0) return true;

  CompiledQubo compiled;
  try {
    compiled = compile(env, engine);
  } catch (const std::exception& e) {
    report.add({Severity::kError, DiagCode::kSynthesisFailed,
                DiagLocation::program(),
                std::string("constraint QUBO synthesis failed: ") + e.what(),
                "raise the synthesis ancilla budget or enable a general "
                "synthesizer (Z3/LP)"});
    return false;
  }

  if (target.annealer) {
    analyze_coefficient_range(compiled, report);
    analyze_embedding_feasibility(compiled, *target.annealer, report);
  }
  if (target.coupling) {
    analyze_circuit_feasibility(compiled, *target.coupling, report);
  }
  return true;
}

}  // namespace

AnalysisReport Analyzer::analyze(const Env& env, bool scale_separation) const {
  AnalysisReport report;
  analyze_program(env, nullptr, scale_separation, report);
  report.canonicalize();
  return report;
}

AnalysisReport Analyzer::analyze(const Env& env, SynthEngine& engine,
                                 const AnalysisTarget& target,
                                 bool scale_separation) const {
  AnalysisReport report;
  analyze_program(env, &engine, scale_separation, report);
  // A program that is already known-broken is not worth compiling, and the
  // compiler's hard-scale computation assumes a satisfiable conjunction.
  if (!report.has_errors()) {
    analyze_hardware(env, engine, target, report);
  }
  report.canonicalize();
  return report;
}

AnalysisReport Analyzer::analyze_chain(
    const Env& env, SynthEngine& engine,
    const std::vector<AnalysisTarget>& chain, bool scale_separation) const {
  AnalysisReport report;
  analyze_program(env, &engine, scale_separation, report);
  if (report.has_errors() || chain.empty()) {
    report.canonicalize();
    return report;
  }

  std::size_t feasible_rungs = 0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    AnalysisReport rung;
    analyze_hardware(env, engine, chain[i], rung);
    if (!rung.has_errors()) ++feasible_rungs;
    // A hard error on one rung is survivable — the solve degrades to the
    // next rung — so it rides along demoted to a warning, tagged with the
    // rung it came from.
    for (Diagnostic d : rung.diagnostics()) {
      if (d.severity == Severity::kError) d.severity = Severity::kWarning;
      d.message = "fallback rung " + std::to_string(i + 1) + ": " + d.message;
      report.add(std::move(d));
    }
  }

  if (feasible_rungs == 0) {
    report.add({Severity::kError, DiagCode::kFallbackChainInfeasible,
                DiagLocation::program(),
                "no backend in the fallback chain can run this program (" +
                    std::to_string(chain.size()) + " rung(s), all infeasible)",
                "shorten the program or append a classical rung to the "
                "fallback chain"});
  }
  report.canonicalize();
  return report;
}

}  // namespace nck
