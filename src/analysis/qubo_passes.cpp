#include "analysis/qubo_passes.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "anneal/embedding.hpp"
#include "anneal/sampler.hpp"
#include "circuit/qaoa.hpp"
#include "qubo/ising.hpp"

namespace nck {
namespace {

// Terms with |coefficient| < kNoiseFloorFactor * kDefaultIceSigma * max|c|
// are flagged as statistically indistinguishable from control error.
constexpr double kNoiseFloorFactor = 1.0;
// Embedding pre-check: warn when the chain-length lower bound uses more
// than this fraction of the operable qubits (heuristic embedders rarely
// reach full-device utilization).
constexpr double kEmbeddingYieldFraction = 0.5;
// Modeled SWAP overhead: CX gates per quadratic term routed on the sparse
// heavy-hex lattice (2 CX for the ZZ interaction + inserted SWAPs).
constexpr double kCxPerQuadraticTerm = 5.0;
// Warn when the estimated circuit fidelity drops below this.
constexpr double kFidelityBudget = 0.5;

}  // namespace

void analyze_coefficient_range(const CompiledQubo& compiled,
                               AnalysisReport& report) {
  // ICE noise perturbs the *Ising* program h/J, so analyze that form.
  const IsingModel ising = qubo_to_ising(compiled.qubo);
  double max_abs = 0.0;
  for (double h : ising.h) max_abs = std::max(max_abs, std::abs(h));
  for (const auto& [i, j, c] : ising.j) {
    (void)i;
    (void)j;
    max_abs = std::max(max_abs, std::abs(c));
  }
  if (max_abs <= 0.0) return;

  const double floor = kNoiseFloorFactor * kDefaultIceSigma * max_abs;
  std::size_t below = 0, total = 0;
  double min_nonzero = max_abs;
  DiagLocation first = DiagLocation::program();
  for (std::size_t i = 0; i < ising.h.size(); ++i) {
    const double a = std::abs(ising.h[i]);
    if (a <= Qubo::kEps) continue;
    ++total;
    min_nonzero = std::min(min_nonzero, a);
    if (a < floor) {
      if (below == 0) first = DiagLocation::qubo_term(i, i);
      ++below;
    }
  }
  for (const auto& [i, j, c] : ising.j) {
    const double a = std::abs(c);
    if (a <= Qubo::kEps) continue;
    ++total;
    min_nonzero = std::min(min_nonzero, a);
    if (a < floor) {
      if (below == 0) first = DiagLocation::qubo_term(i, j);
      ++below;
    }
  }
  if (below == 0) return;

  std::ostringstream msg;
  msg << below << " of " << total
      << " Ising terms fall below the ICE noise floor (" << floor << " = "
      << kNoiseFloorFactor << " * sigma " << kDefaultIceSigma
      << " * max |coeff| " << max_abs << "); the program's dynamic range is "
      << max_abs / min_nonzero << ":1";
  report.add({Severity::kWarning, DiagCode::kSubNoiseTerm, first, msg.str(),
              "these couplings are dominated by analog control error on the "
              "QPU; rescale penalty weights or drop negligible terms"});
}

void analyze_embedding_feasibility(const CompiledQubo& compiled,
                                   const Device& device,
                                   AnalysisReport& report) {
  const Graph logical = interaction_graph(compiled.qubo);
  const std::size_t operable = device.num_operable();
  const std::size_t couplers = device.working_graph().num_edges();
  const std::size_t host_degree = device.host_degree();

  const std::size_t n = logical.num_vertices();
  if (n > operable) {
    std::ostringstream msg;
    msg << "QUBO has " << n << " variables but the device '" << device.name
        << "' has only " << operable << " operable qubits";
    report.add({Severity::kError, DiagCode::kEmbeddingInfeasible,
                DiagLocation::program(), msg.str(),
                "shrink the program or target a larger topology"});
    return;
  }
  if (logical.num_edges() > couplers) {
    std::ostringstream msg;
    msg << "QUBO has " << logical.num_edges()
        << " quadratic terms but the device '" << device.name << "' has only "
        << couplers
        << " couplers; every logical edge needs a distinct physical coupler";
    report.add({Severity::kError, DiagCode::kEmbeddingInfeasible,
                DiagLocation::program(), msg.str(),
                "sparsify the interaction graph (e.g. enable presolve) or "
                "target a larger topology"});
    return;
  }

  // Chain-length lower bound: a chain of L qubits on a host of maximum
  // degree D exposes at most L*(D-2)+2 boundary couplers, so a logical
  // variable of degree d needs L >= ceil((d-2)/(D-2)).
  std::size_t qubit_lower_bound = 0;
  std::size_t max_logical_degree = 0;
  for (Graph::Vertex v = 0; v < n; ++v) {
    const std::size_t d = logical.degree(v);
    max_logical_degree = std::max(max_logical_degree, d);
    std::size_t chain = 1;
    if (d > host_degree && host_degree > 2) {
      chain = (d - 2 + host_degree - 3) / (host_degree - 2);  // ceil
      chain = std::max<std::size_t>(chain, 1);
    }
    qubit_lower_bound += chain;
  }
  if (qubit_lower_bound > operable) {
    std::ostringstream msg;
    msg << "chain-length lower bound needs " << qubit_lower_bound
        << " physical qubits (max logical degree " << max_logical_degree
        << " vs host degree " << host_degree << ") but only " << operable
        << " are operable on '" << device.name << "'";
    report.add({Severity::kError, DiagCode::kEmbeddingInfeasible,
                DiagLocation::program(), msg.str(),
                "shrink the program or target a larger topology"});
    return;
  }
  const double budget =
      kEmbeddingYieldFraction * static_cast<double>(operable);
  if (static_cast<double>(qubit_lower_bound) > budget) {
    std::ostringstream msg;
    msg << "chain-length lower bound already needs " << qubit_lower_bound
        << " of " << operable << " operable qubits (> "
        << kEmbeddingYieldFraction * 100.0
        << "% yield budget); heuristic embedding is likely to fail or blow "
           "up chain lengths";
    report.add({Severity::kWarning, DiagCode::kEmbeddingTight,
                DiagLocation::program(), msg.str(),
                "expect long chains and chain breaks; raise the chain "
                "strength, enable presolve, or shrink the program"});
  }
}

void analyze_circuit_feasibility(const CompiledQubo& compiled,
                                 const Graph& coupling,
                                 AnalysisReport& report) {
  const std::size_t n = compiled.num_qubo_vars();
  if (n > coupling.num_vertices()) {
    std::ostringstream msg;
    msg << "QUBO has " << n << " variables (incl. "
        << compiled.num_ancillas << " ancillas) but the coupling map has only "
        << coupling.num_vertices() << " qubits";
    report.add({Severity::kError, DiagCode::kCircuitTooWide,
                DiagLocation::program(), msg.str(),
                "shrink the program or target a wider device"});
    return;
  }

  // Depth/fidelity pre-estimate: p cost layers, each quadratic term routed
  // on the sparse heavy-hex lattice at a modeled CX cost, with roughly n/2
  // two-qubit gates schedulable per depth layer.
  const std::size_t quadratic = compiled.qubo.num_quadratic_terms();
  if (quadratic == 0 || n == 0) return;
  const double est_cx = static_cast<double>(kDefaultQaoaDepth) *
                        static_cast<double>(quadratic) * kCxPerQuadraticTerm;
  const double parallelism = std::max(1.0, static_cast<double>(n) / 2.0);
  const double est_depth = 2.0 * est_cx / parallelism +
                           3.0 * static_cast<double>(kDefaultQaoaDepth);
  const double est_fidelity = std::exp(-kDefaultErrorCx * est_cx);
  if (est_fidelity >= kFidelityBudget) return;
  std::ostringstream msg;
  msg << "estimated transpiled circuit: ~" << static_cast<std::size_t>(est_cx)
      << " CX gates, depth ~" << static_cast<std::size_t>(est_depth)
      << " at p=" << kDefaultQaoaDepth << "; modeled fidelity "
      << est_fidelity << " is below the " << kFidelityBudget
      << " budget";
  report.add({Severity::kWarning, DiagCode::kCircuitDepthBudget,
              DiagLocation::program(), msg.str(),
              "most shots will decohere into noise; shrink the program, "
              "lower p, or target the annealer/classical backend"});
}

}  // namespace nck
