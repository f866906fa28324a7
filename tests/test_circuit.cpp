#include <gtest/gtest.h>
#include <omp.h>

#include <bit>
#include <cmath>
#include <numeric>

#include "circuit/backend.hpp"
#include "circuit/circuit.hpp"
#include "circuit/coupling.hpp"
#include "circuit/optimizer.hpp"
#include "circuit/qaoa.hpp"
#include "circuit/statevector.hpp"
#include "circuit/transpiler.hpp"
#include "core/compile.hpp"
#include "problems/max_cut.hpp"
#include "graph/generators.hpp"
#include "runtime/result.hpp"
#include "util/rng.hpp"

namespace nck {
namespace {

// -------------------------------------------------------------- StateVector

TEST(StateVector, InitialState) {
  StateVector s(3);
  EXPECT_EQ(s.dimension(), 8u);
  EXPECT_NEAR(std::abs(s.amplitude(0)), 1.0, 1e-12);
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
  EXPECT_THROW(StateVector(40), std::invalid_argument);
}

TEST(StateVector, HadamardCreatesUniform) {
  StateVector s(2);
  s.h(0);
  s.h(1);
  const auto p = s.probabilities();
  for (double prob : p) EXPECT_NEAR(prob, 0.25, 1e-12);
}

TEST(StateVector, XFlipsBit) {
  StateVector s(2);
  s.x(1);
  EXPECT_NEAR(std::abs(s.amplitude(0b10)), 1.0, 1e-12);
}

TEST(StateVector, BellState) {
  StateVector s(2);
  s.h(0);
  s.cx(0, 1);
  EXPECT_NEAR(std::norm(s.amplitude(0b00)), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(s.amplitude(0b11)), 0.5, 1e-12);
  EXPECT_NEAR(std::norm(s.amplitude(0b01)), 0.0, 1e-12);
}

TEST(StateVector, RotationsPreserveNorm) {
  StateVector s(4);
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    const std::size_t q = rng.below(4);
    switch (rng.below(5)) {
      case 0: s.rx(q, rng.uniform(-3, 3)); break;
      case 1: s.ry(q, rng.uniform(-3, 3)); break;
      case 2: s.rz(q, rng.uniform(-3, 3)); break;
      case 3: s.h(q); break;
      case 4: {
        const std::size_t q2 = (q + 1 + rng.below(3)) % 4;
        s.rzz(q, q2, rng.uniform(-3, 3));
        break;
      }
    }
  }
  EXPECT_NEAR(s.norm(), 1.0, 1e-9);
}

TEST(StateVector, RxPiFlipsQubit) {
  StateVector s(1);
  s.rx(0, M_PI);
  EXPECT_NEAR(std::norm(s.amplitude(1)), 1.0, 1e-12);
}

TEST(StateVector, RzzAppliesParityPhases) {
  // On |++>, RZZ followed by undoing phases should leave probabilities flat.
  StateVector s(2);
  s.h(0);
  s.h(1);
  s.rzz(0, 1, 1.3);
  const auto p = s.probabilities();
  for (double prob : p) EXPECT_NEAR(prob, 0.25, 1e-12);
  // Phase check: amplitude(00)/amplitude(01) should differ by e^{i*1.3}.
  const auto ratio = s.amplitude(0) / s.amplitude(1);
  EXPECT_NEAR(std::arg(ratio), -1.3, 1e-9);
}

TEST(StateVector, SwapExchangesQubits) {
  StateVector s(2);
  s.x(0);
  s.swap(0, 1);
  EXPECT_NEAR(std::norm(s.amplitude(0b10)), 1.0, 1e-12);
}

TEST(StateVector, SamplingMatchesProbabilities) {
  StateVector s(2);
  s.h(0);  // 50/50 over qubit 0
  Rng rng(4);
  const auto shots = s.sample(10000, rng);
  std::size_t ones = 0;
  for (auto b : shots) ones += b & 1u;
  EXPECT_NEAR(static_cast<double>(ones) / 10000.0, 0.5, 0.02);
}

// ----------------------------------------------------------------- Circuit

TEST(Circuit, DepthGreedyLayering) {
  Circuit c(3);
  c.h(0);       // layer 1 on q0
  c.h(1);       // layer 1 on q1
  c.cx(0, 1);   // layer 2
  c.rz(2, 0.5); // layer 1 on q2
  c.cx(1, 2);   // layer 3
  EXPECT_EQ(c.depth(), 3u);
  EXPECT_EQ(c.num_gates(), 5u);
  EXPECT_EQ(c.num_two_qubit_gates(), 2u);
}

TEST(Circuit, RejectsBadQubits) {
  Circuit c(2);
  EXPECT_THROW(c.h(5), std::out_of_range);
  EXPECT_THROW(c.cx(0, 0), std::invalid_argument);
}

TEST(Circuit, RunMatchesDirectApplication) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  StateVector via_circuit(2);
  c.run(via_circuit);
  StateVector direct(2);
  direct.h(0);
  direct.cx(0, 1);
  for (std::uint64_t b = 0; b < 4; ++b) {
    EXPECT_NEAR(std::abs(via_circuit.amplitude(b) - direct.amplitude(b)), 0.0,
                1e-12);
  }
}

// ---------------------------------------------------------------- Coupling

TEST(Coupling, BrooklynHas65Qubits) {
  const Graph g = brooklyn_coupling();
  EXPECT_EQ(g.num_vertices(), 65u);
  EXPECT_TRUE(g.connected());
  // Heavy-hex: maximum degree 3.
  std::size_t max_degree = 0;
  for (Graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  EXPECT_EQ(max_degree, 3u);
}

TEST(Coupling, LatticeScales) {
  EXPECT_EQ(heavy_hex_lattice(2).num_vertices(), 10u + 10u + 3u);
  EXPECT_GT(heavy_hex_lattice(7).num_vertices(), 65u);
  EXPECT_THROW(heavy_hex_lattice(1), std::invalid_argument);
}

// --------------------------------------------------------------- Transpiler

TEST(Transpiler, AdjacentGatesNeedNoSwaps) {
  Circuit logical(2);
  logical.h(0);
  logical.cx(0, 1);
  const Graph coupling = path_graph(4);
  const auto result = transpile(logical, coupling);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->swap_count, 0u);
  EXPECT_EQ(result->cx_count, 1u);
}

TEST(Transpiler, RoutesDistantGates) {
  // Star-shaped interaction on a line must insert SWAPs.
  Circuit logical(4);
  logical.rzz(0, 1, 0.3);
  logical.rzz(0, 2, 0.3);
  logical.rzz(0, 3, 0.3);
  logical.rzz(1, 3, 0.3);
  const Graph coupling = path_graph(4);
  const auto result = transpile(logical, coupling);
  ASSERT_TRUE(result.has_value());
  EXPECT_GT(result->swap_count, 0u);
  // RZZ decomposes into 2 CX; SWAPs into 3 CX each.
  EXPECT_EQ(result->cx_count, 4u * 2u + result->swap_count * 3u);
}

TEST(Transpiler, RejectsOversizedCircuits) {
  Circuit logical(10);
  logical.h(0);
  const auto result = transpile(logical, path_graph(5));
  EXPECT_FALSE(result.has_value());
}

TEST(Transpiler, PreservesSemanticsUpToLayout) {
  // Compare output distributions of logical and transpiled circuits
  // (transpiled runs on more qubits; marginalize over the layout).
  Circuit logical(3);
  logical.h(0);
  logical.h(1);
  logical.h(2);
  logical.rzz(0, 2, 0.7);
  logical.rx(0, 0.4);
  logical.rzz(1, 2, -0.3);
  const Graph coupling = path_graph(5);
  const auto result = transpile(logical, coupling);
  ASSERT_TRUE(result.has_value());

  StateVector ls(3);
  logical.run(ls);
  const auto lp = ls.probabilities();

  StateVector ps(coupling.num_vertices());
  result->physical.run(ps);
  const auto pp = ps.probabilities();

  // For each logical basis state, sum physical probabilities whose layout
  // bits match.
  for (std::uint64_t lb = 0; lb < 8; ++lb) {
    double marginal = 0.0;
    for (std::uint64_t pb = 0; pb < pp.size(); ++pb) {
      bool match = true;
      for (std::size_t q = 0; q < 3; ++q) {
        const bool lbit = (lb >> q) & 1u;
        const bool pbit = (pb >> result->layout[q]) & 1u;
        if (lbit != pbit) {
          match = false;
          break;
        }
      }
      if (match) marginal += pp[pb];
    }
    EXPECT_NEAR(marginal, lp[lb], 1e-9) << "basis " << lb;
  }
}

// ---------------------------------------------------------------- Optimizer

TEST(Optimizer, NelderMeadQuadraticBowl) {
  // Steep enough that a simplex whose values spread less than the 1e-3
  // tolerance sits within 1e-2 of the minimum.
  const Objective f = [](const std::vector<double>& x) {
    return 1e3 * ((x[0] - 1.0) * (x[0] - 1.0) + (x[1] + 2.0) * (x[1] + 2.0));
  };
  const auto result = nelder_mead(f, {0.0, 0.0}, 200);
  EXPECT_NEAR(result.x[0], 1.0, 1e-2);
  EXPECT_NEAR(result.x[1], -2.0, 1e-2);
  EXPECT_LE(result.evaluations, 200u);
}

TEST(Optimizer, NelderMeadRespectsBudget) {
  std::size_t calls = 0;
  const Objective f = [&](const std::vector<double>& x) {
    ++calls;
    return x[0] * x[0];
  };
  nelder_mead(f, {5.0}, 10);
  EXPECT_LE(calls, 12u);  // simplex construction may finish the last round
}

// --------------------------------------------------------------------- QAOA

TEST(Qaoa, CircuitStructure) {
  IsingModel ising;
  ising.h = {0.5, 0.0, -0.5};
  ising.j = {{0, 1, 1.0}, {1, 2, 1.0}};
  const Circuit c = build_qaoa_circuit(ising, {0.3, 0.7});
  // 3 H + 2 RZZ + 2 RZ (h[1] == 0 skipped) + 3 RX.
  EXPECT_EQ(c.num_gates(), 3u + 2u + 2u + 3u);
  EXPECT_THROW(build_qaoa_circuit(ising, {0.1}), std::invalid_argument);
}

TEST(Qaoa, SolvesTinyMaxCut) {
  // Max cut on a square: QAOA should find a 4-edge cut among its samples.
  const MaxCutProblem problem{cycle_graph(4)};
  const CompiledQubo cq = compile(problem.encode());
  QaoaOptions options;
  options.shots = 2000;
  options.noise = {};  // noiseless
  options.noise.error_1q = 0.0;
  options.noise.error_cx = 0.0;
  options.noise.readout_flip = 0.0;
  Rng rng(11);
  const QaoaResult result = run_qaoa(cq.qubo, brooklyn_coupling(), options, rng);
  EXPECT_EQ(result.mode, "statevector");
  EXPECT_EQ(result.qubits, 4u);
  std::vector<bool> best(result.samples.front().begin(),
                         result.samples.front().end());
  EXPECT_EQ(problem.cut_of(cq.project(best)), 4u);
}

TEST(Qaoa, NoiseFidelityDecaysWithGates) {
  NoiseModel noise;
  EXPECT_GT(noise.fidelity(10, 5), noise.fidelity(10, 50));
  EXPECT_GT(noise.fidelity(10, 5), noise.fidelity(100, 5));
  const NoiseModel noiseless{0.0, 0.0, 0.0};
  EXPECT_NEAR(noiseless.fidelity(100, 100), 1.0, 1e-12);
}

TEST(Qaoa, SurrogateModeForWideProblems) {
  // 30 variables exceeds the state-vector cutoff -> Boltzmann surrogate.
  const MaxCutProblem problem{cycle_graph(30)};
  const CompiledQubo cq = compile(problem.encode());
  QaoaOptions options;
  options.shots = 500;
  options.max_sim_qubits = 22;
  Rng rng(12);
  const QaoaResult result =
      run_qaoa(cq.qubo, heavy_hex_lattice(7), options, rng);
  EXPECT_EQ(result.mode, "boltzmann-surrogate");
  EXPECT_EQ(result.samples.size(), 500u);
  EXPECT_GT(result.depth, 0u);  // transpiler metrics still exact
}

// ------------------------------------------------------------------ Backend

TEST(CircuitBackend, EndToEndMaxCut) {
  const MaxCutProblem problem{cycle_graph(5)};
  const Env env = problem.encode();
  SynthEngine engine;
  Rng rng(13);
  QaoaOptions options;
  options.shots = 1000;
  const Graph coupling = brooklyn_coupling();
  const backend::CircuitAdapter circuit(&options, &coupling);
  obs::Trace trace;
  const backend::ExecutionResult result =
      backend::run_once(circuit, env, engine, rng, &trace);
  ASSERT_EQ(result.failure, FailureKind::kNone);
  EXPECT_EQ(result.qubits_used, 5u);
  EXPECT_GT(result.circuit_depth, 0u);
  const obs::TraceData data = trace.snapshot();
  const double jobs = data.counter("qaoa.jobs");
  EXPECT_GT(jobs, 5.0);

  // Paper job-time model: one modeled span per job, every one in the
  // observed 7-23 s band.
  std::size_t job_spans = 0;
  for (const obs::SpanRecord& span : data.spans) {
    if (span.name != "device.job") continue;
    ++job_spans;
    EXPECT_TRUE(span.modeled);
    EXPECT_GE(span.duration_us, 7.0e6);
    EXPECT_LE(span.duration_us, 23.0e6);
  }
  EXPECT_EQ(static_cast<double>(job_spans), jobs);
  EXPECT_GT(result.device_seconds, 400.0);  // ~500 s of server time

  const GroundTruth truth = ground_truth(env);
  const QualityCounts counts = classify_all(result.evaluations, truth);
  EXPECT_GT(counts.total(), 0u);
  // QAOA's reported answer is the lowest-energy sample; for this tiny
  // problem it should be optimal (cut of 4 on C5).
  EXPECT_TRUE(result.single_answer);
  EXPECT_EQ(classify(result.evaluations.front(), truth), Quality::kOptimal);
}

TEST(CircuitBackend, ResultsDoNotDependOnTheThreadCount) {
  // StateVector::norm sums serially, so every renormalize, and with it
  // every QAOA result, is the same at any OpenMP thread count.
  const int saved = omp_get_max_threads();
  Rng rng(16);
  for (int trial = 0; trial < 20; ++trial) {
    StateVector state(16);
    for (StateVector::Amplitude& a : state.amplitudes()) {
      const double re = rng.uniform(-1.0, 1.0);
      a = {re, rng.uniform(-1.0, 1.0)};
    }
    omp_set_num_threads(1);
    const double one = state.norm();
    omp_set_num_threads(4);
    const double four = state.norm();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(one),
              std::bit_cast<std::uint64_t>(four))
        << "trial " << trial;
  }

  Rng graph_rng(12);
  const MaxCutProblem problem{random_connected_gnm(12, 20, graph_rng)};
  const Env env = problem.encode();
  QaoaOptions options;
  options.shots = 500;
  const Graph coupling = brooklyn_coupling();
  const backend::CircuitAdapter circuit(&options, &coupling);
  std::vector<std::vector<std::vector<bool>>> samples;
  for (const int threads : {1, 4}) {
    omp_set_num_threads(threads);
    SynthEngine engine;
    Rng solve_rng(77);
    const backend::ExecutionResult result =
        backend::run_once(circuit, env, engine, solve_rng, nullptr);
    ASSERT_EQ(result.failure, FailureKind::kNone);
    samples.push_back(result.samples);
  }
  omp_set_num_threads(saved);
  EXPECT_EQ(samples[0], samples[1]);
}

TEST(CircuitBackend, RejectsOversizedProblems) {
  const MaxCutProblem problem{cycle_graph(80)};
  SynthEngine engine;
  Rng rng(14);
  const QaoaOptions options;
  const Graph coupling = brooklyn_coupling();
  const backend::CircuitAdapter circuit(&options, &coupling);
  obs::Trace trace;
  const backend::ExecutionResult result =
      backend::run_once(circuit, problem.encode(), engine, rng, &trace);
  EXPECT_EQ(result.failure, FailureKind::kDeviceTooSmall);
  EXPECT_TRUE(result.samples.empty());
  // The trace still reports the requirement: compile ran before the fit
  // check.
  EXPECT_EQ(trace.snapshot().gauge("compile.qubo_vars"), 80.0);
}

}  // namespace
}  // namespace nck
