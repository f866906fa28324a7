#include <gtest/gtest.h>
#include <omp.h>

#include <bit>
#include <cmath>
#include <tuple>

#include "circuit/coupling.hpp"
#include "circuit/qaoa.hpp"
#include "circuit/transpiler.hpp"
#include "core/compile.hpp"
#include "graph/generators.hpp"
#include "problems/coloring.hpp"
#include "util/rng.hpp"

namespace nck {
namespace {

// ------------------------------------------------------------------ XY gate

TEST(XyGate, ActsOnlyOnTheOddParitySubspace) {
  StateVector s(2);
  s.h(0);
  s.h(1);
  const auto before = s.probabilities();
  s.xy(0, 1, 1.1);
  // |00> and |11> amplitudes untouched; |01>/|10> rotate within their span.
  EXPECT_NEAR(std::abs(s.amplitude(0b00)), 0.5, 1e-12);
  EXPECT_NEAR(std::abs(s.amplitude(0b11)), 0.5, 1e-12);
  EXPECT_NEAR(s.norm(), 1.0, 1e-12);
  (void)before;
}

TEST(XyGate, FullAngleTransfersPopulation) {
  StateVector s(2);
  s.x(0);  // |01> in (q1 q0) reading: q0 set
  s.xy(0, 1, M_PI);
  // theta = pi: complete transfer (up to a -i phase).
  EXPECT_NEAR(std::norm(s.amplitude(0b10)), 1.0, 1e-12);
}

TEST(XyGate, PreservesHammingWeight) {
  Rng rng(1);
  StateVector s(4);
  s.x(1);  // weight-1 state
  for (int i = 0; i < 20; ++i) {
    const std::size_t a = rng.below(4);
    std::size_t b = rng.below(4);
    if (a == b) b = (b + 1) % 4;
    s.xy(a, b, rng.uniform(-3, 3));
  }
  // All probability mass stays on weight-1 basis states.
  const auto p = s.probabilities();
  double weight1_mass = 0.0;
  for (std::uint64_t basis = 0; basis < p.size(); ++basis) {
    if (__builtin_popcountll(basis) == 1) weight1_mass += p[basis];
  }
  EXPECT_NEAR(weight1_mass, 1.0, 1e-12);
}

TEST(XyGate, TranspilerDecompositionMatches) {
  // XY through the transpiler (RXX.RYY via conjugated RZZ) must equal the
  // native kernel, up to layout.
  Circuit logical(2);
  logical.h(0);
  logical.ry(1, 0.3);
  logical.xy(0, 1, 0.9);
  const Graph coupling = path_graph(3);
  const auto result = transpile(logical, coupling);
  ASSERT_TRUE(result.has_value());

  StateVector ls(2);
  logical.run(ls);
  StateVector ps(coupling.num_vertices());
  result->physical.run(ps);

  for (std::uint64_t lb = 0; lb < 4; ++lb) {
    double marginal = 0.0;
    const auto pp = ps.probabilities();
    for (std::uint64_t pb = 0; pb < pp.size(); ++pb) {
      bool match = true;
      for (std::size_t q = 0; q < 2; ++q) {
        if (((lb >> q) & 1u) !=
            ((pb >> result->layout[q]) & 1u)) {
          match = false;
          break;
        }
      }
      if (match) marginal += pp[pb];
    }
    EXPECT_NEAR(marginal, std::norm(ls.amplitude(lb)), 1e-9) << "basis " << lb;
  }
}

// -------------------------------------------------------------- OneHotGroups

TEST(OneHotGroups, Validation) {
  OneHotGroups ok{{{0, 1}, {2, 3}}};
  EXPECT_NO_THROW(ok.validate(4));
  EXPECT_EQ(ok.num_qubits(), 4u);

  OneHotGroups overlapping{{{0, 1}, {1, 2}}};
  EXPECT_THROW(overlapping.validate(3), std::invalid_argument);
  OneHotGroups empty{{{}}};
  EXPECT_THROW(empty.validate(1), std::invalid_argument);
  OneHotGroups out_of_range{{{7}}};
  EXPECT_THROW(out_of_range.validate(3), std::invalid_argument);
}

// ----------------------------------------------------------------- W states

TEST(Aoa, WStatePreparationIsUniformOneHot) {
  for (std::size_t k : {1u, 2u, 3u, 5u}) {
    IsingModel empty_cost;
    empty_cost.h.assign(k, 0.0);
    OneHotGroups groups;
    groups.groups.push_back({});
    for (std::size_t i = 0; i < k; ++i) {
      groups.groups[0].push_back(static_cast<Qubo::Var>(i));
    }
    // Zero-parameter trick: gamma = beta = 0 leaves only the preparation.
    const Circuit c = build_aoa_circuit(empty_cost, groups, {0.0, 0.0});
    StateVector s(k);
    c.run(s);
    const auto p = s.probabilities();
    for (std::uint64_t basis = 0; basis < p.size(); ++basis) {
      if (__builtin_popcountll(basis) == 1) {
        EXPECT_NEAR(p[basis], 1.0 / static_cast<double>(k), 1e-9)
            << "k=" << k << " basis=" << basis;
      } else {
        EXPECT_NEAR(p[basis], 0.0, 1e-9) << "k=" << k << " basis=" << basis;
      }
    }
  }
}

TEST(Aoa, MixerKeepsTheFeasibleSubspace) {
  // Two groups of 2; arbitrary parameters: every sampled (noiseless) state
  // must be exactly one-hot per group.
  IsingModel cost;
  cost.h.assign(4, 0.1);
  cost.j = {{0, 2, 0.7}};
  OneHotGroups groups{{{0, 1}, {2, 3}}};
  const Circuit c = build_aoa_circuit(cost, groups, {0.8, 0.3, 0.2, 0.9});
  StateVector s(4);
  c.run(s);
  const auto p = s.probabilities();
  for (std::uint64_t basis = 0; basis < p.size(); ++basis) {
    const bool g0 = __builtin_popcountll(basis & 0b0011) == 1;
    const bool g1 = __builtin_popcountll(basis & 0b1100) == 1;
    if (!(g0 && g1)) {
      EXPECT_NEAR(p[basis], 0.0, 1e-9) << basis;
    }
  }
}

// ----------------------------------------------------------------- Full run

TEST(Aoa, SolvesSmallColoringWithoutOneHotPenalties) {
  // 3-coloring of a 5-cycle: 15 qubits. The AOA needs only the conflict
  // terms; every noiseless sample is one-hot valid by construction.
  const MapColoringProblem problem{cycle_graph(5), 3};
  const CompiledQubo cq = compile(problem.encode());
  QaoaOptions options;
  options.shots = 1500;
  options.noise.error_1q = 0.0;
  options.noise.error_cx = 0.0;
  options.noise.readout_flip = 0.0;
  options.max_sim_qubits = 16;
  Rng rng(5);
  const QaoaResult result =
      run_aoa(problem.conflict_qubo(), cq.qubo, OneHotGroups{problem.one_hot_groups()},
              brooklyn_coupling(), options, rng);
  EXPECT_EQ(result.mode, "xy-mixer-aoa");
  // All samples decode as one-hot; a good fraction are proper colorings.
  std::size_t proper = 0;
  for (const auto& s : result.samples) {
    ASSERT_TRUE(decode_one_hot(s, 5, 3).has_value());
    if (problem.verify(s)) ++proper;
  }
  EXPECT_GT(proper, result.samples.size() / 10);
}

// OpenMP team sizes of the thread-count comparisons: {1} under TSan,
// whose uninstrumented libgomp barriers make every region look racy.
std::vector<int> team_sizes() {
#if defined(__SANITIZE_THREAD__)
  return {1};
#else
  return {1, 4, 8};
#endif
}

// FNV-1a over an AOA result: num_jobs, best_energy's bits, depth, CX count
// and the fidelity's bits, then every sample's bits and energy's bits in
// result order.
std::uint64_t digest_aoa(const QaoaResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(result.num_jobs);
  mix(std::bit_cast<std::uint64_t>(result.best_energy));
  mix(result.depth);
  mix(result.cx_count);
  mix(std::bit_cast<std::uint64_t>(result.fidelity));
  for (std::size_t s = 0; s < result.samples.size(); ++s) {
    for (const bool bit : result.samples[s]) mix(bit ? 1u : 0u);
    mix(std::bit_cast<std::uint64_t>(result.energies[s]));
  }
  return h;
}

TEST(Aoa, SolvesArePinned) {
  // Digests of run_aoa as it ran with its own transpile probe, optimizer
  // loop and shot job: a change that moves one amplitude's last bit (and
  // with it the optimizer's path), one draw, one energy or one circuit
  // metric fails here. The cases, options and seeds are
  // bench_ablation_mixer's: three map colorings, 2000 noiseless shots.
  const std::tuple<Graph, int, std::uint64_t> cases[] = {
      {path_graph(4), 2, 0xda0926eef3bbdbdbull},
      {cycle_graph(5), 3, 0x7b910c9c77f8a679ull},
      {vertex_scaling_graph(3), 3, 0x56fe7adc6e17a231ull},
  };
  QaoaOptions options;
  options.shots = 2000;
  options.max_sim_qubits = 16;
  options.noise.error_1q = 0.0;
  options.noise.error_cx = 0.0;
  options.noise.readout_flip = 0.0;
  const Graph coupling = brooklyn_coupling();
  const int saved = omp_get_max_threads();
  for (const int team : team_sizes()) {
    omp_set_num_threads(team);
    for (std::size_t c = 0; c < std::size(cases); ++c) {
      const auto& [graph, colors, expected] = cases[c];
      const MapColoringProblem problem{graph, colors};
      const CompiledQubo cq = compile(problem.encode());
      ASSERT_LE(cq.num_qubo_vars(), options.max_sim_qubits);
      Rng rng(200 + c);
      const QaoaResult result =
          run_aoa(problem.conflict_qubo(), cq.qubo,
                  OneHotGroups{problem.one_hot_groups()}, coupling, options,
                  rng);
      const std::uint64_t digest = digest_aoa(result);
      EXPECT_EQ(digest, expected)
          << "case " << c << ", " << team << " threads: 0x" << std::hex
          << digest << std::dec;
    }
  }
  omp_set_num_threads(saved);
}

TEST(Aoa, RejectsOversizedProblems) {
  const MapColoringProblem problem{cycle_graph(12), 3};  // 36 qubits
  QaoaOptions options;
  options.max_sim_qubits = 16;
  Rng rng(6);
  const Qubo conflict = problem.conflict_qubo();
  EXPECT_THROW(run_aoa(conflict, conflict,
                       OneHotGroups{problem.one_hot_groups()},
                       brooklyn_coupling(), options, rng),
               std::invalid_argument);
}

}  // namespace
}  // namespace nck
