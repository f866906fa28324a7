#include <gtest/gtest.h>

#include <cmath>

#include "qubo/brute_force.hpp"
#include "qubo/heuristic.hpp"
#include "qubo/ising.hpp"
#include "qubo/qubo.hpp"
#include "util/rng.hpp"

namespace nck {
namespace {

Qubo random_qubo(std::size_t n, Rng& rng, double density = 0.5) {
  Qubo q(n);
  for (std::size_t i = 0; i < n; ++i) {
    q.add_linear(static_cast<Qubo::Var>(i),
                 static_cast<double>(rng.between(-5, 5)));
    for (std::size_t j = i + 1; j < n; ++j) {
      if (rng.bernoulli(density)) {
        q.add_quadratic(static_cast<Qubo::Var>(i), static_cast<Qubo::Var>(j),
                        static_cast<double>(rng.between(-5, 5)));
      }
    }
  }
  q.add_offset(static_cast<double>(rng.between(-3, 3)));
  return q;
}

TEST(Qubo, EnergyOfPaperVertexCoverQubo) {
  // f(a, b) = ab - a - b from Section V, minimized when at least one is 1.
  Qubo q;
  q.add_quadratic(0, 1, 1.0);
  q.add_linear(0, -1.0);
  q.add_linear(1, -1.0);
  EXPECT_DOUBLE_EQ(q.energy({false, false}), 0.0);
  EXPECT_DOUBLE_EQ(q.energy({true, false}), -1.0);
  EXPECT_DOUBLE_EQ(q.energy({false, true}), -1.0);
  EXPECT_DOUBLE_EQ(q.energy({true, true}), -1.0);
}

TEST(Qubo, QuadraticAccumulatesUnordered) {
  Qubo q;
  q.add_quadratic(2, 5, 1.5);
  q.add_quadratic(5, 2, 0.5);
  EXPECT_DOUBLE_EQ(q.quadratic(2, 5), 2.0);
  EXPECT_DOUBLE_EQ(q.quadratic(5, 2), 2.0);
  EXPECT_EQ(q.num_variables(), 6u);
}

TEST(Qubo, DiagonalFoldsToLinear) {
  Qubo q;
  q.add_quadratic(3, 3, 2.0);
  EXPECT_DOUBLE_EQ(q.linear(3), 2.0);
  EXPECT_EQ(q.num_quadratic_terms(), 0u);
}

TEST(Qubo, TermCounts) {
  Qubo q;
  q.add_linear(0, 1.0);
  q.add_linear(1, 0.0);  // zero: not counted
  q.add_quadratic(0, 1, -2.0);
  q.add_quadratic(1, 2, 1e-12);  // below eps: not counted
  EXPECT_EQ(q.num_linear_terms(), 1u);
  EXPECT_EQ(q.num_quadratic_terms(), 1u);
  EXPECT_EQ(q.num_terms(), 2u);
}

TEST(Qubo, CompositionIsAdditive) {
  Rng rng(5);
  const Qubo a = random_qubo(6, rng);
  const Qubo b = random_qubo(6, rng);
  const Qubo sum = a + b;
  std::vector<bool> x(6);
  for (std::uint32_t bits = 0; bits < 64; ++bits) {
    for (std::size_t i = 0; i < 6; ++i) x[i] = (bits >> i) & 1u;
    EXPECT_NEAR(sum.energy(x), a.energy(x) + b.energy(x), 1e-9);
  }
}

TEST(Qubo, ScalePreservesMinimizers) {
  Rng rng(6);
  const Qubo q = random_qubo(5, rng);
  Qubo scaled = q;
  scaled.scale(3.5);
  const auto r1 = brute_force_minimize(q);
  const auto r2 = brute_force_minimize(scaled);
  EXPECT_EQ(r1.ground_states, r2.ground_states);
  EXPECT_NEAR(r2.min_energy, 3.5 * r1.min_energy, 1e-9);
  EXPECT_THROW(scaled.scale(-1.0), std::invalid_argument);
}

TEST(Qubo, RemappedRelabelsVariables) {
  Qubo q;
  q.add_linear(0, 1.0);
  q.add_quadratic(0, 1, 2.0);
  const std::vector<Qubo::Var> mapping{7, 3};
  const Qubo r = q.remapped(mapping);
  EXPECT_DOUBLE_EQ(r.linear(7), 1.0);
  EXPECT_DOUBLE_EQ(r.quadratic(3, 7), 2.0);
  EXPECT_EQ(r.num_variables(), 8u);
}

TEST(Qubo, ScaleRejectsNonPositiveFactor) {
  Qubo q;
  q.add_linear(0, 1.0);
  EXPECT_THROW(q.scale(0.0), std::invalid_argument);
  EXPECT_THROW(q.scale(-2.5), std::invalid_argument);
  // A throwing scale must leave the QUBO untouched.
  EXPECT_DOUBLE_EQ(q.linear(0), 1.0);
}

TEST(Qubo, EnergyRejectsShortAssignment) {
  Qubo q;
  q.add_linear(4, 1.0);
  EXPECT_THROW(q.energy({true, false}), std::invalid_argument);
}

TEST(Qubo, EnergyIgnoresTrailingExtraEntries) {
  // Over-long assignments are fine (samplers hand back physical-size
  // vectors); only indices below num_variables() contribute.
  Qubo q;
  q.add_linear(0, -1.0);
  q.add_quadratic(0, 1, 2.0);
  EXPECT_DOUBLE_EQ(q.energy({true, true, true, true}), 1.0);
  EXPECT_DOUBLE_EQ(q.energy({true, false, true}), -1.0);
}

TEST(Qubo, RemappedDuplicateTargetsFoldQuadraticToLinear) {
  // A non-injective mapping merges variables: x_i x_j with both mapped to
  // the same target becomes x^2 == x, i.e. a linear term.
  Qubo q;
  q.add_linear(0, 1.0);
  q.add_linear(1, 0.5);
  q.add_quadratic(0, 1, 2.0);
  const std::vector<Qubo::Var> mapping{4, 4};
  const Qubo r = q.remapped(mapping);
  EXPECT_DOUBLE_EQ(r.linear(4), 3.5);  // 1.0 + 0.5 + folded 2.0
  EXPECT_EQ(r.num_quadratic_terms(), 0u);
  EXPECT_EQ(r.num_variables(), 5u);
  // Energies agree with substituting the merged variable.
  EXPECT_DOUBLE_EQ(r.energy({false, false, false, false, true}),
                   q.energy({true, true}));
  EXPECT_DOUBLE_EQ(r.energy({false, false, false, false, false}),
                   q.energy({false, false}));
}

TEST(Qubo, ToStringReadable) {
  Qubo q;
  q.add_offset(1.0);
  q.add_linear(0, -1.0);
  q.add_quadratic(0, 1, 1.0);
  const std::string s = q.to_string();
  EXPECT_NE(s.find("x0"), std::string::npos);
  EXPECT_NE(s.find("x0*x1"), std::string::npos);
}

TEST(Ising, RoundTripPreservesEnergies) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    const Qubo q = random_qubo(6, rng);
    const IsingModel m = qubo_to_ising(q);
    const Qubo back = ising_to_qubo(m);
    std::vector<bool> x(6);
    for (std::uint32_t bits = 0; bits < 64; ++bits) {
      for (std::size_t i = 0; i < 6; ++i) x[i] = (bits >> i) & 1u;
      // QUBO energy at x == Ising energy at s = 2x - 1 (same bool encoding).
      EXPECT_NEAR(q.energy(x), m.energy(x), 1e-9);
      EXPECT_NEAR(q.energy(x), back.energy(x), 1e-9);
    }
  }
}

TEST(Ising, MaxCutConversionAddsLinearTerms) {
  // The paper (Table I, max cut) notes Ising -> QUBO conversion raises
  // O(|E|) to O(|E| + |V|): pure couplers gain linear terms.
  IsingModel m;
  m.h.assign(3, 0.0);
  m.j = {{0, 1, 1.0}, {1, 2, 1.0}};
  const Qubo q = ising_to_qubo(m);
  EXPECT_EQ(q.num_quadratic_terms(), 2u);
  EXPECT_GT(q.num_linear_terms(), 0u);
}

TEST(BruteForce, FindsAllGroundStates) {
  // x0 XOR x1 penalty: equal assignments are ground.
  Qubo q;
  q.add_linear(0, 1.0);
  q.add_linear(1, 1.0);
  q.add_quadratic(0, 1, -2.0);
  const auto r = brute_force_minimize(q);
  EXPECT_DOUBLE_EQ(r.min_energy, 0.0);
  ASSERT_EQ(r.ground_states.size(), 2u);
  EXPECT_EQ(r.ground_states[0], (std::vector<bool>{false, false}));
  EXPECT_EQ(r.ground_states[1], (std::vector<bool>{true, true}));
  EXPECT_FALSE(r.truncated);

  Qubo unique;
  unique.add_linear(0, -1.0);
  unique.add_linear(1, 2.0);
  // One ground state, x0=1, x1=0, at energy -1.
  EXPECT_DOUBLE_EQ(brute_force_min_energy(unique), -1.0);
}

TEST(BruteForce, TruncationFlag) {
  const Qubo q(4);  // all-zero: every state is ground
  const auto r = brute_force_minimize(q, 5);
  EXPECT_TRUE(r.truncated);
  EXPECT_EQ(r.ground_states.size(), 5u);
}

TEST(BruteForce, RejectsHugeProblems) {
  const Qubo q(31);
  EXPECT_THROW(brute_force_minimize(q), std::invalid_argument);
}

TEST(Heuristic, AnnealFindsGroundOfSmallProblems) {
  Rng rng(11);
  for (int trial = 0; trial < 5; ++trial) {
    const Qubo q = random_qubo(10, rng);
    const double exact = brute_force_min_energy(q);
    Rng sampler_rng(100 + trial);
    const auto samples = anneal(q, {}, 32, sampler_rng);
    ASSERT_FALSE(samples.empty());
    EXPECT_NEAR(samples.front().energy, exact, 1e-9)
        << "trial " << trial;
    // Sorted ascending by energy.
    for (std::size_t i = 1; i < samples.size(); ++i) {
      EXPECT_LE(samples[i - 1].energy, samples[i].energy);
    }
  }
}

TEST(Heuristic, GreedyDescentReachesLocalMinimum) {
  Rng rng(12);
  const Qubo q = random_qubo(8, rng);
  const Sample s = greedy_descent(q, std::vector<bool>(8, false));
  // No single flip improves.
  for (std::size_t i = 0; i < 8; ++i) {
    auto flipped = s.x;
    flipped[i] = !flipped[i];
    EXPECT_GE(q.energy(flipped), s.energy - 1e-9);
  }
  EXPECT_NEAR(q.energy(s.x), s.energy, 1e-9);
}

TEST(Heuristic, TabuSearchCrossesBarriersDescentCannot) {
  // Two coupled variables: E(00) = 0 (global), E(11) = 1 (local),
  // E(01) = E(10) = 3 (the ridge). Descent from 11 is stuck; tabu must
  // climb through the ridge and reach 00.
  Qubo q;
  q.add_linear(0, 3.0);
  q.add_linear(1, 3.0);
  q.add_quadratic(0, 1, -5.0);
  ASSERT_NEAR(q.energy({true, true}), 1.0, 1e-12);
  ASSERT_NEAR(q.energy({false, false}), 0.0, 1e-12);

  const Sample stuck = greedy_descent(q, {true, true});
  EXPECT_NEAR(stuck.energy, 1.0, 1e-12);  // descent cannot move

  const Sample s = tabu_search(q, {true, true}, {.max_iters = 16});
  EXPECT_NEAR(s.energy, 0.0, 1e-12);
  EXPECT_EQ(s.x, (std::vector<bool>{false, false}));
}

TEST(Heuristic, TabuSearchIsDeterministicAndNeverWorseThanDescent) {
  Rng rng(14);
  for (int trial = 0; trial < 5; ++trial) {
    const Qubo q = random_qubo(10, rng);
    const std::vector<bool> start(10, trial % 2 == 0);
    const Sample descended = greedy_descent(q, start);
    const Sample a = tabu_search(q, start, {.max_iters = 200});
    const Sample b = tabu_search(q, start, {.max_iters = 200});
    EXPECT_EQ(a.x, b.x) << "trial " << trial;
    EXPECT_LE(a.energy, descended.energy + 1e-9) << "trial " << trial;
    EXPECT_NEAR(q.energy(a.x), a.energy, 1e-9) << "trial " << trial;
  }
}

TEST(Heuristic, TabuSearchWithZeroItersIsGreedyDescent) {
  Rng rng(15);
  const Qubo q = random_qubo(8, rng);
  const std::vector<bool> start(8, true);
  EXPECT_EQ(tabu_search(q, start, {}).x, greedy_descent(q, start).x);
}

TEST(Heuristic, BoltzmannPrefersLowEnergy) {
  // Single variable with energy gap: P(x=1)/P(x=0) should be ~exp(-beta).
  Qubo q;
  q.add_linear(0, 1.0);
  Rng rng(13);
  const auto samples = boltzmann_sample(q, 2.0, 4000, rng);
  std::size_t ones = 0;
  for (const auto& s : samples) {
    if (s.x[0]) ++ones;
  }
  const double p1 =
      static_cast<double>(ones) / static_cast<double>(samples.size());
  const double expected = std::exp(-2.0) / (1.0 + std::exp(-2.0));
  EXPECT_NEAR(p1, expected, 0.03);
}

// Property sweep: brute force on random QUBOs agrees with a slow reference
// evaluation of the reported ground states.
class BruteForceProperty : public ::testing::TestWithParam<int> {};

TEST_P(BruteForceProperty, GroundStatesHaveMinEnergy) {
  Rng rng(static_cast<std::uint64_t>(1000 + GetParam()));
  const Qubo q = random_qubo(4 + GetParam() % 6, rng);
  const auto r = brute_force_minimize(q);
  ASSERT_FALSE(r.ground_states.empty());
  for (const auto& gs : r.ground_states) {
    EXPECT_NEAR(q.energy(gs), r.min_energy, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomQubos, BruteForceProperty,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace nck
