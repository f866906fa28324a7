#include <gtest/gtest.h>

#include "classical/adapter.hpp"
#include "classical/exact_solver.hpp"
#if NCK_HAVE_Z3
#include "classical/z3_backend.hpp"
#endif
#include "core/compile.hpp"
#include "problems/vertex_cover.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace nck {
namespace {

Env random_program(std::size_t n, std::size_t constraints, double soft_p,
                   Rng& rng) {
  Env env;
  const auto vars = env.new_vars(n, "v");
  for (std::size_t k = 0; k < constraints; ++k) {
    const std::size_t size = 1 + rng.below(std::min<std::size_t>(4, n));
    std::vector<VarId> coll;
    for (std::size_t i = 0; i < size; ++i) coll.push_back(vars[rng.below(n)]);
    std::set<unsigned> sel;
    for (unsigned s = 0; s <= coll.size(); ++s) {
      if (rng.bernoulli(0.5)) sel.insert(s);
    }
    if (sel.empty()) sel.insert(0);
    env.nck(coll, sel,
            rng.bernoulli(soft_p) ? ConstraintKind::kSoft
                                  : ConstraintKind::kHard);
  }
  return env;
}

TEST(ExactSolver, SimpleFeasibleProgram) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b}, {0, 1});
  env.nck({b, c}, {1});
  const auto solution = solve_exact(env);
  ASSERT_TRUE(solution.feasible);
  EXPECT_TRUE(env.evaluate(solution.assignment).feasible());
}

TEST(ExactSolver, DetectsInfeasibility) {
  Env env;
  const auto v = env.new_vars(3, "v");
  env.different(v[0], v[1]);
  env.different(v[0], v[2]);
  env.different(v[1], v[2]);
  const auto solution = solve_exact(env);
  EXPECT_FALSE(solution.feasible);
  EXPECT_TRUE(solution.assignment.empty());
}

TEST(ClassicalAdapter, InfeasibleProgramFailsWithoutASample) {
  // The exact solution of an infeasible program has no witness, so execute
  // reports kInfeasible instead of evaluating an empty assignment.
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, b}, {2});
  env.nck({a, b}, {0});
  const backend::ClassicalAdapter adapter;
  SynthEngine engine;
  Rng rng(1);
  const backend::ExecutionResult result =
      backend::run_once(adapter, env, engine, rng, nullptr);
  EXPECT_EQ(result.failure, FailureKind::kInfeasible);
  EXPECT_TRUE(result.samples.empty());
  EXPECT_TRUE(result.evaluations.empty());
}

TEST(ExactSolver, MaximizesSoftConstraints) {
  // Minimum vertex cover on the paper's 5-vertex graph: 2 of 5 soft
  // constraints satisfiable (cover size 3).
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const VertexCoverProblem problem{g};
  const auto solution = solve_exact(problem.encode());
  ASSERT_TRUE(solution.feasible);
  EXPECT_EQ(solution.soft_satisfied, 2u);
  EXPECT_TRUE(problem.verify(solution.assignment));
  EXPECT_EQ(problem.cover_size(solution.assignment), 3u);
}

TEST(ExactSolver, HandlesMultiplicityConstraints) {
  Env env;
  const VarId x = env.var("x"), y = env.var("y");
  env.nck({x, x, y}, {2});  // 2x + y == 2 -> x=1, y=0
  const auto solution = solve_exact(env);
  ASSERT_TRUE(solution.feasible);
  EXPECT_TRUE(solution.assignment[x]);
  EXPECT_FALSE(solution.assignment[y]);
}

TEST(ExactSolver, SoftOnlyProgramAlwaysFeasible) {
  Env env;
  const auto v = env.new_vars(3, "v");
  env.nck({v[0], v[1]}, {1}, ConstraintKind::kSoft);
  env.nck({v[1], v[2]}, {1}, ConstraintKind::kSoft);
  const auto solution = solve_exact(env);
  ASSERT_TRUE(solution.feasible);
  EXPECT_EQ(solution.soft_satisfied, 2u);
}

class ExactVsBrute : public ::testing::TestWithParam<int> {};

TEST_P(ExactVsBrute, AgreeOnRandomPrograms) {
  Rng rng(static_cast<std::uint64_t>(9000 + GetParam()));
  Env env = random_program(4 + rng.below(5), 3 + rng.below(5), 0.4, rng);
  const auto exact = solve_exact(env);
  const auto brute = solve_brute_force(env);
  EXPECT_EQ(exact.feasible, brute.feasible);
  if (exact.feasible) {
    EXPECT_EQ(exact.soft_satisfied, brute.soft_satisfied);
    EXPECT_TRUE(env.evaluate(exact.assignment).feasible());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, ExactVsBrute, ::testing::Range(0, 30));

#if NCK_HAVE_Z3

TEST(Z3Backend, AgreesWithExactSolver) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    Env env = random_program(5 + rng.below(4), 4 + rng.below(4), 0.4, rng);
    const auto native = solve_exact(env);
    const auto z3 = solve_with_z3(env);
    EXPECT_EQ(native.feasible, z3.feasible) << "trial " << trial;
    if (native.feasible) {
      EXPECT_EQ(native.soft_satisfied, z3.soft_satisfied) << "trial " << trial;
    }
  }
}

TEST(Z3Backend, HardOnlyFastPath) {
  // No soft constraints: a plain satisfiability check, no MaxSAT.
  Env env;
  const auto v = env.new_vars(4, "v");
  env.exactly({v[0], v[1]}, 1);
  env.exactly({v[2], v[3]}, 2);
  const auto solution = solve_with_z3(env);
  ASSERT_TRUE(solution.feasible);
  EXPECT_TRUE(env.evaluate(solution.assignment).feasible());
}

TEST(Z3Backend, SolvesCompiledQubo) {
  // Fig 12's "Z3 on the QUBO" path: minimize the compiled vertex-cover QUBO
  // and check the result is a minimum cover.
  const VertexCoverProblem problem{circulant_graph(6, std::size_t{2})};
  const Env env = problem.encode();
  const CompiledQubo cq = compile(env);
  const auto result = solve_qubo_with_z3(cq.qubo);
  const std::vector<bool> cover = cq.project(result.assignment);
  EXPECT_TRUE(problem.verify(cover));
  EXPECT_EQ(problem.cover_size(cover), problem.optimal_cover_size());
}

#endif  // NCK_HAVE_Z3

}  // namespace
}  // namespace nck
