// Tests for the qbsolv-style decomposition stack (DESIGN.md §3i): the
// partition planner's QUBO-cost model, program-level incumbent clamping,
// the tabu polish, the one-subproblem byte-identity guarantee over the
// shipped example programs, and the headline 203-variable set cover
// solved end-to-end on the annealer past the 65-variable device cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <vector>

#include "core/compile.hpp"
#include "core/parse.hpp"
#include "decompose/decompose.hpp"
#include "problems/cover.hpp"
#include "runtime/pool.hpp"
#include "runtime/solver.hpp"

namespace nck {
namespace {

// The headline instance: 41 blocks x 8 elements with full/half subset
// alternatives and 2 straddlers per boundary — 203 variables, one
// interaction component, minimum cover provably 41 (see
// chained_set_system). Small variants reuse the same generator.
MinSetCoverProblem headline_cover(std::size_t blocks = 41) {
  return MinSetCoverProblem{chained_set_system(blocks, 8, 2, 4)};
}

// Every variable appears in exactly one part.
void expect_exact_cover_of_vars(const decompose::Partition& plan,
                                std::size_t num_vars) {
  std::vector<std::size_t> seen(num_vars, 0);
  for (const auto& part : plan.parts) {
    EXPECT_FALSE(part.empty());
    EXPECT_TRUE(std::is_sorted(part.begin(), part.end()));
    for (VarId v : part) {
      ASSERT_LT(v, num_vars);
      ++seen[v];
    }
  }
  for (std::size_t v = 0; v < num_vars; ++v) {
    EXPECT_EQ(seen[v], 1u) << "variable " << v;
  }
}

// --------------------------------------------------------------------------
// plan_partition
// --------------------------------------------------------------------------

TEST(PlanPartition, NullEngineEnforcesPlainVariableCap) {
  // A 10-variable chain (pairwise constraints) with cap 4: every part has
  // at most 4 variables and the parts cover the chain exactly once.
  Env env;
  const auto vars = env.new_vars(10, "x");
  for (std::size_t i = 0; i + 1 < vars.size(); ++i) {
    env.nck({vars[i], vars[i + 1]}, {1});
  }
  const auto plan = decompose::plan_partition(env, 4);
  EXPECT_EQ(plan.components, 1u);
  EXPECT_GE(plan.parts.size(), 3u);
  for (const auto& part : plan.parts) EXPECT_LE(part.size(), 4u);
  expect_exact_cover_of_vars(plan, env.num_vars());
}

TEST(PlanPartition, DeterministicAcrossCalls) {
  const Env env = headline_cover(10).encode();
  SynthEngine engine_a, engine_b;
  const auto a = decompose::plan_partition(env, 65, &engine_a);
  const auto b = decompose::plan_partition(env, 65, &engine_b);
  EXPECT_EQ(a.parts, b.parts);
  EXPECT_EQ(a.components, b.components);
}

TEST(PlanPartition, CostModelKeepsCompiledSubQubosWithinBudget) {
  // The cap counts QUBO variables (program vars + synthesized ancillas of
  // every touched constraint). The planner's estimate uses the unclamped
  // patterns, which upper-bound the clamped copies, so each clamped
  // sub-program must compile within the budget.
  const Env env = headline_cover(10).encode();
  SynthEngine engine;
  constexpr std::size_t kBudget = 65;
  const auto plan = decompose::plan_partition(env, kBudget, &engine);
  expect_exact_cover_of_vars(plan, env.num_vars());
  ASSERT_GT(plan.parts.size(), 1u);

  const std::vector<bool> incumbent(env.num_vars(), false);
  for (const auto& part : plan.parts) {
    const auto sub = decompose::clamp_to_incumbent(env, part, incumbent);
    SynthEngine sub_engine;
    const CompiledQubo compiled = compile(sub.env, sub_engine);
    EXPECT_LE(compiled.num_qubo_vars(), kBudget)
        << "part starting at variable " << part.front();
  }
}

TEST(PlanPartition, AncillaChargingMakesPartsSmallerThanVarCapAlone) {
  const Env env = headline_cover(10).encode();
  SynthEngine engine;
  const auto cost_aware = decompose::plan_partition(env, 65, &engine);
  const auto var_only = decompose::plan_partition(env, 65);
  // Set-cover constraints synthesize several ancillas each, so charging
  // them must produce strictly more, smaller parts.
  EXPECT_GT(cost_aware.parts.size(), var_only.parts.size());
}

TEST(PlanPartition, PacksWholeComponentsFirstFit) {
  // Four independent 3-variable components under cap 6: packable two per
  // part without splitting any component.
  Env env;
  for (int k = 0; k < 4; ++k) {
    const auto vars = env.new_vars(3, "c" + std::to_string(k) + "_");
    env.nck({vars[0], vars[1], vars[2]}, {1});
  }
  const auto plan = decompose::plan_partition(env, 6);
  EXPECT_EQ(plan.components, 4u);
  EXPECT_EQ(plan.parts.size(), 2u);
  expect_exact_cover_of_vars(plan, env.num_vars());
}

TEST(PlanPartition, OversizedSingleVariableStillGetsAPart) {
  // A single constraint whose synthesized QUBO alone exceeds the budget:
  // decomposition can shrink neighborhoods, not constraints, so every
  // variable still lands in a (budget-violating) singleton part.
  Env env;
  const auto vars = env.new_vars(5, "x");
  env.nck({vars[0], vars[1], vars[2], vars[3], vars[4]}, {2, 3});
  SynthEngine engine;
  const auto plan = decompose::plan_partition(env, 2, &engine);
  expect_exact_cover_of_vars(plan, env.num_vars());
  EXPECT_EQ(plan.parts.size(), 5u);
}

TEST(PlanPartition, RejectsZeroBudget) {
  Env env;
  env.new_vars(2, "x");
  EXPECT_THROW(decompose::plan_partition(env, 0), std::invalid_argument);
}

// --------------------------------------------------------------------------
// clamp_to_incumbent
// --------------------------------------------------------------------------

TEST(ClampToIncumbent, ShiftsSelectionByClampedTrueCount) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b, c}, {2});
  std::vector<bool> incumbent{false, true, false};  // b clamped TRUE
  const auto sub = decompose::clamp_to_incumbent(env, {a, c}, incumbent);
  ASSERT_EQ(sub.env.num_constraints(), 1u);
  const Constraint& cc = sub.env.constraints()[0];
  EXPECT_EQ(cc.collection().size(), 2u);
  EXPECT_EQ(cc.selection(), (std::set<unsigned>{1}));  // 2 - 1 clamped TRUE
}

TEST(ClampToIncumbent, TalliesConstraintsDecidedByTheBoundary) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({b, c}, {2});               // fully clamped, violated
  env.nck({b}, {1}, ConstraintKind::kSoft);  // fully clamped, satisfied
  env.nck({c}, {1}, ConstraintKind::kSoft);  // fully clamped, violated
  env.prefer_true(a);                 // survives into the sub-program
  std::vector<bool> incumbent{false, true, false};
  const auto sub = decompose::clamp_to_incumbent(env, {a}, incumbent);
  EXPECT_EQ(sub.clamped_hard_violated, 1u);
  EXPECT_EQ(sub.clamped_soft_satisfied, 1u);
  EXPECT_EQ(sub.clamped_soft_violated, 1u);
  EXPECT_EQ(sub.env.num_constraints(), 1u);
}

TEST(ClampToIncumbent, DropsConditionalTautologies) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  // With b clamped TRUE, "at least 1 of {a, b}" holds for every a.
  env.at_least({a, b}, 1);
  std::vector<bool> incumbent{false, true};
  const auto sub = decompose::clamp_to_incumbent(env, {a}, incumbent);
  EXPECT_EQ(sub.env.num_constraints(), 0u);
  EXPECT_EQ(sub.clamped_hard_violated, 0u);
}

TEST(ClampToIncumbent, SubSolveMatchesConditionalOptimum) {
  // Brute-forcing the sub-program must equal brute-forcing the original
  // restricted to the part (the clamp is exact at the program level).
  const Env env = headline_cover(2).encode();
  const std::size_t n = env.num_vars();
  SynthEngine engine;
  const auto plan = decompose::plan_partition(env, 6, &engine);
  ASSERT_GT(plan.parts.size(), 1u);
  std::vector<bool> incumbent(n, false);
  for (std::size_t v = 0; v < n; v += 2) incumbent[v] = true;

  for (const auto& part : plan.parts) {
    const auto sub = decompose::clamp_to_incumbent(env, part, incumbent);
    ASSERT_LE(part.size(), 20u);

    // Conditional optimum via the original program.
    Evaluation best_direct;
    bool have_direct = false;
    std::vector<bool> full = incumbent;
    for (std::size_t mask = 0; mask < (1u << part.size()); ++mask) {
      for (std::size_t i = 0; i < part.size(); ++i) {
        full[part[i]] = (mask >> i) & 1;
      }
      const Evaluation ev = env.evaluate(full);
      if (!have_direct || decompose::improves(ev, best_direct)) {
        best_direct = ev;
        have_direct = true;
      }
    }

    // Conditional optimum via the sub-program plus the clamp tallies.
    Evaluation best_sub;
    bool have_sub = false;
    std::vector<bool> subx(sub.env.num_vars());
    for (std::size_t mask = 0; mask < (1u << part.size()); ++mask) {
      for (std::size_t i = 0; i < part.size(); ++i) subx[i] = (mask >> i) & 1;
      const Evaluation ev = sub.env.evaluate(subx);
      if (!have_sub || decompose::improves(ev, best_sub)) {
        best_sub = ev;
        have_sub = true;
      }
    }
    EXPECT_EQ(best_direct.hard_violated,
              best_sub.hard_violated + sub.clamped_hard_violated);
    EXPECT_EQ(best_direct.soft_satisfied,
              best_sub.soft_satisfied + sub.clamped_soft_satisfied);
  }
}

// --------------------------------------------------------------------------
// polish_assignment
// --------------------------------------------------------------------------

TEST(PolishAssignment, CrossesTheOneSoftUnitRidge) {
  // Minimal instance of the stall the polish exists for: covering {0..3}
  // with F = {0,1,2,3}, H1 = {0,1}, H2 = {2,3}. From the {H1, H2} cover,
  // reaching the one-subset optimum {F} requires turning F on first — a
  // strict soft loss no descent accepts. Tabu must cross it.
  const MinSetCoverProblem problem{SetSystem{4, {{0, 1, 2, 3}, {0, 1}, {2, 3}}}};
  const Env env = problem.encode();
  const std::vector<bool> halves{false, true, true};
  ASSERT_TRUE(env.evaluate(halves).feasible());
  const std::vector<bool> polished =
      decompose::polish_assignment(env, halves);
  const Evaluation ev = env.evaluate(polished);
  EXPECT_TRUE(ev.feasible());
  EXPECT_EQ(ev.soft_satisfied, 2u);  // F on, both halves off
  EXPECT_EQ(polished, (std::vector<bool>{true, false, false}));
}

TEST(PolishAssignment, NeverReturnsWorseAndRepairsFeasibility) {
  const Env env = headline_cover(3).encode();
  const std::vector<bool> nothing(env.num_vars(), false);  // all uncovered
  const std::vector<bool> polished =
      decompose::polish_assignment(env, nothing);
  const Evaluation ev = env.evaluate(polished);
  EXPECT_TRUE(ev.feasible());
  // Identical inputs give identical outputs (pure function, no RNG).
  EXPECT_EQ(polished, decompose::polish_assignment(env, nothing));
}

TEST(PolishAssignment, ZeroItersIsTheIdentity) {
  const Env env = headline_cover(2).encode();
  const std::vector<bool> start(env.num_vars(), true);
  EXPECT_EQ(decompose::polish_assignment(env, start, 0), start);
}

// --------------------------------------------------------------------------
// The trivial one-subproblem case: byte-identical to the plain pipeline
// --------------------------------------------------------------------------

std::string report_fingerprint(const SolveReport& r) {
  std::ostringstream os;
  os << r.ran << '|' << static_cast<int>(r.failure) << '|'
     << static_cast<int>(r.best_quality) << '|' << r.num_samples << '|'
     << r.counts.optimal << '/' << r.counts.suboptimal << '/'
     << r.counts.incorrect << '|' << r.truth_exact << '|';
  for (bool b : r.best_assignment) os << int(b);
  return os.str();
}

TEST(DecomposeStage, AtOrUnderTheCapIsByteIdenticalToPlainSolve) {
  // Over every shipped example program at or under the cap, enabling
  // decomposition must not change one byte of the outcome: the stage only
  // engages past subproblem_vars.
  const std::filesystem::path dir = NCK_REPO_DIR "/examples/programs";
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".nck") continue;
    std::ifstream in(entry.path());
    std::stringstream buffer;
    buffer << in.rdbuf();
    const Env env = parse_program(buffer.str());
    if (env.num_vars() > 65) continue;  // the headline instance decomposes

    Solver plain(1234);
    const SolveReport before = plain.solve(env, BackendKind::kClassical);

    Solver decomposed(1234);
    decomposed.solve_options().decompose.enabled = true;
    const SolveReport after = decomposed.solve(env, BackendKind::kClassical);

    EXPECT_EQ(report_fingerprint(before), report_fingerprint(after))
        << entry.path().filename();
    ++checked;
  }
  EXPECT_GE(checked, 5u);
}

TEST(DecomposeStage, ZeroRoundsIsRejectedAsBadOptions) {
  // A loop of zero rounds would end the solve with no answer and no failure
  // kind; entry validation rejects it, as it does a zero subproblem cap.
  Solver solver(1234);
  auto& d = solver.solve_options().decompose;
  d.enabled = true;
  d.subproblem_vars = 2;
  d.max_rounds = 0;
  const SolveReport report = solver.solve(
      parse_program("nck({a,b},{1,2}) nck({b,c},{1,2}) nck({a},{0},soft)"),
      BackendKind::kAnnealer);
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(report.failure, FailureKind::kBadOptions);
  EXPECT_NE(report.failure_message().find("decompose.max_rounds must be >= 1"),
            std::string::npos);
}

// --------------------------------------------------------------------------
// End to end: 203 variables through a 65-variable device cap
// --------------------------------------------------------------------------

SolveReport solve_headline(std::size_t num_threads) {
  Solver solver(7);
  auto& d = solver.solve_options().decompose;
  d.enabled = true;
  d.num_threads = num_threads;
  return solver.solve(headline_cover().encode(), BackendKind::kAnnealer);
}

TEST(DecomposeStage, SolvesPastTheDeviceCapAndMatchesGroundTruth) {
  const MinSetCoverProblem problem = headline_cover();
  const SolveReport report = solve_headline(1);
  ASSERT_TRUE(report.ran);
  ASSERT_TRUE(report.decompose.has_value());
  const auto& d = *report.decompose;
  EXPECT_EQ(d.num_vars, 203u);
  EXPECT_GT(d.subproblems, 1u);
  EXPECT_EQ(d.components, 1u);
  EXPECT_TRUE(d.converged);
  // One straddler-chained component of 203 variables: past the exact-truth
  // ceiling, so the truth is referenced to the incumbent.
  EXPECT_FALSE(d.truth_exact);
  EXPECT_FALSE(report.truth_exact);

  // Classification matches classical ground truth: the instance's minimum
  // cover is provably its block count (chained_set_system), and the
  // incumbent-referenced report must classify as optimal.
  EXPECT_TRUE(problem.verify(report.best_assignment));
  EXPECT_EQ(problem.cover_size(report.best_assignment), 41u);
  EXPECT_EQ(report.best_quality, Quality::kOptimal);

  // Iterated rounds hit the content-addressed sub-plan cache: every round
  // after the first re-solves clamped variants of the same parts.
  ASSERT_GE(d.round_stats.size(), 2u);
  std::size_t later_hits = 0;
  for (std::size_t r = 1; r < d.round_stats.size(); ++r) {
    later_hits += d.round_stats[r].cache_hits;
  }
  EXPECT_GT(later_hits, 0u);
  // The incumbent energy trajectory is monotone (strict acceptance).
  for (std::size_t r = 1; r < d.round_stats.size(); ++r) {
    EXPECT_GE(d.round_stats[r - 1].hard_violated,
              d.round_stats[r].hard_violated);
    EXPECT_GE(d.round_stats[r].soft_satisfied,
              d.round_stats[r - 1].soft_satisfied);
  }
}

TEST(DecomposeStage, ShippedExampleProgramMatchesTheGenerator) {
  // examples/programs/set_cover_large.nck is the checked-in text of the
  // headline instance; regenerate and compare so the walkthroughs in the
  // README cannot drift from the generator.
  std::ifstream in(NCK_REPO_DIR "/examples/programs/set_cover_large.nck");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), headline_cover().encode().to_string() + "\n");
}

TEST(DecomposeStage, BitIdenticalAcrossThreadCounts) {
  const SolveReport one = solve_headline(1);
  const SolveReport eight = solve_headline(8);
  ASSERT_TRUE(one.ran);
  ASSERT_TRUE(eight.ran);
  EXPECT_EQ(one.best_assignment, eight.best_assignment);
  EXPECT_EQ(report_fingerprint(one), report_fingerprint(eight));
  ASSERT_TRUE(one.decompose.has_value());
  ASSERT_TRUE(eight.decompose.has_value());
  EXPECT_EQ(one.decompose->rounds, eight.decompose->rounds);
  for (std::size_t r = 0; r < one.decompose->round_stats.size(); ++r) {
    EXPECT_EQ(one.decompose->round_stats[r].soft_satisfied,
              eight.decompose->round_stats[r].soft_satisfied);
  }
}

}  // namespace
}  // namespace nck
