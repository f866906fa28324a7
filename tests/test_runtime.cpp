#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "backend/backend.hpp"
#include "backend/fingerprint.hpp"
#include "graph/generators.hpp"
#include "problems/max_cut.hpp"
#include "problems/vertex_cover.hpp"
#include "runtime/result.hpp"
#include "runtime/solver.hpp"

namespace nck {
namespace {

// The annealer and circuit adapters point at the Solver's own options.
static_assert(!std::is_move_constructible_v<Solver>);

Graph paper_graph() {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  return g;
}

TEST(Classify, Definition8Semantics) {
  GroundTruth truth{true, 3};
  Evaluation optimal{0, 3, 5};
  Evaluation suboptimal{0, 2, 5};
  Evaluation incorrect{1, 3, 5};
  EXPECT_EQ(classify(optimal, truth), Quality::kOptimal);
  EXPECT_EQ(classify(suboptimal, truth), Quality::kSuboptimal);
  EXPECT_EQ(classify(incorrect, truth), Quality::kIncorrect);
  EXPECT_STREQ(quality_name(Quality::kOptimal), "optimal");
}

TEST(Classify, HardOnlyProgramsHaveNoSuboptimal) {
  // With zero soft constraints, every feasible assignment is optimal.
  GroundTruth truth{true, 0};
  EXPECT_EQ(classify({0, 0, 0}, truth), Quality::kOptimal);
  EXPECT_EQ(classify({2, 0, 0}, truth), Quality::kIncorrect);
}

TEST(Classify, CountsAggregate) {
  GroundTruth truth{true, 2};
  std::vector<Evaluation> evals{{0, 2, 3}, {0, 1, 3}, {1, 0, 3}, {0, 2, 3}};
  const QualityCounts counts = classify_all(evals, truth);
  EXPECT_EQ(counts.optimal, 2u);
  EXPECT_EQ(counts.suboptimal, 1u);
  EXPECT_EQ(counts.incorrect, 1u);
  EXPECT_DOUBLE_EQ(counts.fraction_optimal(), 0.5);
  EXPECT_DOUBLE_EQ(counts.fraction_correct(), 0.75);
  EXPECT_TRUE(counts.any_optimal());
}

TEST(GroundTruthTest, ComputedFromExactSolver) {
  const VertexCoverProblem p{paper_graph()};
  const GroundTruth truth = ground_truth(p.encode());
  EXPECT_TRUE(truth.feasible);
  EXPECT_EQ(truth.best_soft_satisfied, 2u);  // min cover 3 of 5 vertices
}

TEST(SolverFacade, ClassicalBackendIsAlwaysOptimal) {
  Solver solver(42);
  const VertexCoverProblem p{paper_graph()};
  const SolveReport report = solver.solve(p.encode(), BackendKind::kClassical);
  ASSERT_TRUE(report.ran);
  EXPECT_EQ(report.best_quality, Quality::kOptimal);
  EXPECT_TRUE(p.verify(report.best_assignment));
}

TEST(SolverFacade, InfeasibleProgramReported) {
  Env env;
  const auto v = env.new_vars(3, "v");
  env.different(v[0], v[1]);
  env.different(v[0], v[2]);
  env.different(v[1], v[2]);
  Solver solver(42);
  const SolveReport report = solver.solve(env, BackendKind::kClassical);
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(report.failure, FailureKind::kInfeasible);
  EXPECT_FALSE(report.failure_message().empty());
}

TEST(SolverFacade, AnnealerBackendRunsSmallProblem) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 40;
  const MaxCutProblem p{cycle_graph(5)};
  const SolveReport report = solver.solve(p.encode(), BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_GE(report.qubits_used, 5u);
  EXPECT_EQ(report.num_samples, 40u);
  // D-Wave success criterion: some read should reach the max cut of 4.
  EXPECT_TRUE(report.counts.any_optimal());
  // Timing model: ~30 ms of QPU access for a small job (40 reads here).
  EXPECT_GT(report.backend_seconds, 0.01);
  EXPECT_LT(report.backend_seconds, 0.1);
}

TEST(SolverFacade, CircuitBackendRunsSmallProblem) {
  Solver solver(42);
  solver.circuit_options().shots = 800;
  const MaxCutProblem p{cycle_graph(4)};
  const SolveReport report = solver.solve(p.encode(), BackendKind::kCircuit);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_EQ(report.qubits_used, 4u);
  EXPECT_GT(report.circuit_depth, 0u);
  EXPECT_GT(report.backend_seconds, 100.0);  // ~500 s of modeled server time
}

TEST(SolverFacade, EmptyProgramSolvesOnEveryBackend) {
  // No variables compile to an empty QUBO: nothing to embed or transpile,
  // yet every backend answers, each with its full sample budget.
  Solver solver(42);
  const Env env;
  const struct {
    BackendKind backend;
    std::size_t samples;
  } cases[] = {
      {BackendKind::kClassical, 1},
      {BackendKind::kAnnealer, solver.annealer_options().sampler.num_reads},
      {BackendKind::kCircuit, solver.circuit_options().shots},
  };
  for (const auto& c : cases) {
    const SolveReport report = solver.solve(env, c.backend);
    ASSERT_TRUE(report.ran) << backend_name(c.backend) << ": "
                            << report.failure_message();
    EXPECT_EQ(report.best_quality, Quality::kOptimal)
        << backend_name(c.backend);
    EXPECT_EQ(report.num_samples, c.samples) << backend_name(c.backend);
  }
}

TEST(SolverFacade, ZeroReadsFailsSoftNotUndefined) {
  // Regression: num_reads == 0 produced an empty sample vector and the
  // solver indexed samples[best_idx] anyway (undefined behavior). Entry
  // validation now rejects it before any backend work.
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 0;
  const MaxCutProblem p{cycle_graph(4)};
  const SolveReport report = solver.solve(p.encode(), BackendKind::kAnnealer);
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(report.failure, FailureKind::kBadOptions);
  EXPECT_NE(report.failure_message().find("num_reads"), std::string::npos)
      << report.failure_message();
  EXPECT_TRUE(report.best_assignment.empty());
}

TEST(SolverFacade, ZeroShotsFailsSoftNotUndefined) {
  // Same regression on the circuit path: shots == 0 hit
  // samples.front() / evaluations.front() on empty vectors.
  Solver solver(42);
  solver.circuit_options().shots = 0;
  const MaxCutProblem p{cycle_graph(4)};
  const SolveReport report = solver.solve(p.encode(), BackendKind::kCircuit);
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(report.failure, FailureKind::kBadOptions);
  EXPECT_NE(report.failure_message().find("shots"), std::string::npos)
      << report.failure_message();
  EXPECT_TRUE(report.best_assignment.empty());
}

// ------------------------------------------ backend / plan-cache layering

TEST(SolveDeterminism, RejectedAttemptsDoNotPerturbTheSampleStream) {
  const Env env = MaxCutProblem{cycle_graph(5)}.encode();

  Solver bumpy(123);
  bumpy.annealer_options().sampler.num_reads = 25;
  ResilienceOptions rough;
  rough.faults = FaultPlan::parse("reject@1,reject@2,reject@3");
  rough.retry.max_retries = 3;
  rough.retry.backoff_initial_ms = 1.0;
  bumpy.resilience_options() = rough;

  Solver clean(123);
  clean.annealer_options().sampler.num_reads = 25;
  clean.resilience_options() = ResilienceOptions{};  // explicit: no faults

  const SolveReport a = bumpy.solve(env, BackendKind::kAnnealer);
  const SolveReport b = clean.solve(env, BackendKind::kAnnealer);
  ASSERT_TRUE(a.ran) << a.failure_message();
  ASSERT_TRUE(b.ran) << b.failure_message();
  EXPECT_EQ(a.resilience.attempts.size(), 4u);  // 3 rejections + success
  // The regression this pins down: a solve preceded by rejected attempts
  // must sample exactly like a clean solve (neither the fault gates nor
  // the backoff jitter may advance the sample stream).
  EXPECT_EQ(a.best_assignment, b.best_assignment);
  EXPECT_EQ(a.best_quality, b.best_quality);
  EXPECT_EQ(a.num_samples, b.num_samples);
  EXPECT_EQ(a.counts.optimal, b.counts.optimal);
  EXPECT_EQ(a.counts.suboptimal, b.counts.suboptimal);
  EXPECT_EQ(a.counts.incorrect, b.counts.incorrect);
}

TEST(ChainDedupe, DuplicateRungsDiagnosedOnce) {
  // complete_graph(10) max-cut has 45 quadratic terms: enough modeled CX
  // gates to fire the NCK-C002 fidelity warning on every circuit rung.
  const Env env = MaxCutProblem{complete_graph(10)}.encode();
  Solver solver(42);
  ResilienceOptions opts;
  // The circuit rung appears twice, non-consecutively; entry dedupe must
  // collapse the chain to [classical, circuit] before analysis.
  opts.fallback = std::vector<BackendKind>{
      BackendKind::kCircuit, BackendKind::kClassical, BackendKind::kCircuit};
  solver.resilience_options() = opts;

  const SolveReport report = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(report.ran) << report.failure_message();
  std::size_t depth_warnings = 0;
  for (const Diagnostic& d : report.analysis.diagnostics()) {
    if (d.code == DiagCode::kCircuitDepthBudget) ++depth_warnings;
  }
  EXPECT_EQ(depth_warnings, 1u)
      << "duplicate fallback rungs must not duplicate diagnostics";
}

TEST(PlanCacheIntegration, WarmSolveSkipsPreparation) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 20;
  const Env env = MaxCutProblem{cycle_graph(5)}.encode();

  const SolveReport cold = solver.solve(env, BackendKind::kAnnealer);
  ASSERT_TRUE(cold.ran) << cold.failure_message();
  EXPECT_GE(cold.trace.counter("plan_cache.miss"), 1.0);
  EXPECT_NE(cold.trace.find_span("compile"), nullptr);
  EXPECT_NE(cold.trace.find_span("embed"), nullptr);

  // Second solve of the same program: the plan (QUBO synthesis + minor
  // embedding) is served from the cache — no compile span, no embed span,
  // zero misses — while sampling still runs.
  const SolveReport warm = solver.solve(env, BackendKind::kAnnealer);
  ASSERT_TRUE(warm.ran) << warm.failure_message();
  EXPECT_DOUBLE_EQ(warm.trace.counter("plan_cache.miss"), 0.0);
  EXPECT_GE(warm.trace.counter("plan_cache.hit"), 1.0);
  EXPECT_EQ(warm.trace.find_span("compile"), nullptr);
  EXPECT_EQ(warm.trace.find_span("embed"), nullptr);
  EXPECT_NE(warm.trace.find_span("anneal.sample"), nullptr);
  EXPECT_EQ(warm.num_samples, 20u);
  EXPECT_GE(solver.plan_cache().stats().hits, 1u);
}

TEST(PlanCacheIntegration, ColdClassicalSolveSearchesOnce) {
  // Ground truth is the classical plan: the truth stage of a cold classical
  // solve builds it, and dispatch finds it under the same key.
  Solver solver(42);
  const Env env = VertexCoverProblem{paper_graph()}.encode();
  const SolveReport report = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(report.ran) << report.failure_message();
  ASSERT_EQ(report.trace.counter("presolve.short_circuit"), 0.0);
  EXPECT_EQ(report.trace.counter("plan_cache.hit"), 1.0);
}

TEST(PlanCacheIntegration, ExecuteOnlyOptionChangesStillHit) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 20;
  const Env env = MaxCutProblem{cycle_graph(5)}.encode();
  ASSERT_TRUE(solver.solve(env, BackendKind::kAnnealer).ran);

  // Shots and noise are execute-only: the cached embedding is reused.
  solver.annealer_options().sampler.num_reads = 10;
  solver.annealer_options().sampler.ice_sigma += 0.01;
  const SolveReport warm = solver.solve(env, BackendKind::kAnnealer);
  ASSERT_TRUE(warm.ran) << warm.failure_message();
  EXPECT_DOUBLE_EQ(warm.trace.counter("plan_cache.miss"), 0.0);
  EXPECT_EQ(warm.num_samples, 10u);

  // chain_strength feeds the embedded Ising model: prepare-relevant, so
  // changing it must re-prepare.
  solver.annealer_options().chain_strength += 0.5;
  const SolveReport re = solver.solve(env, BackendKind::kAnnealer);
  ASSERT_TRUE(re.ran) << re.failure_message();
  EXPECT_GE(re.trace.counter("plan_cache.miss"), 1.0);
}

struct StubPlan final : backend::Plan {
  Env env;
  std::size_t bytes() const noexcept override { return sizeof(Env); }
};

/// Minimal custom backend: answers every program with all-true. Replaces
/// the builtin circuit adapter (latest registration wins) to prove the
/// solve loop is driven by the registry, not a kind switch.
class StubBackend final : public backend::Backend {
 public:
  BackendKind kind() const noexcept override { return BackendKind::kCircuit; }
  const char* name() const noexcept override { return "stub"; }
  bool validate(std::string* why) const override {
    (void)why;
    return true;
  }
  AnalysisTarget analysis_target() const noexcept override { return {}; }
  backend::Fingerprint plan_key(
      const backend::PrepareContext& ctx) const override {
    backend::Fingerprint fp;
    fp.mix(std::string("stub"));
    backend::mix_env(fp, *ctx.env);
    return fp;
  }
  backend::PrepareOutcome prepare(
      const backend::PrepareContext& ctx) const override {
    auto plan = std::make_shared<StubPlan>();
    plan->env = *ctx.env;
    backend::PrepareOutcome outcome;
    outcome.plan = std::move(plan);
    return outcome;
  }
  backend::ExecutionResult execute(const backend::Plan& plan,
                                   backend::ExecuteContext& ctx) const override {
    (void)ctx;
    const auto& stub = static_cast<const StubPlan&>(plan);
    backend::ExecutionResult result;
    std::vector<bool> all_true(stub.env.num_vars(), true);
    result.single_answer = true;
    result.evaluations.push_back(stub.env.evaluate(all_true));
    result.samples.push_back(std::move(all_true));
    return result;
  }
  backend::Budget initial_budget() const noexcept override {
    return {1, 0, 1, 0};
  }
};

TEST(BackendRegistry, CustomBackendReplacesBuiltin) {
  Solver solver(42);
  solver.backends().add(std::make_unique<StubBackend>());
  const Env env = MaxCutProblem{cycle_graph(5)}.encode();
  const SolveReport report = solver.solve(env, BackendKind::kCircuit);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_EQ(report.backend, BackendKind::kCircuit);
  // all-true cuts no edge of the 5-cycle: feasible but suboptimal — the
  // answer only the stub would give.
  EXPECT_EQ(report.best_quality, Quality::kSuboptimal);
  EXPECT_NE(report.trace.find_span("stub"), nullptr);
  EXPECT_EQ(report.trace.find_span("circuit"), nullptr);
}

TEST(SolverFacade, SameProgramAcrossAllThreeBackends) {
  // The paper's portability claim: one program, three execution targets.
  Solver solver(7);
  solver.annealer_options().sampler.num_reads = 30;
  solver.circuit_options().shots = 600;
  const VertexCoverProblem p{path_graph(4)};
  const Env env = p.encode();
  for (BackendKind backend : {BackendKind::kClassical, BackendKind::kAnnealer,
                              BackendKind::kCircuit}) {
    const SolveReport report = solver.solve(env, backend);
    ASSERT_TRUE(report.ran) << backend_name(backend) << ": "
                            << report.failure_message();
    EXPECT_TRUE(p.verify(report.best_assignment))
        << backend_name(backend) << " returned a non-cover";
  }
}

}  // namespace
}  // namespace nck
