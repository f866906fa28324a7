// Cross-module integration tests: text program -> compile -> serialize ->
// backends -> classification, plus failure injection along the pipeline.
#include <gtest/gtest.h>

#include "anneal/backend.hpp"
#include "anneal/topology.hpp"
#include "classical/exact_solver.hpp"
#include "core/compile.hpp"
#include "core/parse.hpp"
#include "graph/generators.hpp"
#include "problems/vertex_cover.hpp"
#include "runtime/solver.hpp"
#include "util/rng.hpp"

namespace nck {
namespace {

TEST(Integration, TextProgramToClassicalAnswer) {
  const Env env = parse_program(
      "# minimum vertex cover of a triangle\n"
      "nck({a, b}, {1, 2}) /\\ nck({a, c}, {1, 2}) /\\ nck({b, c}, {1, 2})\n"
      "nck({a}, {0}, soft) nck({b}, {0}, soft) nck({c}, {0}, soft)\n");
  const ClassicalSolution solution = solve_exact(env);
  ASSERT_TRUE(solution.feasible);
  // Triangle: min cover 2 -> exactly 1 soft satisfied.
  EXPECT_EQ(solution.soft_satisfied, 1u);
}

TEST(Integration, NoiselessAnnealerIsNearExact) {
  const VertexCoverProblem problem{vertex_scaling_graph(9)};
  const Env env = problem.encode();
  const GroundTruth truth = ground_truth(env);
  const Device device = perfect_device("pegasus-4", pegasus_graph(4));
  SynthEngine engine;
  Rng rng(42);
  AnnealBackendOptions options;
  options.sampler.num_reads = 50;
  options.sampler.ice_sigma = 0.0;
  options.sampler.readout_error = 0.0;
  const backend::AnnealAdapter annealer(&options, &device);
  const backend::ExecutionResult result =
      backend::run_once(annealer, env, engine, rng, nullptr);
  ASSERT_EQ(result.failure, FailureKind::kNone);
  const QualityCounts counts = classify_all(result.evaluations, truth);
  // Mixed hard/soft problem: the hard-over-soft bias shrinks the optimal/
  // suboptimal gap (the paper's Section VIII-A observation), so demand a
  // high *correct* rate and at least some optimal reads.
  EXPECT_GT(counts.fraction_correct(), 0.9);
  EXPECT_TRUE(counts.any_optimal());
}

TEST(Integration, PostprocessingNeverHurtsEnergy) {
  const VertexCoverProblem problem{vertex_scaling_graph(12)};
  const Env env = problem.encode();
  const Device device = perfect_device("pegasus-4", pegasus_graph(4));
  const GroundTruth truth = ground_truth(env);

  auto run = [&](bool post) {
    SynthEngine engine;
    Rng rng(4242);
    AnnealBackendOptions options;
    options.sampler.num_reads = 60;
    options.sampler.ice_sigma = 0.08;  // noisy so postprocessing matters
    options.sampler.postprocess = post;
    const backend::AnnealAdapter annealer(&options, &device);
    const backend::ExecutionResult result =
        backend::run_once(annealer, env, engine, rng, nullptr);
    EXPECT_EQ(result.failure, FailureKind::kNone);
    return classify_all(result.evaluations, truth);
  };
  const QualityCounts without = run(false);
  const QualityCounts with = run(true);
  EXPECT_GE(with.optimal + with.suboptimal, without.optimal + without.suboptimal);
}

TEST(Integration, GaugeTransformPreservesSolutionQuality) {
  // With zero noise the spin-reversal transform must be semantically
  // invisible (same classification profile, statistically).
  const VertexCoverProblem problem{vertex_scaling_graph(9)};
  const Env env = problem.encode();
  const Device device = perfect_device("pegasus-4", pegasus_graph(4));
  const GroundTruth truth = ground_truth(env);
  for (bool srt : {false, true}) {
    SynthEngine engine;
    Rng rng(9);
    AnnealBackendOptions options;
    options.sampler.num_reads = 40;
    options.sampler.ice_sigma = 0.0;
    options.sampler.readout_error = 0.0;
    options.sampler.spin_reversal_transform = srt;
    const backend::AnnealAdapter annealer(&options, &device);
    const backend::ExecutionResult result =
        backend::run_once(annealer, env, engine, rng, nullptr);
    ASSERT_EQ(result.failure, FailureKind::kNone);
    const QualityCounts counts = classify_all(result.evaluations, truth);
    EXPECT_GT(counts.fraction_correct(), 0.9) << "srt=" << srt;
    EXPECT_TRUE(counts.any_optimal()) << "srt=" << srt;
  }
}

TEST(Integration, HardScaleDominatesSoftInCompiledProblems) {
  // Random mixed programs: the compiled QUBO's hard scale must exceed the
  // total achievable soft penalty (the compile-time invariant behind
  // Definition 6's semantics).
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    Env env;
    const auto vars = env.new_vars(4 + rng.below(4), "v");
    for (std::size_t k = 0; k < 4 + rng.below(4); ++k) {
      std::vector<VarId> coll;
      for (std::size_t i = 0; i < 1 + rng.below(3); ++i) {
        coll.push_back(vars[rng.below(vars.size())]);
      }
      std::set<unsigned> sel{static_cast<unsigned>(rng.below(coll.size() + 1))};
      env.nck(coll, sel,
              rng.bernoulli(0.5) ? ConstraintKind::kSoft
                                 : ConstraintKind::kHard);
    }
    const CompiledQubo cq = compile(env);
    EXPECT_GT(cq.hard_scale, cq.max_soft_energy);
  }
}

TEST(Integration, SolverReusesSynthesisCacheAcrossSolves) {
  Solver solver(11);
  const VertexCoverProblem p1{cycle_graph(4)};
  const VertexCoverProblem p2{cycle_graph(6)};
  solver.solve(p1.encode(), BackendKind::kClassical);
  const std::size_t requests_before = solver.engine().stats().requests;
  const std::size_t hits_before = solver.engine().stats().cache_hits;
  solver.solve(p2.encode(), BackendKind::kClassical);
  // Classical solves don't compile; run the annealer to force compilation.
  solver.annealer_options().sampler.num_reads = 5;
  solver.solve(p1.encode(), BackendKind::kAnnealer);
  solver.solve(p2.encode(), BackendKind::kAnnealer);
  EXPECT_GT(solver.engine().stats().requests, requests_before);
  EXPECT_GT(solver.engine().stats().cache_hits, hits_before);
}

TEST(Integration, OversizedProblemFailsGracefullyOnTinyDevice) {
  const VertexCoverProblem problem{complete_graph(10)};
  const Device device = perfect_device("tiny", cycle_graph(12));
  SynthEngine engine;
  Rng rng(3);
  AnnealBackendOptions options;
  options.embed.max_passes = 8;
  options.embed.tries = 1;
  const backend::AnnealAdapter annealer(&options, &device);
  obs::Trace trace;
  const backend::ExecutionResult result =
      backend::run_once(annealer, problem.encode(), engine, rng, &trace);
  EXPECT_EQ(result.failure, FailureKind::kNoEmbedding);
  EXPECT_EQ(result.samples.size(), 0u);
  const obs::TraceData data = trace.snapshot();
  const obs::SpanRecord* compile_span = data.find_span("compile");
  ASSERT_NE(compile_span, nullptr);
  EXPECT_GT(compile_span->duration_us, 0.0);
}

TEST(Integration, EvaluationConsistencyAcrossPipeline) {
  // For every sample a backend returns, re-evaluating through Env must
  // reproduce the backend's classification inputs.
  Solver solver(21);
  solver.annealer_options().sampler.num_reads = 20;
  const VertexCoverProblem problem{vertex_scaling_graph(6)};
  const Env env = problem.encode();
  const SolveReport report = solver.solve(env, BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran);
  const Evaluation check = env.evaluate(report.best_assignment);
  EXPECT_EQ(classify(check, report.truth), report.best_quality);
}

}  // namespace
}  // namespace nck
