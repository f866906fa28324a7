#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "graph/generators.hpp"
#include "problems/max_cut.hpp"
#include "problems/vertex_cover.hpp"
#include "runtime/pool.hpp"

namespace nck {
namespace {

std::vector<Env> mixed_batch() {
  std::vector<Env> envs;
  envs.push_back(MaxCutProblem{cycle_graph(5)}.encode());
  envs.push_back(MaxCutProblem{complete_graph(4)}.encode());
  envs.push_back(VertexCoverProblem{cycle_graph(6)}.encode());
  envs.push_back(MaxCutProblem{path_graph(6)}.encode());
  return envs;
}

PoolOptions small_options(std::size_t threads) {
  PoolOptions options;
  options.num_threads = threads;
  options.annealer.sampler.num_reads = 20;
  options.circuit.shots = 64;
  return options;
}

void expect_same_report(const SolveReport& a, const SolveReport& b,
                        std::size_t task) {
  EXPECT_EQ(a.ran, b.ran) << "task " << task;
  EXPECT_EQ(a.backend, b.backend) << "task " << task;
  EXPECT_EQ(a.failure, b.failure) << "task " << task;
  EXPECT_EQ(a.best_quality, b.best_quality) << "task " << task;
  EXPECT_EQ(a.best_assignment, b.best_assignment) << "task " << task;
  EXPECT_EQ(a.num_samples, b.num_samples) << "task " << task;
  EXPECT_EQ(a.counts.optimal, b.counts.optimal) << "task " << task;
  EXPECT_EQ(a.counts.suboptimal, b.counts.suboptimal) << "task " << task;
  EXPECT_EQ(a.counts.incorrect, b.counts.incorrect) << "task " << task;
  EXPECT_EQ(a.resilience.attempts.size(), b.resilience.attempts.size())
      << "task " << task;
}

TEST(SolverPoolTest, SameBatchTwiceIsBitIdentical) {
  const std::vector<Env> envs = mixed_batch();
  SolverPool first(small_options(2));
  SolverPool second(small_options(2));
  const BatchReport a = first.solve_all(envs, BackendKind::kAnnealer);
  const BatchReport b = second.solve_all(envs, BackendKind::kAnnealer);
  ASSERT_EQ(a.reports.size(), envs.size());
  ASSERT_EQ(b.reports.size(), envs.size());
  for (std::size_t i = 0; i < envs.size(); ++i) {
    EXPECT_TRUE(a.reports[i].ran) << a.reports[i].failure_message();
    expect_same_report(a.reports[i], b.reports[i], i);
  }
}

TEST(SolverPoolTest, ResultsIndependentOfThreadCount) {
  const std::vector<Env> envs = mixed_batch();
  SolverPool serial(small_options(1));
  SolverPool wide(small_options(8));
  const BatchReport a = serial.solve_all(envs, BackendKind::kAnnealer);
  const BatchReport b = wide.solve_all(envs, BackendKind::kAnnealer);
  for (std::size_t i = 0; i < envs.size(); ++i) {
    expect_same_report(a.reports[i], b.reports[i], i);
  }
}

TEST(SolverPoolTest, CacheSharedAcrossEightThreadsAndBatches) {
  const std::vector<Env> envs(8, MaxCutProblem{cycle_graph(5)}.encode());
  SolverPool pool(small_options(8));

  const BatchReport cold = pool.solve_all(envs, BackendKind::kAnnealer);
  ASSERT_EQ(cold.reports.size(), envs.size());
  for (const SolveReport& r : cold.reports) {
    EXPECT_TRUE(r.ran) << r.failure_message();
  }
  EXPECT_GE(cold.cache.misses, 1u);
  EXPECT_GE(cold.cache.inserts, 1u);

  // The warm batch re-solves the same programs against the same shared
  // cache: every prepare is a hit, no new misses, identical answers.
  const std::size_t cold_misses = pool.plan_cache().stats().misses;
  const BatchReport warm = pool.solve_all(envs, BackendKind::kAnnealer);
  EXPECT_EQ(warm.cache.misses, cold_misses)
      << "a warm batch must not re-prepare any plan";
  EXPECT_GE(warm.cache.hits, cold.cache.hits + envs.size());
  for (std::size_t i = 0; i < envs.size(); ++i) {
    expect_same_report(cold.reports[i], warm.reports[i], i);
  }
}

TEST(SolverPoolTest, PortfolioKeepsClassicalWhenQuantumRungsFault) {
  const std::vector<Env> envs(2, MaxCutProblem{cycle_graph(5)}.encode());
  PoolOptions options = small_options(2);
  ResilienceOptions res;
  res.faults = FaultPlan::parse("reject");  // every submission bounces
  res.retry.max_retries = 1;
  res.retry.backoff_initial_ms = 1.0;
  options.resilience = res;
  SolverPool pool(options);

  const BackendKind candidates[] = {BackendKind::kAnnealer,
                                    BackendKind::kCircuit,
                                    BackendKind::kClassical};
  const BatchReport batch = pool.solve_portfolio(envs, candidates);
  ASSERT_EQ(batch.reports.size(), envs.size());
  ASSERT_EQ(batch.candidates.size(), envs.size());
  for (std::size_t i = 0; i < envs.size(); ++i) {
    EXPECT_TRUE(batch.reports[i].ran);
    EXPECT_EQ(batch.reports[i].backend, BackendKind::kClassical);
    EXPECT_EQ(batch.reports[i].best_quality, Quality::kOptimal);
    ASSERT_EQ(batch.candidates[i].size(), 3u);
    EXPECT_FALSE(batch.candidates[i][0].ran);  // annealer: rejected
    EXPECT_EQ(batch.candidates[i][0].failure,
              FailureKind::kRetriesExhausted);
    EXPECT_FALSE(batch.candidates[i][1].ran);  // circuit: rejected
    EXPECT_TRUE(batch.candidates[i][2].ran);   // classical ignores the queue
  }
}

TEST(SolverPoolTest, PortfolioPrefersEarlierCandidateOnTies) {
  // Classical and annealer both land an optimal answer on this easy
  // instance; the winner must be the earlier candidate, deterministically.
  const std::vector<Env> envs(1, MaxCutProblem{cycle_graph(5)}.encode());
  SolverPool pool(small_options(1));
  const BackendKind candidates[] = {BackendKind::kClassical,
                                    BackendKind::kAnnealer};
  const BatchReport batch = pool.solve_portfolio(envs, candidates);
  ASSERT_EQ(batch.reports.size(), 1u);
  ASSERT_TRUE(batch.reports[0].ran);
  if (batch.candidates[0][1].best_quality == Quality::kOptimal) {
    EXPECT_EQ(batch.reports[0].backend, BackendKind::kClassical);
  }
}

TEST(SolverPoolTest, StitchedTraceAggregatesTasks) {
  const std::vector<Env> envs(2, MaxCutProblem{cycle_graph(5)}.encode());
  SolverPool pool(small_options(2));
  const BatchReport batch = pool.solve_all(envs, BackendKind::kAnnealer);

  const obs::SpanRecord* task0 = batch.trace.find_span("task0");
  const obs::SpanRecord* task1 = batch.trace.find_span("task1");
  ASSERT_NE(task0, nullptr);
  ASSERT_NE(task1, nullptr);
  EXPECT_EQ(task0->depth, 0u);
  // Each task's own "solve" span is re-parented under its task root.
  bool found_child_solve = false;
  for (const obs::SpanRecord& s : batch.trace.spans) {
    if (s.name == "solve" && s.depth == 1) found_child_solve = true;
  }
  EXPECT_TRUE(found_child_solve);
  // Counters are summed across tasks: both tasks consulted the cache.
  EXPECT_GE(batch.trace.counter("plan_cache.hit") +
                batch.trace.counter("plan_cache.miss"),
            2.0);
}

TEST(SolverPoolTest, EmptyBatchIsWellFormed) {
  SolverPool pool(small_options(4));
  const std::vector<Env> none;
  const BatchReport batch = pool.solve_all(none, BackendKind::kClassical);
  EXPECT_TRUE(batch.reports.empty());
  EXPECT_EQ(batch.solved(), 0u);
  EXPECT_TRUE(batch.trace.spans.empty());
}

}  // namespace
}  // namespace nck
