// The resilient solve layer: fault-plan parsing, the deterministic
// injector, retry/backoff policy, the modeled session clock, and the
// end-to-end recovery behavior of runtime::Solver (retries, re-embedding
// around dead qubits, deadline degradation, and backend fallback).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "graph/generators.hpp"
#include "problems/max_cut.hpp"
#include "problems/vertex_cover.hpp"
#include "resilience/fault.hpp"
#include "resilience/policy.hpp"
#include "runtime/solver.hpp"

namespace nck {
namespace {

// ------------------------------------------------------------ fault plans

TEST(FaultPlan, ParsesKindsParamsAndAttempts) {
  const FaultPlan plan = FaultPlan::parse("reject@1,dead:2@2,drift:0.005");
  ASSERT_EQ(plan.events.size(), 3u);
  EXPECT_EQ(plan.events[0].kind, FaultKind::kJobRejection);
  EXPECT_EQ(plan.events[0].attempt, 1u);
  EXPECT_EQ(plan.events[1].kind, FaultKind::kDeadQubits);
  EXPECT_DOUBLE_EQ(plan.events[1].param, 2.0);
  EXPECT_EQ(plan.events[1].attempt, 2u);
  EXPECT_EQ(plan.events[2].kind, FaultKind::kCalibrationDrift);
  EXPECT_DOUBLE_EQ(plan.events[2].param, 0.005);
  EXPECT_EQ(plan.events[2].attempt, 0u);  // every attempt
}

TEST(FaultPlan, KindSpecificDefaults) {
  const FaultPlan plan = FaultPlan::parse("timeout,drift,dead,exec,reject");
  EXPECT_DOUBLE_EQ(plan.events[0].param, 1000.0);  // timeout ms
  EXPECT_DOUBLE_EQ(plan.events[1].param, 0.01);    // drift sigma
  EXPECT_DOUBLE_EQ(plan.events[2].param, 1.0);     // dead qubits
}

TEST(FaultPlan, ToStringRoundTrips) {
  const char* spec = "reject@1,dead:2@2,timeout:500,drift:0.01";
  const FaultPlan plan = FaultPlan::parse(spec);
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  ASSERT_EQ(again.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(again.events[i].kind, plan.events[i].kind);
    EXPECT_DOUBLE_EQ(again.events[i].param, plan.events[i].param);
    EXPECT_EQ(again.events[i].attempt, plan.events[i].attempt);
  }
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("explode"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("reject:5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("dead:0.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("dead@0"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("dead@x"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("drift:abc"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("timeout:-5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("reject,,dead"), std::invalid_argument);
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, ChaosDefaultIsTheDocumentedSchedule) {
  EXPECT_EQ(FaultPlan::chaos_default().to_string(), "reject@1,dead:2@2");
}

// -------------------------------------------------------------- injector

TEST(FaultInjectorTest, DefaultInjectorNeverFires) {
  FaultInjector injector;
  EXPECT_FALSE(injector.armed());
  injector.begin_attempt(1);
  EXPECT_FALSE(injector.submit_fault().has_value());
  EXPECT_DOUBLE_EQ(injector.drift_sigma(), 0.0);
  EXPECT_TRUE(injector.dead_qubit_event({1, 2, 3}).empty());
  EXPECT_FALSE(injector.execution_fault());
}

TEST(FaultInjectorTest, AttemptGatingAndOneShotPerAttempt) {
  FaultInjector injector(FaultPlan::parse("reject@2"), 7);
  injector.begin_attempt(1);
  EXPECT_FALSE(injector.submit_fault().has_value());
  injector.begin_attempt(2);
  EXPECT_EQ(injector.submit_fault(), FaultKind::kJobRejection);
  // The query is consumed: asking twice in one attempt cannot double-fire.
  EXPECT_FALSE(injector.submit_fault().has_value());
  injector.begin_attempt(3);
  EXPECT_FALSE(injector.submit_fault().has_value());
  ASSERT_EQ(injector.history().size(), 1u);
  EXPECT_EQ(injector.history()[0].attempt, 2u);
}

TEST(FaultInjectorTest, RejectionWinsOverTimeout) {
  FaultInjector injector(FaultPlan::parse("timeout:100,reject"), 7);
  injector.begin_attempt(1);
  EXPECT_EQ(injector.submit_fault(), FaultKind::kJobRejection);
}

TEST(FaultInjectorTest, UnpinnedDriftGrowsWithAttempts) {
  FaultInjector injector(FaultPlan::parse("drift:0.01"), 7);
  injector.begin_attempt(1);
  EXPECT_DOUBLE_EQ(injector.drift_sigma(), 0.01);
  injector.begin_attempt(3);
  EXPECT_DOUBLE_EQ(injector.drift_sigma(), 0.03);
}

TEST(FaultInjectorTest, DeadQubitEventIsSeededDeterministic) {
  const std::vector<std::size_t> in_use{10, 20, 30, 40, 50};
  FaultInjector a(FaultPlan::parse("dead:2@1"), 99);
  FaultInjector b(FaultPlan::parse("dead:2@1"), 99);
  a.begin_attempt(1);
  b.begin_attempt(1);
  const auto killed_a = a.dead_qubit_event(in_use);
  const auto killed_b = b.dead_qubit_event(in_use);
  ASSERT_EQ(killed_a.size(), 2u);
  EXPECT_EQ(killed_a, killed_b);
  // Requesting more than the embedding uses kills the whole embedding.
  FaultInjector c(FaultPlan::parse("dead:9@1"), 99);
  c.begin_attempt(1);
  EXPECT_EQ(c.dead_qubit_event({3, 4}).size(), 2u);
}

TEST(FaultInjectorTest, TimeoutWaitIsChargedPerAttempt) {
  FaultInjector injector(FaultPlan::parse("timeout:250"), 7);
  injector.begin_attempt(1);
  (void)injector.submit_fault();
  injector.begin_attempt(2);
  (void)injector.submit_fault();
  EXPECT_DOUBLE_EQ(injector.modeled_wait_ms(1), 250.0);
  EXPECT_DOUBLE_EQ(injector.modeled_wait_ms(2), 250.0);
  EXPECT_DOUBLE_EQ(injector.modeled_wait_ms(3), 0.0);
}

// ------------------------------------------------------- policy and clock

TEST(RetryPolicyTest, BackoffDoublesUpToTheCapWithinTheJitterBand) {
  // Retry r waits min(100 * 2^(r-1), 5000) ms, scaled by [0.75, 1.25]:
  // consecutive bands are disjoint below the cap, so each retry waits
  // longer than the one before, and retries 7 on sit at the cap.
  RetryPolicy policy;
  policy.backoff_initial_ms = 100.0;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    for (std::size_t retry = 1; retry <= 9; ++retry) {
      const double base = std::min(
          100.0 * std::pow(kBackoffMultiplier, static_cast<double>(retry - 1)),
          kBackoffMaxMs);
      const double wait = policy.backoff_ms(retry, rng);
      EXPECT_GE(wait, base * (1.0 - kBackoffJitter)) << "retry " << retry;
      EXPECT_LE(wait, base * (1.0 + kBackoffJitter)) << "retry " << retry;
    }
  }
}

TEST(RetryPolicyTest, JitterStaysInBand) {
  RetryPolicy policy;
  policy.backoff_initial_ms = 100.0;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double wait = policy.backoff_ms(1, rng);
    EXPECT_GE(wait, 75.0);
    EXPECT_LE(wait, 125.0);
  }
}

TEST(RetryPolicyTest, ValidateCatchesNonsense) {
  std::string why;
  RetryPolicy bad;
  bad.backoff_initial_ms = std::nan("");
  EXPECT_FALSE(bad.validate(&why));
  EXPECT_NE(why.find("backoff_initial_ms"), std::string::npos);

  bad = RetryPolicy{};
  bad.deadline_ms = -1.0;
  EXPECT_FALSE(bad.validate(&why));

  EXPECT_TRUE(RetryPolicy{}.validate(&why)) << why;
}

TEST(SessionClockTest, BucketsSumIntoElapsed) {
  SessionClock clock;
  clock.charge_wall_ms(1.5);
  clock.charge_device_ms(20.0);
  clock.charge_wait_ms(100.0);
  clock.charge_wall_ms(0.5);
  EXPECT_DOUBLE_EQ(clock.wall_ms(), 2.0);
  EXPECT_DOUBLE_EQ(clock.device_ms(), 20.0);
  EXPECT_DOUBLE_EQ(clock.wait_ms(), 100.0);
  EXPECT_DOUBLE_EQ(clock.elapsed_ms(), 122.0);
}

TEST(DegradeSamples, HalvesTowardFloorNeverBelow) {
  EXPECT_EQ(degrade_samples(100, 10), 50u);
  EXPECT_EQ(degrade_samples(12, 10), 10u);
  EXPECT_EQ(degrade_samples(10, 10), 10u);
  EXPECT_EQ(degrade_samples(5, 10), 10u);
}

// ------------------------------------------------------------ names/kinds

TEST(FailureKinds, AllNamed) {
  for (FailureKind kind :
       {FailureKind::kNone, FailureKind::kBadOptions,
        FailureKind::kAnalysisRejected, FailureKind::kInfeasible,
        FailureKind::kNoEmbedding, FailureKind::kDeviceTooSmall,
        FailureKind::kNoSamples, FailureKind::kJobRejected,
        FailureKind::kQueueTimeout, FailureKind::kDeadQubits,
        FailureKind::kExecutionError, FailureKind::kRetriesExhausted,
        FailureKind::kDeadlineExhausted}) {
    EXPECT_STRNE(failure_kind_name(kind), "?");
    EXPECT_STRNE(failure_kind_description(kind), "?");
  }
  for (FaultKind kind :
       {FaultKind::kJobRejection, FaultKind::kQueueTimeout,
        FaultKind::kCalibrationDrift, FaultKind::kDeadQubits,
        FaultKind::kExecutionError}) {
    EXPECT_STRNE(fault_name(kind), "?");
  }
  EXPECT_TRUE(transient_failure(FailureKind::kDeadQubits));
  EXPECT_TRUE(transient_failure(FailureKind::kJobRejected));
  EXPECT_FALSE(transient_failure(FailureKind::kNoEmbedding));
  EXPECT_FALSE(transient_failure(FailureKind::kBadOptions));
  EXPECT_EQ(failure_from_fault(FaultKind::kCalibrationDrift),
            FailureKind::kNone);
  EXPECT_EQ(failure_from_fault(FaultKind::kDeadQubits),
            FailureKind::kDeadQubits);
}

// --------------------------------------------------- solver recovery path

Env small_problem() { return MaxCutProblem{cycle_graph(5)}.encode(); }

/// The ISSUE acceptance pair, part 1: a seeded schedule that kills two
/// embedded qubits mid-session must end with a successful solve that
/// re-embedded around them, with the recovery visible in both the
/// ResilienceLog and the obs trace.
TEST(ResilientSolve, DeadQubitsRecoveredByReembedding) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 30;
  ResilienceOptions opts;
  opts.faults = FaultPlan::parse("dead:2@1");
  opts.retry.max_retries = 2;
  opts.retry.backoff_initial_ms = 5.0;
  solver.resilience_options() = opts;

  const SolveReport report =
      solver.solve(small_problem(), BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_EQ(report.failure, FailureKind::kNone);
  EXPECT_EQ(report.num_samples, 30u);
  const ResilienceLog& log = report.resilience;
  ASSERT_EQ(log.attempts.size(), 2u);
  EXPECT_EQ(log.attempts[0].failure, FailureKind::kDeadQubits);
  EXPECT_EQ(log.attempts[1].failure, FailureKind::kNone);
  EXPECT_EQ(log.reembeds, 1u);
  EXPECT_EQ(log.retries, 1u);
  ASSERT_EQ(log.faults.size(), 1u);
  EXPECT_EQ(log.faults[0].kind, FaultKind::kDeadQubits);
  EXPECT_EQ(log.faults[0].qubits_killed, 2u);
  EXPECT_GT(log.total_wait_ms, 0.0);  // the backoff was charged
  // Recovery is visible in the trace too.
  EXPECT_DOUBLE_EQ(report.trace.counter("resilience.reembeds"), 1.0);
  EXPECT_DOUBLE_EQ(report.trace.counter("resilience.attempts"), 2.0);
  EXPECT_NE(report.trace.find_span("attempt"), nullptr);
}

/// Part 2: the identical schedule with retries disabled reproduces the
/// terminal failure the pre-resilience solver exhibited.
TEST(ResilientSolve, SameScheduleWithoutRetriesFailsTerminally) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 30;
  ResilienceOptions opts;
  opts.faults = FaultPlan::parse("dead:2@1");
  opts.retry.max_retries = 0;
  solver.resilience_options() = opts;

  const SolveReport report =
      solver.solve(small_problem(), BackendKind::kAnnealer);
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(report.failure, FailureKind::kDeadQubits);
  ASSERT_EQ(report.resilience.attempts.size(), 1u);
  EXPECT_EQ(report.resilience.reembeds, 0u);
  EXPECT_EQ(report.resilience.retries, 0u);
}

TEST(ResilientSolve, FirstRejectionRetriedOnce) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 30;
  ResilienceOptions opts;
  opts.faults = FaultPlan::parse("reject@1");
  opts.retry.max_retries = 1;
  opts.retry.backoff_initial_ms = 5.0;
  solver.resilience_options() = opts;

  const SolveReport report =
      solver.solve(small_problem(), BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran) << report.failure_message();
  ASSERT_EQ(report.resilience.attempts.size(), 2u);
  EXPECT_EQ(report.resilience.attempts[0].failure, FailureKind::kJobRejected);
  EXPECT_EQ(report.resilience.retries, 1u);
}

TEST(ResilientSolve, PersistentFaultExhaustsRetries) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 30;
  ResilienceOptions opts;
  opts.faults = FaultPlan::parse("reject");  // every attempt
  opts.retry.max_retries = 2;
  opts.retry.backoff_initial_ms = 5.0;
  solver.resilience_options() = opts;

  const SolveReport report =
      solver.solve(small_problem(), BackendKind::kAnnealer);
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(report.failure, FailureKind::kRetriesExhausted);
  EXPECT_NE(report.failure_message().find("retry budget"), std::string::npos);
  EXPECT_EQ(report.resilience.attempts.size(), 3u);  // 1 + 2 retries
  EXPECT_EQ(report.resilience.retries, 2u);
}

TEST(ResilientSolve, FallbackToClassicalLandsTheSolve) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 30;
  ResilienceOptions opts;
  opts.faults = FaultPlan::parse("reject");
  opts.retry.max_retries = 1;
  opts.retry.backoff_initial_ms = 5.0;
  opts.fallback = std::vector<BackendKind>{BackendKind::kClassical};
  solver.resilience_options() = opts;

  const SolveReport report =
      solver.solve(small_problem(), BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_EQ(report.backend, BackendKind::kClassical);
  EXPECT_EQ(report.best_quality, Quality::kOptimal);
  EXPECT_EQ(report.resilience.fallbacks, 1u);
  const auto& attempts = report.resilience.attempts;
  ASSERT_EQ(attempts.size(), 3u);
  EXPECT_EQ(attempts.back().backend, BackendKind::kClassical);
  EXPECT_EQ(attempts.back().failure, FailureKind::kNone);
}

// ------------------------------------------------- presolve under faults

/// Presolve-reducible program: c is forced TRUE, its soft is decided, and
/// the backend sees only {a, b}. The lift must hold up whatever the fault
/// schedule does to the attempt that finally lands.
Env reducible_problem() {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b, c}, {1, 2});
  env.nck({c}, {1});
  env.prefer_true(c);
  env.prefer_false(a);
  return env;
}

TEST(ResilientSolve, PresolvedSolveRecoversByReembedding) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 30;
  ResilienceOptions opts;
  opts.faults = FaultPlan::parse("dead:2@1");
  opts.retry.max_retries = 2;
  opts.retry.backoff_initial_ms = 5.0;
  solver.resilience_options() = opts;

  const SolveReport report =
      solver.solve(reducible_problem(), BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_EQ(report.resilience.reembeds, 1u);
  ASSERT_TRUE(report.presolve.has_value());
  EXPECT_EQ(report.presolve->forced, 1u);
  // The recovered samples are reduced-space; the report is original-space.
  ASSERT_EQ(report.best_assignment.size(), 3u);
  EXPECT_TRUE(report.best_assignment[2]);              // forced c
  EXPECT_EQ(report.truth.best_soft_satisfied, 2u);     // decided soft counted
  EXPECT_EQ(report.best_quality, Quality::kOptimal);
}

TEST(ResilientSolve, ChaosSchedulePreservesPresolvedLift) {
  // The CI chaos schedule (reject@1, dead:2@2) against the reduced program:
  // rejection retried, dead qubits re-embedded, and the surviving samples
  // still lift back with the forced value and the soft offset intact.
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 30;
  ResilienceOptions opts;
  opts.faults = FaultPlan::chaos_default();
  opts.retry.max_retries = 3;
  opts.retry.backoff_initial_ms = 5.0;
  solver.resilience_options() = opts;

  const SolveReport report =
      solver.solve(reducible_problem(), BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_GE(report.resilience.attempts.size(), 2u);
  ASSERT_TRUE(report.presolve.has_value());
  EXPECT_TRUE(report.best_assignment[2]);
  EXPECT_EQ(report.truth.best_soft_satisfied, 2u);
  EXPECT_EQ(report.best_quality, Quality::kOptimal);
}

TEST(ResilientSolve, PresolvedSolveFallsBackWithLiftIntact) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 30;
  ResilienceOptions opts;
  opts.faults = FaultPlan::parse("reject");  // annealer never succeeds
  opts.retry.max_retries = 1;
  opts.retry.backoff_initial_ms = 5.0;
  opts.fallback = std::vector<BackendKind>{BackendKind::kClassical};
  solver.resilience_options() = opts;

  const SolveReport report =
      solver.solve(reducible_problem(), BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_EQ(report.backend, BackendKind::kClassical);
  EXPECT_EQ(report.resilience.fallbacks, 1u);
  ASSERT_TRUE(report.presolve.has_value());
  EXPECT_TRUE(report.best_assignment[2]);
  EXPECT_EQ(report.truth.best_soft_satisfied, 2u);
  EXPECT_EQ(report.best_quality, Quality::kOptimal);
}

TEST(ResilientSolve, CircuitExecutionErrorRetried) {
  Solver solver(42);
  solver.circuit_options().shots = 600;
  ResilienceOptions opts;
  opts.faults = FaultPlan::parse("exec@1");
  opts.retry.max_retries = 1;
  opts.retry.backoff_initial_ms = 5.0;
  solver.resilience_options() = opts;

  const SolveReport report = solver.solve(
      MaxCutProblem{cycle_graph(4)}.encode(), BackendKind::kCircuit);
  ASSERT_TRUE(report.ran) << report.failure_message();
  ASSERT_EQ(report.resilience.attempts.size(), 2u);
  EXPECT_EQ(report.resilience.attempts[0].failure,
            FailureKind::kExecutionError);
  // The failed attempt never reached the device, so only the successful
  // one carries modeled device time.
  EXPECT_DOUBLE_EQ(report.resilience.attempts[0].device_ms, 0.0);
  EXPECT_GT(report.resilience.attempts[1].device_ms, 0.0);
}

TEST(ResilientSolve, QueueTimeoutChargesModeledWait) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 30;
  ResilienceOptions opts;
  opts.faults = FaultPlan::parse("timeout:5000@1");
  opts.retry.max_retries = 1;
  opts.retry.backoff_initial_ms = 5.0;
  solver.resilience_options() = opts;

  const SolveReport report =
      solver.solve(small_problem(), BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_EQ(report.resilience.attempts[0].failure,
            FailureKind::kQueueTimeout);
  EXPECT_GE(report.resilience.attempts[0].wait_ms, 5000.0);
  EXPECT_GE(report.resilience.total_wait_ms, 5000.0);
}

TEST(ResilientSolve, DeadlinePressureShrinksReads) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 100;
  ResilienceOptions opts;
  // 100 reads model to ~27.1 ms of QPU access; 50 reads to ~21.6 ms.
  opts.retry.deadline_ms = 22.0;
  solver.resilience_options() = opts;

  const SolveReport report =
      solver.solve(small_problem(), BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_EQ(report.num_samples, 50u);
  EXPECT_EQ(report.resilience.degradations, 1u);
  EXPECT_FALSE(report.resilience.deadline_exhausted);
  EXPECT_EQ(report.resilience.attempts.back().samples_requested, 50u);
}

TEST(ResilientSolve, ExhaustedDeadlineFallsBackToClassical) {
  Solver solver(42);
  solver.annealer_options().sampler.num_reads = 100;
  ResilienceOptions opts;
  // Even the 10-read floor models to ~17 ms: the annealer rung can never
  // fit, but the classical rung ignores the deadline and lands the solve.
  opts.retry.deadline_ms = 10.0;
  opts.fallback = std::vector<BackendKind>{BackendKind::kClassical};
  solver.resilience_options() = opts;

  const SolveReport report =
      solver.solve(small_problem(), BackendKind::kAnnealer);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_EQ(report.backend, BackendKind::kClassical);
  EXPECT_TRUE(report.resilience.deadline_exhausted);
  EXPECT_GT(report.resilience.degradations, 0u);
  // No annealer attempt was ever dispatched.
  for (const AttemptRecord& a : report.resilience.attempts) {
    EXPECT_EQ(a.backend, BackendKind::kClassical);
  }
}

TEST(WallDeadline, AlreadyExpiredBudgetFailsFastTyped) {
  // The serve-layer contract: a request whose wall budget ran out while
  // queued must fail with the typed kind *before* any presolve, analysis,
  // or backend work — no attempts, no spans, just the rejection.
  Solver solver(42);
  solver.solve_options().wall_budget_ms = 0.0;
  const SolveReport report =
      solver.solve(small_problem(), BackendKind::kAnnealer);
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(report.failure, FailureKind::kDeadlineExhausted);
  EXPECT_TRUE(report.resilience.deadline_exhausted);
  EXPECT_TRUE(report.resilience.attempts.empty());
  EXPECT_NE(report.failure_detail.find("wall-clock"), std::string::npos);
  // No stage beyond the solve root ever ran.
  EXPECT_EQ(report.trace.find_span("presolve"), nullptr);
  EXPECT_EQ(report.trace.find_span("analyze"), nullptr);
  EXPECT_EQ(report.trace.find_span("ground_truth"), nullptr);
  EXPECT_EQ(report.trace.counter("resilience.wall_deadline_exhausted"), 1.0);
}

TEST(WallDeadline, NegativeBudgetFailsFastClassicalToo) {
  // Unlike the modeled session deadline, the wall deadline is not
  // classical-exempt: a caller past its latency budget has no use for a
  // late answer.
  Solver solver(42);
  solver.solve_options().wall_budget_ms = -5.0;
  const SolveReport report =
      solver.solve(small_problem(), BackendKind::kClassical);
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(report.failure, FailureKind::kDeadlineExhausted);
}

TEST(WallDeadline, NanBudgetIsBadOptions) {
  Solver solver(42);
  solver.solve_options().wall_budget_ms = std::nan("");
  const SolveReport report =
      solver.solve(small_problem(), BackendKind::kClassical);
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(report.failure, FailureKind::kBadOptions);
}

TEST(WallDeadline, GenerousBudgetDoesNotPerturbTheSolve) {
  Solver with(42);
  with.solve_options().wall_budget_ms = 60000.0;
  Solver without(42);
  const SolveReport a = with.solve(small_problem(), BackendKind::kAnnealer);
  const SolveReport b = without.solve(small_problem(), BackendKind::kAnnealer);
  ASSERT_TRUE(a.ran) << a.failure_message();
  ASSERT_TRUE(b.ran) << b.failure_message();
  EXPECT_EQ(a.best_assignment, b.best_assignment);
  EXPECT_EQ(a.counts.optimal, b.counts.optimal);
}

TEST(ResilientSolve, BadOptionsRejectedAtEntry) {
  const Env env = small_problem();
  {
    Solver solver(42);
    ResilienceOptions opts;
    opts.retry.backoff_initial_ms = std::nan("");
    solver.resilience_options() = opts;
    const SolveReport report = solver.solve(env, BackendKind::kAnnealer);
    EXPECT_FALSE(report.ran);
    EXPECT_EQ(report.failure, FailureKind::kBadOptions);
  }
  {
    Solver solver(42);
    ResilienceOptions opts;
    opts.fallback.emplace();  // engaged but empty
    solver.resilience_options() = opts;
    const SolveReport report = solver.solve(env, BackendKind::kClassical);
    EXPECT_FALSE(report.ran);
    EXPECT_EQ(report.failure, FailureKind::kBadOptions);
    EXPECT_NE(report.failure_message().find("fallback"), std::string::npos);
  }
  {
    Solver solver(42);
    solver.annealer_options().sampler.ice_sigma = -1.0;
    solver.resilience_options() = ResilienceOptions{};
    const SolveReport report = solver.solve(env, BackendKind::kAnnealer);
    EXPECT_FALSE(report.ran);
    EXPECT_EQ(report.failure, FailureKind::kBadOptions);
    EXPECT_NE(report.failure_message().find("ice_sigma"), std::string::npos);
  }
  {
    // Chain-wide validation: the primary backend is fine, but a fallback
    // rung's options are nonsense.
    Solver solver(42);
    solver.circuit_options().shots = 0;
    ResilienceOptions opts;
    opts.fallback = std::vector<BackendKind>{BackendKind::kCircuit};
    solver.resilience_options() = opts;
    const SolveReport report = solver.solve(env, BackendKind::kClassical);
    EXPECT_FALSE(report.ran);
    EXPECT_EQ(report.failure, FailureKind::kBadOptions);
    EXPECT_NE(report.failure_message().find("shots"), std::string::npos);
  }
}

// ------------------------------------------------- chain feasibility lint

TEST(ChainAnalysis, AllRungsInfeasibleIsAnError) {
  const Env env = VertexCoverProblem{cycle_graph(5)}.encode();
  Analyzer analyzer;
  SynthEngine engine;
  const Graph tiny = path_graph(2);  // no 5-variable QUBO fits 2 qubits
  AnalysisTarget circuit_rung;
  circuit_rung.coupling = &tiny;
  const AnalysisReport report =
      analyzer.analyze_chain(env, engine, {circuit_rung});
  EXPECT_TRUE(report.has_errors());
  EXPECT_TRUE(report.has_code(DiagCode::kFallbackChainInfeasible));
}

TEST(ChainAnalysis, OneFeasibleRungDemotesTheRest) {
  const Env env = VertexCoverProblem{cycle_graph(5)}.encode();
  Analyzer analyzer;
  SynthEngine engine;
  const Graph tiny = path_graph(2);
  AnalysisTarget circuit_rung;
  circuit_rung.coupling = &tiny;
  AnalysisTarget classical_rung;  // both pointers null: always feasible
  const AnalysisReport report =
      analyzer.analyze_chain(env, engine, {circuit_rung, classical_rung});
  EXPECT_FALSE(report.has_errors()) << report.summary();
  EXPECT_FALSE(report.has_code(DiagCode::kFallbackChainInfeasible));
  // The infeasible rung's error rides along demoted and tagged.
  EXPECT_NE(report.summary(Severity::kWarning).find("fallback rung 1"),
            std::string::npos)
      << report.summary(Severity::kWarning);
}

// ----------------------------------------------------------- log rendering

TEST(ResilienceLogTest, PrintShowsAttemptsAndFaults) {
  ResilienceLog log;
  AttemptRecord first;
  first.attempt = 1;
  first.backend = BackendKind::kAnnealer;
  first.samples_requested = 100;
  first.failure = FailureKind::kDeadQubits;
  first.detail = "2 embedded qubit(s) died mid-session";
  AttemptRecord second;
  second.attempt = 2;
  second.backend = BackendKind::kAnnealer;
  second.samples_requested = 100;
  log.attempts = {first, second};
  log.faults = {{FaultKind::kDeadQubits, 1, 2.0, 2}};
  log.retries = 1;
  log.reembeds = 1;

  std::ostringstream os;
  log.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("2 attempt(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("1 re-embed(s)"), std::string::npos);
  EXPECT_NE(text.find("dead-qubits"), std::string::npos);
  EXPECT_NE(text.find("ok"), std::string::npos);

  std::ostringstream empty_os;
  ResilienceLog{}.print(empty_os);
  EXPECT_NE(empty_os.str().find("no attempts"), std::string::npos);
}

}  // namespace
}  // namespace nck
