// Edge-case coverage for the smaller surfaces: timing models,
// empty-program behaviour, and defensive paths not exercised elsewhere.
#include <gtest/gtest.h>

#include <thread>

#include "anneal/embedded_ising.hpp"
#include "anneal/timing.hpp"
#include "circuit/backend.hpp"
#include "circuit/circuit.hpp"
#include "core/compile.hpp"
#include "core/env.hpp"
#include "problems/cover.hpp"
#include "util/timer.hpp"

namespace nck {
namespace {

TEST(Timer, MonotoneNonNegative) {
  Timer t;
  const double a = t.seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GT(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), b);
  EXPECT_NEAR(t.milliseconds(), t.seconds() * 1e3, 1.0);
}

TEST(DWaveTimingModelTest, ComponentArithmetic) {
  DWaveTimingModel m;
  m.programming_us = 10000.0;
  m.anneal_us = 10.0;
  m.readout_us_per_anneal = 3.0;
  m.delay_us = 20.0;
  m.postprocess_us = 500.0;
  EXPECT_DOUBLE_EQ(m.readout_us(), 30.0);
  EXPECT_DOUBLE_EQ(m.sampling_time_us(10), 10 * (10.0 + 30.0 + 20.0));
  EXPECT_DOUBLE_EQ(m.qpu_access_time_us(10),
                   10000.0 + m.sampling_time_us(10) + 500.0);
  EXPECT_DOUBLE_EQ(m.sampling_time_us(0), 0.0);
}

TEST(IbmTimingModelTest, JobsStayInPaperBand) {
  IbmTimingModel m;
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const double t = m.job_seconds(rng);
    EXPECT_GE(t, 7.0);
    EXPECT_LE(t, 23.0);
  }
}

TEST(EmbeddingStats, Accessors) {
  Embedding e;
  e.chains = {{1, 2, 3}, {7}, {4, 5}};
  EXPECT_EQ(e.total_qubits(), 6u);
  EXPECT_EQ(e.max_chain_length(), 3u);
  EXPECT_EQ(Embedding{}.total_qubits(), 0u);
}

TEST(ChainStrength, EdgeCases) {
  IsingModel no_couplers;
  no_couplers.h = {2.5, -0.5};
  EXPECT_DOUBLE_EQ(recommended_chain_strength(no_couplers), 2.5);
  IsingModel empty;
  EXPECT_DOUBLE_EQ(recommended_chain_strength(empty), 1.0);
}

TEST(CompileEdge, EmptyProgram) {
  Env env;
  env.new_vars(3, "v");
  const CompiledQubo cq = compile(env);
  EXPECT_EQ(cq.num_problem_vars, 3u);
  EXPECT_EQ(cq.num_ancillas, 0u);
  EXPECT_EQ(cq.qubo.num_terms(), 0u);
  EXPECT_DOUBLE_EQ(cq.max_soft_energy, 0.0);
}

TEST(CompileEdge, SoftOnlyHasUnitHardScaleMargin) {
  Env env;
  const VarId a = env.var("a");
  env.prefer_true(a);
  const CompiledQubo cq = compile(env);
  EXPECT_DOUBLE_EQ(cq.hard_scale, cq.max_soft_energy + 1.0);
}

TEST(EnvEdge, EvaluateRejectsShortAssignment) {
  Env env;
  const auto v = env.new_vars(3, "v");
  env.exactly({v[2]}, 1);
  EXPECT_THROW(env.evaluate({true}), std::out_of_range);
}

TEST(EnvEdge, ConstraintToStringFallsBackToIds) {
  const Constraint c({2, 4}, {1}, ConstraintKind::kHard);
  EXPECT_EQ(c.to_string(), "nck({v2, v4}, {1})");
}

TEST(GateNames, AllKindsNamed) {
  for (GateKind kind : {GateKind::kH, GateKind::kX, GateKind::kRX,
                        GateKind::kRY, GateKind::kRZ, GateKind::kCX,
                        GateKind::kCZ, GateKind::kRZZ, GateKind::kXY,
                        GateKind::kSwap}) {
    EXPECT_STRNE(gate_name(kind), "?");
  }
}

TEST(CircuitEdge, ToStringListsGates) {
  Circuit c(2);
  c.h(0);
  c.rzz(0, 1, 0.25);
  const std::string s = c.to_string();
  EXPECT_NE(s.find("h q0"), std::string::npos);
  EXPECT_NE(s.find("rzz q0, q1"), std::string::npos);
  EXPECT_NE(s.find("0.25"), std::string::npos);
}

TEST(SetSystemEdge, CoveringFindsAllSupersets) {
  SetSystem system;
  system.num_elements = 3;
  system.subsets = {{0, 1}, {1, 2}, {0, 2}, {1}};
  EXPECT_EQ(system.covering(1), (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(system.covering(0), (std::vector<std::size_t>{0, 2}));
}

TEST(SetSystemEdge, GeneratorValidation) {
  Rng rng(1);
  EXPECT_THROW(random_set_system(5, 0, 2, rng), std::invalid_argument);
  EXPECT_THROW(random_set_system(5, 9, 2, rng), std::invalid_argument);
}

TEST(ExactCoverEdge, UncoverableElementRejectedAtEncode) {
  SetSystem system;
  system.num_elements = 2;
  system.subsets = {{0}};  // element 1 in no subset
  const ExactCoverProblem p{system};
  EXPECT_THROW(p.encode(), std::invalid_argument);
}

}  // namespace
}  // namespace nck
