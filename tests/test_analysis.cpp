// Tests for the nck::analysis static-analysis subsystem: every diagnostic
// code has a positive (fires) and a negative (clean program stays clean)
// case, plus the Solver integration contract — error diagnostics abort a
// solve before any backend work, warnings ride along on the report.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>

#include "analysis/analyzer.hpp"
#include "analysis/certify.hpp"
#include "analysis/unsat_core.hpp"
#include "anneal/embedding.hpp"
#include "anneal/topology.hpp"
#include "circuit/coupling.hpp"
#include "graph/generators.hpp"
#include "problems/vertex_cover.hpp"
#include "runtime/solver.hpp"

namespace nck {
namespace {

bool has_code(const AnalysisReport& report, DiagCode code) {
  return report.has_code(code);
}

const Diagnostic& find_code(const AnalysisReport& report, DiagCode code) {
  for (const auto& d : report.diagnostics()) {
    if (d.code == code) return d;
  }
  throw std::logic_error("diagnostic not found");
}

/// Feasible vertex-cover-of-a-triangle program: three hard OR constraints
/// plus one soft minimization preference per vertex. Exercises hard + soft
/// without tripping any pass.
Env clean_program() {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b}, {1, 2});
  env.nck({a, c}, {1, 2});
  env.nck({b, c}, {1, 2});
  env.prefer_false(a);
  env.prefer_false(b);
  env.prefer_false(c);
  return env;
}

Env contradictory_program() {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, b}, {2});
  env.nck({a, b}, {0});
  return env;
}

/// A hand-built CompiledQubo whose interaction graph is K_n (unit weights).
CompiledQubo complete_compiled(std::size_t n) {
  CompiledQubo compiled;
  compiled.qubo.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    compiled.qubo.add_linear(static_cast<Qubo::Var>(i), -1.0);
    for (std::size_t j = i + 1; j < n; ++j) {
      compiled.qubo.add_quadratic(static_cast<Qubo::Var>(i),
                                  static_cast<Qubo::Var>(j), 1.0);
    }
  }
  compiled.num_problem_vars = n;
  return compiled;
}

TEST(AnalysisDiagnostics, CodeNamesAreStable) {
  EXPECT_STREQ(diag_code_name(DiagCode::kEmptyProgram), "NCK-P000");
  EXPECT_STREQ(diag_code_name(DiagCode::kContradictoryPair), "NCK-P001");
  EXPECT_STREQ(diag_code_name(DiagCode::kInfeasibleByPropagation), "NCK-P002");
  EXPECT_STREQ(diag_code_name(DiagCode::kTautology), "NCK-P003");
  EXPECT_STREQ(diag_code_name(DiagCode::kUnusedVariable), "NCK-P004");
  EXPECT_STREQ(diag_code_name(DiagCode::kSoftOnlyVariable), "NCK-P005");
  EXPECT_STREQ(diag_code_name(DiagCode::kDuplicateConstraint), "NCK-P006");
  EXPECT_STREQ(diag_code_name(DiagCode::kScaleSeparation), "NCK-P007");
  EXPECT_STREQ(diag_code_name(DiagCode::kSynthesisFailed), "NCK-Q000");
  EXPECT_STREQ(diag_code_name(DiagCode::kSubNoiseTerm), "NCK-Q001");
  EXPECT_STREQ(diag_code_name(DiagCode::kEmbeddingInfeasible), "NCK-Q002");
  EXPECT_STREQ(diag_code_name(DiagCode::kEmbeddingTight), "NCK-Q003");
  EXPECT_STREQ(diag_code_name(DiagCode::kCircuitTooWide), "NCK-C001");
  EXPECT_STREQ(diag_code_name(DiagCode::kCircuitDepthBudget), "NCK-C002");
  EXPECT_STREQ(diag_code_name(DiagCode::kSynthBudgetExceeded), "NCK-P008");
  EXPECT_STREQ(diag_code_name(DiagCode::kUnsatCore), "NCK-P009");
  EXPECT_STREQ(diag_code_name(DiagCode::kFallbackChainInfeasible), "NCK-R000");
  EXPECT_STREQ(diag_code_name(DiagCode::kCertificationFailed), "NCK-V000");
  EXPECT_STREQ(diag_code_name(DiagCode::kGapDominatedBySoft), "NCK-V001");
  EXPECT_STREQ(diag_code_name(DiagCode::kGapMarginThin), "NCK-V002");
  EXPECT_STREQ(diag_code_name(DiagCode::kForcedVariable), "NCK-D000");
  EXPECT_STREQ(diag_code_name(DiagCode::kSubsumedConstraint), "NCK-D001");
  EXPECT_STREQ(diag_code_name(DiagCode::kIndependentComponents), "NCK-D002");
  EXPECT_STREQ(diag_code_name(DiagCode::kPresolveUnsat), "NCK-D003");
  EXPECT_STREQ(diag_code_name(DiagCode::kReductionRejected), "NCK-D004");
}

TEST(AnalysisDiagnostics, ConstraintSetLocationRendersAndSerializes) {
  const DiagLocation loc = DiagLocation::constraint_set({2, 0, 1}, "core");
  EXPECT_EQ(loc.kind, DiagLocation::Kind::kConstraintSet);
  EXPECT_EQ(loc.index, 0u);  // mirrors the first (sorted) member
  EXPECT_EQ(loc.to_string(), "constraints {#0, #1, #2} (core)");

  AnalysisReport report;
  report.add({Severity::kNote, DiagCode::kUnsatCore, loc, "msg", ""});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"kind\":\"constraint-set\""), std::string::npos);
  EXPECT_NE(json.find("\"indices\":[0,1,2]"), std::string::npos);
}

TEST(AnalysisDiagnostics, ReportCountsAndSummary) {
  AnalysisReport report;
  report.add({Severity::kNote, DiagCode::kSoftOnlyVariable,
              DiagLocation::variable(0, "a"), "note msg", ""});
  report.add({Severity::kError, DiagCode::kContradictoryPair,
              DiagLocation::constraint_pair(0, 1), "error msg", "fix it"});
  EXPECT_EQ(report.count(Severity::kNote), 1u);
  EXPECT_EQ(report.count(Severity::kError), 1u);
  EXPECT_TRUE(report.has_errors());
  const std::string errors_only = report.summary();
  EXPECT_NE(errors_only.find("NCK-P001"), std::string::npos);
  EXPECT_EQ(errors_only.find("note msg"), std::string::npos);
  const std::string all = report.summary(Severity::kNote);
  EXPECT_NE(all.find("note msg"), std::string::npos);
}

TEST(AnalysisDiagnostics, JsonIsMachineReadable) {
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(contradictory_program());
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"code\":\"NCK-P001\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":"), std::string::npos);
  // Labels contain quotes-free constraint text; braces must be escaped-safe.
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(AnalysisDiagnostics, TablePrintRendersEveryRow) {
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(contradictory_program());
  std::ostringstream os;
  report.print(os);
  EXPECT_NE(os.str().find("severity"), std::string::npos);
  EXPECT_NE(os.str().find("NCK-P001"), std::string::npos);
}

TEST(ProgramPasses, CleanProgramProducesNoDiagnostics) {
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(clean_program());
  EXPECT_TRUE(report.empty()) << report.summary(Severity::kNote);
}

TEST(ProgramPasses, EmptyProgramWarns) {
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(Env{});
  ASSERT_TRUE(has_code(report, DiagCode::kEmptyProgram));
  EXPECT_EQ(find_code(report, DiagCode::kEmptyProgram).severity,
            Severity::kWarning);
  EXPECT_FALSE(report.has_errors());
}

TEST(ProgramPasses, ContradictoryPairIsAnError) {
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(contradictory_program());
  ASSERT_TRUE(has_code(report, DiagCode::kContradictoryPair));
  const Diagnostic& d = find_code(report, DiagCode::kContradictoryPair);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.kind, DiagLocation::Kind::kConstraintPair);
  EXPECT_EQ(d.location.index, 0u);
  EXPECT_EQ(d.location.index2, 1u);
  EXPECT_FALSE(d.hint.empty());
}

TEST(ProgramPasses, ContradictionNeedsIdenticalCollections) {
  // Same selection sets, different collections: satisfiable, no error.
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b}, {2});
  env.nck({b, c}, {0});  // wait: forces b false, but {a,b}={2} forces b true
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  // This program *is* infeasible, but via propagation, not pair intersection.
  EXPECT_FALSE(has_code(report, DiagCode::kContradictoryPair));
  EXPECT_TRUE(has_code(report, DiagCode::kInfeasibleByPropagation));
}

TEST(ProgramPasses, PropagationFindsForcedValueConflicts) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a}, {1});      // a must be TRUE
  env.nck({a, b}, {0});   // a and b must both be FALSE
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  ASSERT_TRUE(has_code(report, DiagCode::kInfeasibleByPropagation));
  EXPECT_EQ(find_code(report, DiagCode::kInfeasibleByPropagation).severity,
            Severity::kError);
}

TEST(ProgramPasses, PropagationUsesExactParityReasoning) {
  // Multiplicity-2 members can only contribute even counts: nck({a,a,b,b},
  // {1,3}) is unsatisfiable even though 1 and 3 lie inside [0, 4].
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, a, b, b}, {1, 3});
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  EXPECT_TRUE(has_code(report, DiagCode::kInfeasibleByPropagation));
}

TEST(ProgramPasses, PropagationResultExposesForcedValues) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.all_true({a, b});
  env.nck({b, c}, {1});  // b TRUE forces c FALSE
  const PropagationResult prop = propagate_forced_values(env);
  ASSERT_FALSE(prop.contradiction);
  EXPECT_EQ(prop.values[a], ForcedValue::kTrue);
  EXPECT_EQ(prop.values[b], ForcedValue::kTrue);
  EXPECT_EQ(prop.values[c], ForcedValue::kFalse);
}

TEST(ProgramPasses, SoftConstraintsNeverMakeAProgramInfeasible) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, b}, {2});
  env.nck({a, b}, {0}, ConstraintKind::kSoft);  // conflicting but soft
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  EXPECT_FALSE(report.has_errors()) << report.summary();
}

TEST(ProgramPasses, TautologyWarns) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, b}, {0, 1, 2});
  env.nck({a}, {1});  // keep the program non-trivial
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  ASSERT_TRUE(has_code(report, DiagCode::kTautology));
  const Diagnostic& d = find_code(report, DiagCode::kTautology);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_EQ(d.location.index, 0u);
  EXPECT_FALSE(report.has_errors());
}

TEST(ProgramPasses, UnusedVariableWarns) {
  Env env;
  const VarId a = env.var("a");
  env.var("dangling");
  env.nck({a}, {1});
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  ASSERT_TRUE(has_code(report, DiagCode::kUnusedVariable));
  const Diagnostic& d = find_code(report, DiagCode::kUnusedVariable);
  EXPECT_EQ(d.location.kind, DiagLocation::Kind::kVariable);
  EXPECT_EQ(d.location.label, "dangling");
}

TEST(ProgramPasses, SoftOnlyVariableGetsANote) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a}, {1});
  env.prefer_true(b);
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  ASSERT_TRUE(has_code(report, DiagCode::kSoftOnlyVariable));
  EXPECT_EQ(find_code(report, DiagCode::kSoftOnlyVariable).severity,
            Severity::kNote);
  EXPECT_FALSE(has_code(report, DiagCode::kUnusedVariable));
}

TEST(ProgramPasses, DuplicateHardConstraintWarnsDuplicateSoftNotes) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, b}, {1});
  env.nck({b, a}, {1});  // same multiset, different order
  env.prefer_false(a);
  env.prefer_false(a);
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  std::size_t warnings = 0, notes = 0;
  for (const auto& d : report.diagnostics()) {
    if (d.code != DiagCode::kDuplicateConstraint) continue;
    if (d.severity == Severity::kWarning) ++warnings;
    if (d.severity == Severity::kNote) ++notes;
  }
  EXPECT_EQ(warnings, 1u);
  EXPECT_EQ(notes, 1u);
}

TEST(ProgramPasses, ScaleSeparationLintFiresOnManySoftConstraints) {
  Env env;
  const auto vars = env.new_vars(40, "x");
  env.at_least(vars, 1);
  for (VarId v : vars) env.prefer_false(v);
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  ASSERT_TRUE(has_code(report, DiagCode::kScaleSeparation));
  EXPECT_EQ(find_code(report, DiagCode::kScaleSeparation).severity,
            Severity::kWarning);

  // Few soft constraints: the soft-energy unit stays resolvable.
  Analyzer strict;
  const AnalysisReport clean = strict.analyze(clean_program());
  EXPECT_FALSE(has_code(clean, DiagCode::kScaleSeparation));
}

TEST(QuboPasses, SynthesisFailureBecomesADiagnostic) {
  // Odd parity over three variables needs an ancilla; with the ancilla
  // budget at zero and the closed forms disabled, synthesis must fail.
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b, c}, {1, 3});
  SynthEngineOptions opts;
  opts.use_builtin = false;
  opts.max_ancillas = 0;
  SynthEngine engine(opts);
  const Device device = perfect_device("test", chimera_graph(2, 2));
  Analyzer analyzer;
  AnalysisTarget target;
  target.annealer = &device;
  const AnalysisReport report = analyzer.analyze(env, engine, target);
  ASSERT_TRUE(has_code(report, DiagCode::kSynthesisFailed));
  EXPECT_TRUE(report.has_errors());
}

TEST(QuboPasses, InteractionGraphMatchesQuadraticTerms) {
  Qubo q(4);
  q.add_quadratic(0, 1, 1.0);
  q.add_quadratic(2, 3, -2.0);
  const Graph g = interaction_graph(q);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(2, 3));
}

TEST(QuboPasses, SubNoiseTermsAreFlagged) {
  CompiledQubo compiled;
  compiled.qubo.resize(3);
  compiled.qubo.add_quadratic(0, 1, 100.0);
  compiled.qubo.add_quadratic(1, 2, 0.01);  // 1e4:1 dynamic range
  compiled.num_problem_vars = 3;
  AnalysisReport report;
  analyze_coefficient_range(compiled, report);
  ASSERT_TRUE(has_code(report, DiagCode::kSubNoiseTerm));
  const Diagnostic& d = find_code(report, DiagCode::kSubNoiseTerm);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_NE(d.message.find("ICE"), std::string::npos);

  // Uniform coefficients: nothing below the noise floor.
  AnalysisReport clean;
  analyze_coefficient_range(complete_compiled(4), clean);
  EXPECT_FALSE(has_code(clean, DiagCode::kSubNoiseTerm));
}

TEST(QuboPasses, EmbeddingInfeasibleWhenDeviceTooSmall) {
  const Device tiny = perfect_device("tiny", path_graph(3));
  AnalysisReport report;
  analyze_embedding_feasibility(complete_compiled(5), tiny, report);
  ASSERT_TRUE(has_code(report, DiagCode::kEmbeddingInfeasible));
  EXPECT_TRUE(report.has_errors());
}

TEST(QuboPasses, EmbeddingInfeasibleWhenCouplersRunOut) {
  // K5 has 10 logical edges; a 6-qubit path offers only 5 couplers.
  const Device device = perfect_device("path6", path_graph(6));
  AnalysisReport report;
  analyze_embedding_feasibility(complete_compiled(5), device, report);
  ASSERT_TRUE(has_code(report, DiagCode::kEmbeddingInfeasible));
  EXPECT_NE(find_code(report, DiagCode::kEmbeddingInfeasible)
                .message.find("coupler"),
            std::string::npos);
}

TEST(QuboPasses, EmbeddingTightWarnsBeforeInfeasible) {
  // K5 on one Chimera K_{4,4} cell: 5 of 8 qubits needed by the lower
  // bound (> 50% yield budget) but still feasible -> warning, no error.
  const Device cell = perfect_device("cell", chimera_graph(1, 1));
  AnalysisReport report;
  analyze_embedding_feasibility(complete_compiled(5), cell, report);
  EXPECT_FALSE(report.has_errors()) << report.summary();
  ASSERT_TRUE(has_code(report, DiagCode::kEmbeddingTight));

  // A small problem on a big lattice is entirely clean.
  const Device roomy = perfect_device("roomy", chimera_graph(4, 4));
  AnalysisReport clean;
  analyze_embedding_feasibility(complete_compiled(3), roomy, clean);
  EXPECT_TRUE(clean.empty()) << clean.summary(Severity::kNote);
}

TEST(QuboPasses, CircuitTooWideIsAnError) {
  AnalysisReport report;
  analyze_circuit_feasibility(complete_compiled(5), path_graph(3), report);
  ASSERT_TRUE(has_code(report, DiagCode::kCircuitTooWide));
  EXPECT_TRUE(report.has_errors());

  AnalysisReport clean;
  analyze_circuit_feasibility(complete_compiled(3), path_graph(8), clean);
  EXPECT_FALSE(has_code(clean, DiagCode::kCircuitTooWide));
}

TEST(QuboPasses, CircuitDepthBudgetWarnsOnDenseProblems) {
  // K12: 66 quadratic terms -> ~330 modeled CX at p=1, fidelity < 0.5.
  AnalysisReport report;
  analyze_circuit_feasibility(complete_compiled(12), path_graph(16), report);
  ASSERT_TRUE(has_code(report, DiagCode::kCircuitDepthBudget));
  EXPECT_EQ(find_code(report, DiagCode::kCircuitDepthBudget).severity,
            Severity::kWarning);

  AnalysisReport clean;
  analyze_circuit_feasibility(complete_compiled(3), path_graph(8), clean);
  EXPECT_TRUE(clean.empty()) << clean.summary(Severity::kNote);
}

TEST(AnalyzerFacade, HardwarePassesSkippedWhenProgramIsBroken) {
  SynthEngine engine;
  const Device device = perfect_device("cell", chimera_graph(1, 1));
  Analyzer analyzer;
  AnalysisTarget target;
  target.annealer = &device;
  const AnalysisReport report =
      analyzer.analyze(contradictory_program(), engine, target);
  EXPECT_TRUE(report.has_errors());
  // No QUBO-level diagnostics: compilation was never attempted.
  for (const auto& d : report.diagnostics()) {
    EXPECT_NE(diag_code_name(d.code)[4], 'Q');
    EXPECT_NE(diag_code_name(d.code)[4], 'C');
  }
}

TEST(AnalyzerFacade, CleanProgramOnRealTargetsStaysClean) {
  SynthEngine engine;
  Rng rng(7);
  const Device device = advantage_4_1(rng);
  const Graph coupling = heavy_hex_lattice(5);
  Analyzer analyzer;
  AnalysisTarget target;
  target.annealer = &device;
  target.coupling = &coupling;
  const AnalysisReport report =
      analyzer.analyze(clean_program(), engine, target);
  EXPECT_FALSE(report.has_errors()) << report.summary();
  EXPECT_FALSE(has_code(report, DiagCode::kEmbeddingTight));
  EXPECT_FALSE(has_code(report, DiagCode::kCircuitTooWide));
}

TEST(SolverIntegration, InfeasibleProgramRejectedWithDiagnosticCode) {
  Solver solver(42);
  for (BackendKind backend : {BackendKind::kClassical, BackendKind::kAnnealer,
                              BackendKind::kCircuit}) {
    const SolveReport report = solver.solve(contradictory_program(), backend);
    EXPECT_FALSE(report.ran);
    EXPECT_EQ(report.failure, FailureKind::kAnalysisRejected);
    EXPECT_NE(report.failure_message().find("NCK-P001"), std::string::npos)
        << backend_name(backend) << ": " << report.failure_message();
    EXPECT_TRUE(report.analysis.has_errors());
    EXPECT_EQ(report.num_samples, 0u);  // no backend work happened
  }
}

TEST(SolverIntegration, WarningsAttachToSuccessfulSolves) {
  Env env = clean_program();
  env.var("dangling");  // unused -> warning, but not an error
  Solver solver(42);
  const SolveReport report = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_TRUE(report.analysis.has_code(DiagCode::kUnusedVariable));
  EXPECT_FALSE(report.analysis.has_errors());
}

TEST(SolverIntegration, CleanSolveCarriesNoDiagnostics) {
  Solver solver(42);
  const SolveReport report =
      solver.solve(clean_program(), BackendKind::kClassical);
  ASSERT_TRUE(report.ran) << report.failure_message();
  EXPECT_TRUE(report.analysis.empty())
      << report.analysis.summary(Severity::kNote);
}

// --- Unsat-core (MUS) extraction ------------------------------------------

/// Three hard constraints that are jointly unsatisfiable (a and b forced
/// TRUE, but their pair count must stay <= 1) plus one satisfiable
/// bystander that must NOT appear in the core.
Env mus_program() {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a}, {1});
  env.nck({b}, {1});
  env.nck({a, b}, {0, 1});
  env.nck({c}, {1});  // bystander
  return env;
}

TEST(UnsatCore, FeasibleProgramHasNoCore) {
  const UnsatCore core = extract_unsat_core(clean_program());
  EXPECT_FALSE(core.found);
  EXPECT_TRUE(core.members.empty());
}

TEST(UnsatCore, DeletionYieldsVerifiedMinimalCore) {
  const Env env = mus_program();
  const UnsatCore core = extract_unsat_core(env);
  ASSERT_TRUE(core.found);
  EXPECT_EQ(core.members, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_TRUE(core.verified_minimal);
  // Independently re-check minimality: the full core is infeasible and
  // every single-member deletion restores oracle feasibility.
  EXPECT_TRUE(oracle_infeasible(env, core.members));
  for (std::size_t skip = 0; skip < core.members.size(); ++skip) {
    std::vector<std::size_t> without;
    for (std::size_t i = 0; i < core.members.size(); ++i) {
      if (i != skip) without.push_back(core.members[i]);
    }
    EXPECT_FALSE(oracle_infeasible(env, without))
        << "core stayed infeasible without member " << core.members[skip];
  }
}

TEST(UnsatCore, DisjointPairShrinksToThePair) {
  Env env = contradictory_program();
  env.nck({env.var("a")}, {0, 1});  // tautology bystander
  const UnsatCore core = extract_unsat_core(env);
  ASSERT_TRUE(core.found);
  EXPECT_EQ(core.members, (std::vector<std::size_t>{0, 1}));
}

TEST(UnsatCore, P009NoteRefinesInfeasibilityErrors) {
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(mus_program());
  ASSERT_TRUE(has_code(report, DiagCode::kInfeasibleByPropagation));
  ASSERT_TRUE(has_code(report, DiagCode::kUnsatCore));
  const Diagnostic& d = find_code(report, DiagCode::kUnsatCore);
  EXPECT_EQ(d.severity, Severity::kNote);
  EXPECT_EQ(d.location.kind, DiagLocation::Kind::kConstraintSet);
  EXPECT_EQ(d.location.indices, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_NE(d.message.find("minimality re-verified"), std::string::npos);
}

TEST(UnsatCore, NoNoteOnFeasiblePrograms) {
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(clean_program());
  EXPECT_FALSE(has_code(report, DiagCode::kUnsatCore));
}

// --- NCK-P008 synthesis-budget pre-check ----------------------------------

/// Non-contiguous selection over `n` distinct variables (count 0 or n, i.e.
/// all-equal), which no closed form covers.
Env wide_noncontiguous(std::size_t n) {
  Env env;
  std::vector<VarId> vars = env.new_vars(n, "x");
  env.nck(vars, {0u, static_cast<unsigned>(n)});
  return env;
}

/// Program-level passes with NCK-P008 judged against `engine` (an empty
/// target compiles nothing).
AnalysisReport lint_with(SynthEngine& engine, const Env& env) {
  return Analyzer().analyze(env, engine, AnalysisTarget{});
}

TEST(SynthBudget, ErrorWhenWidthExceedsBudget) {
  SynthEngine engine;
  const std::size_t budget = engine.general_var_budget();
  const AnalysisReport report =
      lint_with(engine, wide_noncontiguous(budget + 1));
  ASSERT_TRUE(has_code(report, DiagCode::kSynthBudgetExceeded));
  EXPECT_EQ(find_code(report, DiagCode::kSynthBudgetExceeded).severity,
            Severity::kError);
}

TEST(SynthBudget, WarningAtExactBudget) {
  SynthEngine engine;
  const AnalysisReport report =
      lint_with(engine, wide_noncontiguous(engine.general_var_budget()));
  ASSERT_TRUE(has_code(report, DiagCode::kSynthBudgetExceeded));
  EXPECT_EQ(find_code(report, DiagCode::kSynthBudgetExceeded).severity,
            Severity::kWarning);
}

TEST(SynthBudget, ContiguousWideConstraintsBypassTheBudget) {
  // An at-least-one wider than the budget has a closed form...
  SynthEngine engine;
  Env env;
  env.at_least(env.new_vars(engine.general_var_budget() + 1, "x"), 1);
  EXPECT_FALSE(
      has_code(lint_with(engine, env), DiagCode::kSynthBudgetExceeded));
  // ...but only while the engine's closed-form path is actually enabled.
  SynthEngineOptions general_only;
  general_only.use_builtin = false;
  SynthEngine strict(general_only);
  EXPECT_TRUE(
      has_code(lint_with(strict, env), DiagCode::kSynthBudgetExceeded));
}

TEST(SynthBudget, BudgetIsSkippedWithoutEngineContext) {
  Analyzer analyzer;  // the program-only overload has no engine to judge by
  EXPECT_FALSE(has_code(analyzer.analyze(wide_noncontiguous(12)),
                        DiagCode::kSynthBudgetExceeded));
}

TEST(SynthBudget, EngineBudgetFlowsIntoHardwareAnalysis) {
  // 11 distinct variables exceed both documented general budgets (Z3: 10,
  // LP: 8), so the engine-aware overload must flag the program no matter
  // which general synthesizer this build carries.
  SynthEngine engine;
  EXPECT_GE(engine.general_var_budget(), 8u);
  EXPECT_LE(engine.general_var_budget(), 10u);
  EXPECT_TRUE(engine.builtin_enabled());
  Analyzer analyzer;
  const AnalysisReport report =
      analyzer.analyze(wide_noncontiguous(11), engine, AnalysisTarget{});
  ASSERT_TRUE(has_code(report, DiagCode::kSynthBudgetExceeded));
  EXPECT_TRUE(report.has_errors());
}

// --- Semantic QUBO certification ------------------------------------------

/// Perturbs one coefficient of `synth` beyond the gap so the certified
/// ground-state equivalence must break: if some satisfying assignment sets
/// x0, lowering x0's linear weight by 2*gap drags a valid ground below 0;
/// otherwise every satisfying assignment avoids x0 and shifting the offset
/// up by 2*gap lifts all valid grounds off 0.
SynthesizedQubo mutate_beyond_gap(const ConstraintPattern& pattern,
                                  const SynthesizedQubo& synth) {
  SynthesizedQubo mutated = synth;
  bool valid_sets_x0 = false;
  for (std::uint32_t xb = 0; xb < (1u << synth.num_vars); ++xb) {
    valid_sets_x0 = valid_sets_x0 || ((xb & 1u) && pattern.satisfied(xb));
  }
  if (valid_sets_x0) {
    mutated.qubo.add_linear(0, -2.0 * synth.gap);
  } else {
    mutated.qubo.add_offset(2.0 * synth.gap);
  }
  return mutated;
}

TEST(Certify, AcceptsEngineSynthesesAndRejectsMutants) {
  // Property sweep: every nck over <= 5 distinct variables with a random
  // selection set. The certifier must accept the engine's QUBO and reject
  // a single-coefficient perturbation beyond the gap.
  SynthEngine engine;
  Rng rng(20260806);
  std::size_t certified = 0;
  for (std::size_t n = 1; n <= 5; ++n) {
    for (int trial = 0; trial < 8; ++trial) {
      std::set<unsigned> selection;
      for (unsigned k = 0; k <= n; ++k) {
        if (rng.bernoulli(0.4)) selection.insert(k);
      }
      if (selection.empty()) {
        selection.insert(static_cast<unsigned>(rng.below(n + 1)));
      }
      Env env;
      const Constraint c(env.new_vars(n, "x"), selection,
                         ConstraintKind::kHard);
      const ConstraintPattern pattern = c.pattern();
      const SynthesizedQubo synth = engine.synthesize(pattern);
      const ConstraintCertificate cert = certify_synthesis(pattern, synth);
      ASSERT_TRUE(cert.ok) << "n=" << n << " method=" << synth.method << ": "
                           << cert.error;
      EXPECT_GE(cert.observed_gap, synth.gap - 1e-6);
      EXPECT_LE(cert.worst_valid_ground, 1e-6);

      const ConstraintCertificate broken =
          certify_synthesis(pattern, mutate_beyond_gap(pattern, synth));
      EXPECT_FALSE(broken.ok) << "n=" << n << " mutation went undetected";
      ++certified;
    }
  }
  EXPECT_EQ(certified, 40u);
}

TEST(Certify, MultiplicityPatternsCertify) {
  SynthEngine engine;
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  const std::vector<Constraint> cases = {
      Constraint({a, a, b}, {1, 2}, ConstraintKind::kHard),
      Constraint({a, a, b, b}, {2}, ConstraintKind::kHard),
      Constraint({a, b, c}, {0, 2}, ConstraintKind::kHard),  // XOR (Eq. 3)
  };
  for (const Constraint& cons : cases) {
    const ConstraintPattern pattern = cons.pattern();
    const SynthesizedQubo synth = engine.synthesize(pattern);
    const ConstraintCertificate cert = certify_synthesis(pattern, synth);
    EXPECT_TRUE(cert.ok) << cons.to_string() << ": " << cert.error;
    const ConstraintCertificate broken =
        certify_synthesis(pattern, mutate_beyond_gap(pattern, synth));
    EXPECT_FALSE(broken.ok) << cons.to_string();
  }
}

TEST(Certify, ProgramCertificateMatchesCompile) {
  // The interval-propagated program bounds must agree with what compile()
  // actually computes for the same program.
  SynthEngine engine;
  const Env env = clean_program();
  const ProgramCertificate cert = certify_program(env, engine);
  ASSERT_TRUE(cert.ok);
  EXPECT_EQ(cert.constraints.size(), 6u);
  const CompiledQubo compiled = compile(env, engine);
  EXPECT_DOUBLE_EQ(cert.max_soft_energy, compiled.max_soft_energy);
  EXPECT_DOUBLE_EQ(cert.hard_scale, compiled.hard_scale);

  const std::string json = cert.to_json();
  EXPECT_NE(json.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(json.find("\"observed_gap\":"), std::string::npos);
  EXPECT_NE(json.find("\"hard_scale\":"), std::string::npos);
}

TEST(CertifySolver, PaperWorkloadStaysSilentAndSuppressesP007) {
  // The paper's vertex-cover workload with the default margin: certification
  // proves dominance, so no V* fires — and the heuristic P007 yields to it.
  Env env = clean_program();
  Solver solver(42);
  solver.solve_options().certify = true;
  const SolveReport report = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(report.ran) << report.failure_message();
  ASSERT_TRUE(report.certificate.has_value());
  EXPECT_TRUE(report.certificate->ok);
  EXPECT_TRUE(report.analysis.empty())
      << report.analysis.summary(Severity::kNote);
  EXPECT_FALSE(has_code(report.analysis, DiagCode::kScaleSeparation));
}

TEST(CertifySolver, ZeroMarginProgramRejectedWithV001) {
  // hard_margin = 0 makes each scaled hard gap exactly equal the
  // soft-energy bound: a soft-drowned optimum is possible, and the sound
  // dominance check must reject the program before any backend runs.
  Solver solver(42);
  solver.solve_options().certify = true;
  solver.solve_options().certify_options.hard_margin = 0.0;
  const SolveReport report =
      solver.solve(clean_program(), BackendKind::kClassical);
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(report.failure, FailureKind::kAnalysisRejected);
  ASSERT_TRUE(has_code(report.analysis, DiagCode::kGapDominatedBySoft));
  EXPECT_NE(report.failure_message().find("NCK-V001"), std::string::npos);
}

TEST(CertifySolver, ThinMarginWarnsWithV002ButRuns) {
  Solver solver(42);
  solver.solve_options().certify = true;
  solver.solve_options().certify_options.hard_margin = 1e-4;
  const SolveReport report =
      solver.solve(clean_program(), BackendKind::kClassical);
  ASSERT_TRUE(report.ran) << report.failure_message();
  ASSERT_TRUE(has_code(report.analysis, DiagCode::kGapMarginThin));
  EXPECT_EQ(find_code(report.analysis, DiagCode::kGapMarginThin).severity,
            Severity::kWarning);
}

TEST(CertifySolver, HeuristicP007ReplacedBySoundV002) {
  // Enough softs that the P007 heuristic fires on a plain solve; under
  // certification the same program gets the sound V002 margin warning
  // instead, derived from certified gaps rather than a soft-count guess.
  Env env;
  const auto vars = env.new_vars(34, "x");
  env.at_least({vars[0], vars[1]}, 1);
  for (VarId v : vars) env.prefer_false(v);

  Solver plain(42);
  const SolveReport heuristic = plain.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(heuristic.ran) << heuristic.failure_message();
  EXPECT_TRUE(has_code(heuristic.analysis, DiagCode::kScaleSeparation));

  Solver certifying(42);
  certifying.solve_options().certify = true;
  const SolveReport sound = certifying.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(sound.ran) << sound.failure_message();
  EXPECT_FALSE(has_code(sound.analysis, DiagCode::kScaleSeparation));
  EXPECT_TRUE(has_code(sound.analysis, DiagCode::kGapMarginThin));
}

TEST(CertifySolver, WarmCertifyDoesZeroReEnumeration) {
  Env env = clean_program();
  Solver solver(42);
  solver.solve_options().certify = true;

  const SolveReport cold = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(cold.ran) << cold.failure_message();
  EXPECT_DOUBLE_EQ(cold.trace.counter("certify.constraints_enumerated"), 6.0);
  EXPECT_DOUBLE_EQ(cold.trace.counter("certify.cache_hits"), 0.0);

  const SolveReport warm = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(warm.ran) << warm.failure_message();
  // The artifact came back from the content-addressed plan cache: the
  // V-diagnostics re-derive by pure arithmetic, enumerating nothing.
  EXPECT_DOUBLE_EQ(warm.trace.counter("certify.constraints_enumerated"), 0.0);
  EXPECT_DOUBLE_EQ(warm.trace.counter("certify.cache_hits"), 1.0);
  ASSERT_TRUE(warm.certificate.has_value());
  EXPECT_TRUE(warm.certificate->ok);
  EXPECT_EQ(warm.certificate->constraints.size(),
            cold.certificate->constraints.size());
  EXPECT_DOUBLE_EQ(warm.certificate->hard_scale, cold.certificate->hard_scale);
}

TEST(CertifySolver, DifferentMarginsDoNotShareCachedCertificates) {
  Env env = clean_program();
  Solver solver(42);
  solver.solve_options().certify = true;
  const SolveReport first = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(first.ran);
  // A different margin changes the artifact, so it must be a cache miss —
  // recalling the old certificate would report the wrong hard_scale.
  solver.solve_options().certify_options.hard_margin = 2.0;
  const SolveReport second = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(second.ran);
  EXPECT_DOUBLE_EQ(second.trace.counter("certify.cache_hits"), 0.0);
  EXPECT_DOUBLE_EQ(second.certificate->hard_scale, 5.0);  // S_max 3 + 2
}

}  // namespace
}  // namespace nck
