// Tests for the abstract-interpretation presolve stack: the dataflow
// fixpoint engine (analysis/dataflow), the model-preserving reduction
// catalog and its equivalence certification (analysis/reduce), the
// NCK-D* lint pass, deterministic diagnostic emission, the
// order-canonical program fingerprint, and the Solver presolve
// integration (reduce -> solve -> lift).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/dataflow/dataflow.hpp"
#include "analysis/reduce/reduce.hpp"
#include "backend/fingerprint.hpp"
#include "runtime/solver.hpp"

namespace nck {
namespace {

const Diagnostic& find_code(const AnalysisReport& report, DiagCode code) {
  for (const auto& d : report.diagnostics()) {
    if (d.code == code) return d;
  }
  throw std::logic_error("diagnostic not found");
}

/// The pair-mining showcase: nck({a,b},{1}) forces an XOR, while
/// nck({a,b,c,c},{0,4}) forces a == b (both 0 or both 1, whatever c is).
/// Jointly unsatisfiable, yet no single constraint's reachable-count set
/// is empty and the collections differ, so neither NCK-P001 nor NCK-P002
/// reasoning can see it — only the pairwise intersection can.
Env pair_unsat_program() {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b}, {1});
  env.nck({a, b, c, c}, {0, 4});
  return env;
}

/// nck({a,b},{0,2}) (a == b) and nck({a,b},{0,1}) (at most one) intersect
/// to the single joint value (FALSE, FALSE): pair mining must force both
/// variables where unary propagation forces neither.
Env pair_forcing_program() {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, b}, {0, 2});
  env.nck({a, b}, {0, 1});
  return env;
}

/// Original-space assignment -> reduced-space assignment (projection onto
/// the kept variables).
std::vector<bool> project(const ReductionTrace& trace,
                          const std::vector<bool>& original) {
  std::vector<bool> out(trace.kept.size(), false);
  for (std::size_t i = 0; i < trace.kept.size(); ++i) {
    out[i] = original[trace.kept[i]];
  }
  return out;
}

/// Does `original` agree with every forced value?
bool consistent(const ReductionTrace& trace,
                const std::vector<bool>& original) {
  for (std::size_t v = 0; v < trace.forced.size(); ++v) {
    if (trace.forced[v] == ForcedValue::kTrue && !original[v]) return false;
    if (trace.forced[v] == ForcedValue::kFalse && original[v]) return false;
  }
  return true;
}

/// The certificate check as a per-assignment loop: project each original
/// assignment and re-evaluate both programs. verify_reduction walks the
/// same assignments incrementally and must reproduce this verdict, detail
/// string included, on every input.
ReductionVerdict reference_verify(const Env& original,
                                  const ReduceResult& result,
                                  std::size_t max_vars = 16) {
  ReductionVerdict verdict;
  const std::size_t n = original.num_vars();
  if (n > max_vars || n >= 8 * sizeof(std::size_t)) return verdict;
  verdict.checked = true;

  std::vector<bool> x(n, false);
  const std::size_t total = std::size_t{1} << n;
  for (std::size_t bits = 0; bits < total; ++bits) {
    for (std::size_t i = 0; i < n; ++i) x[i] = (bits >> i) & 1u;
    const Evaluation orig = original.evaluate(x);
    auto fail = [&](const std::string& why) {
      verdict.ok = false;
      std::ostringstream os;
      os << why << " at assignment 0x" << std::hex << bits;
      verdict.detail = os.str();
    };
    if (result.proved_unsat) {
      if (orig.feasible()) {
        fail("program reported unsatisfiable has a feasible assignment");
        return verdict;
      }
      continue;
    }
    if (!consistent(result.trace, x)) {
      if (orig.feasible()) {
        fail("forced value excludes a hard-feasible assignment");
        return verdict;
      }
      continue;
    }
    const Evaluation red = result.reduced.evaluate(project(result.trace, x));
    if (orig.feasible() != red.feasible()) {
      fail("hard feasibility diverges between original and reduced");
      return verdict;
    }
    if (orig.soft_satisfied !=
        red.soft_satisfied + result.trace.soft_always_satisfied) {
      fail("soft-satisfaction count diverges between original and reduced");
      return verdict;
    }
  }
  return verdict;
}

/// verify_reduction, compared field by field with reference_verify.
ReductionVerdict verify_against_reference(const Env& original,
                                          const ReduceResult& result,
                                          std::size_t max_vars = 16) {
  const ReductionVerdict walk = verify_reduction(original, result, max_vars);
  const ReductionVerdict reference =
      reference_verify(original, result, max_vars);
  EXPECT_EQ(walk.checked, reference.checked);
  EXPECT_EQ(walk.ok, reference.ok);
  EXPECT_EQ(walk.detail, reference.detail);
  return walk;
}

/// Vertex cover of an n-cycle with chords (v, v+3) from every even vertex,
/// in the circuit workload's encoding: nck({u,v},{1,2}) per edge and
/// nck({v},{0},soft) per vertex. Vertex 0 is pinned into the cover so
/// presolve has a variable to substitute.
Env ring_cover(std::size_t n) {
  Env env;
  const std::vector<VarId> v = env.new_vars(n, "v");
  for (std::size_t i = 0; i < n; ++i) {
    env.nck({v[i], v[(i + 1) % n]}, {1, 2});
    if (i % 2 == 0) env.nck({v[i], v[(i + 3) % n]}, {1, 2});
  }
  for (VarId x : v) env.prefer_false(x);
  env.nck({v[0]}, {1});
  return env;
}

// --------------------------------------------------------------------------
// Dataflow engine
// --------------------------------------------------------------------------

TEST(Dataflow, PropagationForcesUnitAndSaturatedConstraints) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a}, {0});      // veto: a FALSE
  env.nck({b, c}, {2});   // saturation: both TRUE
  const DataflowResult result = solve_dataflow(env);
  ASSERT_FALSE(result.proved_unsat);
  EXPECT_EQ(result.values[a], ForcedValue::kFalse);
  EXPECT_EQ(result.values[b], ForcedValue::kTrue);
  EXPECT_EQ(result.values[c], ForcedValue::kTrue);
  EXPECT_FALSE(result.needed_pairs);  // phase 1 found everything
}

TEST(Dataflow, SoftConstraintsNeverForce) {
  Env env;
  const VarId a = env.var("a");
  env.nck({a}, {1}, ConstraintKind::kSoft);
  const DataflowResult result = solve_dataflow(env);
  EXPECT_FALSE(result.proved_unsat);
  EXPECT_EQ(result.values[a], ForcedValue::kUnknown);
  EXPECT_EQ(result.num_forced(), 0u);
}

TEST(Dataflow, MinesXorPairFact) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.different(a, b);  // nck({a,b},{1})
  const DataflowResult result = solve_dataflow(env);
  ASSERT_EQ(result.facts.size(), 1u);
  EXPECT_EQ(result.facts[0].a, a);
  EXPECT_EQ(result.facts[0].b, b);
  // XOR: exactly the joint values (1,0) and (0,1).
  EXPECT_EQ(result.facts[0].mask, pair_bit(true, false) | pair_bit(false, true));
}

TEST(Dataflow, PairMiningProvesUnsatBeyondPropagation) {
  const Env env = pair_unsat_program();
  const DataflowResult result = solve_dataflow(env);
  EXPECT_TRUE(result.proved_unsat);
  EXPECT_TRUE(result.needed_pairs);
  EXPECT_TRUE(result.pair_witness);
  EXPECT_NE(result.unsat_constraint, result.unsat_constraint2);

  DataflowOptions no_pairs;
  no_pairs.mine_pairs = false;
  const DataflowResult weak = solve_dataflow(env, no_pairs);
  EXPECT_FALSE(weak.proved_unsat);  // exactly the NCK-P002 engine
}

TEST(Dataflow, PairMiningForcesWhatPropagationCannot) {
  const Env env = pair_forcing_program();
  DataflowOptions no_pairs;
  no_pairs.mine_pairs = false;
  const DataflowResult weak = solve_dataflow(env, no_pairs);
  EXPECT_EQ(weak.num_forced(), 0u);

  const DataflowResult result = solve_dataflow(env);
  ASSERT_FALSE(result.proved_unsat);
  EXPECT_TRUE(result.needed_pairs);
  EXPECT_EQ(result.values[0], ForcedValue::kFalse);
  EXPECT_EQ(result.values[1], ForcedValue::kFalse);
}

TEST(Dataflow, PropagationStyleUnsatKeepsSingleWitness) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, b}, {2});  // both TRUE
  env.nck({a}, {0});     // a FALSE
  const DataflowResult result = solve_dataflow(env);
  EXPECT_TRUE(result.proved_unsat);
  EXPECT_FALSE(result.pair_witness);
  EXPECT_EQ(result.unsat_constraint, result.unsat_constraint2);
}

// --------------------------------------------------------------------------
// Reduction catalog
// --------------------------------------------------------------------------

TEST(Reduce, ForcedSubstitutionShiftsSelections) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b, c}, {1, 2});
  env.nck({a}, {1});  // a forced TRUE
  const ReduceResult result = reduce_program(env);
  ASSERT_FALSE(result.proved_unsat);
  EXPECT_TRUE(result.changed());
  EXPECT_EQ(result.reduced.num_vars(), 2u);
  ASSERT_EQ(result.reduced.num_constraints(), 1u);
  // Selection {1,2} shifted by the substituted TRUE: {0,1} over {b,c}.
  const Constraint& kept = result.reduced.constraints().front();
  EXPECT_EQ(kept.cardinality(), 2u);
  EXPECT_EQ(std::vector<unsigned>(kept.selection().begin(),
                                  kept.selection().end()),
            (std::vector<unsigned>{0, 1}));

  // Lift maps reduced assignments back under the forced values.
  const std::vector<bool> lifted = result.trace.lift({true, false});
  ASSERT_EQ(lifted.size(), 3u);
  EXPECT_TRUE(lifted[a]);   // forced
  EXPECT_TRUE(lifted[b]);   // copied
  EXPECT_FALSE(lifted[c]);  // copied
  EXPECT_TRUE(consistent(result.trace, lifted));
  EXPECT_EQ(project(result.trace, lifted), (std::vector<bool>{true, false}));

  const ReductionVerdict verdict = verify_reduction(env, result);
  EXPECT_TRUE(verdict.checked);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST(Reduce, DuplicateAndSubsumedHardConstraintsRemoved) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, b}, {1});        // tight
  env.nck({a, b}, {1});        // duplicate of #0
  env.nck({a, b}, {0, 1, 2});  // subsumed by #0 (and a tautology besides)
  env.prefer_false(a);
  const ReduceResult result = reduce_program(env);
  EXPECT_EQ(result.reduced.num_hard(), 1u);
  EXPECT_EQ(result.reduced.num_soft(), 1u);

  const std::vector<Subsumption> subs = find_hard_subsumptions(env);
  ASSERT_EQ(subs.size(), 2u);
  EXPECT_EQ(subs[0].removed, 1u);
  EXPECT_EQ(subs[0].by, 0u);
  EXPECT_TRUE(subs[0].duplicate);
  EXPECT_EQ(subs[1].removed, 2u);
  EXPECT_FALSE(subs[1].duplicate);

  const ReductionVerdict verdict = verify_reduction(env, result);
  EXPECT_TRUE(verdict.checked);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST(Reduce, DecidedSoftConstraintsBecomeOffsets) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a}, {1});     // a forced TRUE
  env.prefer_true(a);    // always satisfied once substituted
  env.prefer_false(a);   // never satisfiable
  env.nck({b}, {0, 1});  // tautology, keeps b in the program
  env.prefer_false(b);   // undecided: survives
  const ReduceResult result = reduce_program(env);
  EXPECT_EQ(result.trace.soft_always_satisfied, 1u);
  EXPECT_EQ(result.trace.soft_never_satisfied, 1u);
  EXPECT_EQ(result.reduced.num_soft(), 1u);
  EXPECT_EQ(result.reduced.num_hard(), 0u);

  const ReductionVerdict verdict = verify_reduction(env, result);
  EXPECT_TRUE(verdict.checked);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST(Reduce, UnsatShortCircuitProducesEmptyProgram) {
  const Env env = pair_unsat_program();
  const ReduceResult result = reduce_program(env);
  EXPECT_TRUE(result.proved_unsat);
  EXPECT_TRUE(result.needed_pairs);
  EXPECT_EQ(result.reduced.num_constraints(), 0u);
  ASSERT_FALSE(result.steps.empty());
  EXPECT_EQ(result.steps.front().rule, ReductionRule::kUnsatShortCircuit);

  // Certification confirms: no assignment satisfies the original.
  const ReductionVerdict verdict = verify_reduction(env, result);
  EXPECT_TRUE(verdict.checked);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

TEST(Reduce, NeverConstrainedVariablePassesThrough) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  (void)env.var("ghost");  // appears in no constraint (the NCK-P004 story)
  env.nck({a, b}, {1});
  const ReduceResult result = reduce_program(env);
  EXPECT_FALSE(result.changed());
  EXPECT_EQ(result.reduced.num_vars(), 3u);
  EXPECT_TRUE(result.trace.identity());
}

TEST(Reduce, VerifyRejectsATamperedReduction) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b, c}, {2});
  env.nck({a}, {1});
  const ReduceResult clean = reduce_program(env);
  ASSERT_TRUE(clean.changed());
  ASSERT_EQ(clean.reduced.num_vars(), 2u);
  ASSERT_EQ(clean.trace.kept, (std::vector<VarId>{b, c}));
  const auto rejected = [&](const ReduceResult& tampered) {
    const ReductionVerdict verdict = verify_against_reference(env, tampered);
    EXPECT_TRUE(verdict.checked);
    EXPECT_FALSE(verdict.ok);
    return verdict.detail;
  };

  // Swap the surviving constraint for a looser one: the reduced program
  // admits a = 1, b = c = 0, which the original rejects.
  ReduceResult loose = clean;
  Env looser;
  looser.var("b");
  looser.var("c");
  looser.nck({0, 1}, {0, 1, 2});
  loose.reduced = looser;
  EXPECT_EQ(rejected(loose),
            "hard feasibility diverges between original and reduced at "
            "assignment 0x1");

  ReduceResult unsat = clean;
  unsat.proved_unsat = true;
  EXPECT_EQ(rejected(unsat),
            "program reported unsatisfiable has a feasible assignment at "
            "assignment 0x3");

  // Forcing b FALSE excludes the feasible a = b = 1, c = 0.
  ReduceResult overforced = clean;
  overforced.trace.forced[b] = ForcedValue::kFalse;
  EXPECT_EQ(rejected(overforced),
            "forced value excludes a hard-feasible assignment at assignment "
            "0x3");

  ReduceResult offset = clean;
  offset.trace.soft_always_satisfied = 1;
  EXPECT_EQ(rejected(offset),
            "soft-satisfaction count diverges between original and reduced "
            "at assignment 0x1");
}

TEST(Reduce, VerifyWalkMatchesTheReferenceAtTheSizeLimit) {
  const Env at_limit = ring_cover(16);
  const ReduceResult reduced = reduce_program(at_limit);
  ASSERT_TRUE(reduced.changed());
  const ReductionVerdict checked = verify_against_reference(at_limit, reduced);
  EXPECT_TRUE(checked.checked);
  EXPECT_TRUE(checked.ok) << checked.detail;

  const Env past_limit = ring_cover(17);
  const ReductionVerdict skipped =
      verify_against_reference(past_limit, reduce_program(past_limit));
  EXPECT_FALSE(skipped.checked);
  EXPECT_TRUE(skipped.ok);
}

TEST(Reduce, VerifySkipsOversizedPrograms) {
  Env env;
  const std::vector<VarId> vars = env.new_vars(6, "v");
  env.at_most(vars, 3);
  const ReduceResult result = reduce_program(env);
  const ReductionVerdict verdict = verify_reduction(env, result, 4);
  EXPECT_FALSE(verdict.checked);
  EXPECT_TRUE(verdict.ok);  // vacuously
}

TEST(Reduce, ComponentsAndSplit) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  const VarId c = env.var("c"), d = env.var("d");
  env.nck({a, b}, {1});
  env.nck({c, d}, {2});
  env.prefer_false(a);
  const auto components = constraint_components(env);
  ASSERT_EQ(components.size(), 2u);

  const ComponentSplit split = split_components(env);
  ASSERT_EQ(split.programs.size(), 2u);
  EXPECT_EQ(split.programs[0].num_constraints(), 2u);  // hard + its soft
  EXPECT_EQ(split.programs[1].num_constraints(), 1u);
  EXPECT_EQ(split.var_maps[0], (std::vector<VarId>{a, b}));
  EXPECT_EQ(split.var_maps[1], (std::vector<VarId>{c, d}));
  EXPECT_EQ(split.constraint_maps[0], (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(split.constraint_maps[1], (std::vector<std::size_t>{1}));
  EXPECT_TRUE(split.free_vars.empty());
}

TEST(Reduce, SplitListsUnconstrainedVariablesAsFree) {
  // Variables in no constraint belong to no component; the decomposer
  // relies on var_maps + free_vars covering [0, n) exactly once.
  Env env;
  const VarId a = env.var("a");
  const VarId isolated = env.var("isolated");
  const VarId b = env.var("b");
  env.nck({a, b}, {1});
  const ComponentSplit split = split_components(env);
  ASSERT_EQ(split.programs.size(), 1u);
  EXPECT_EQ(split.var_maps[0], (std::vector<VarId>{a, b}));
  EXPECT_EQ(split.free_vars, (std::vector<VarId>{isolated}));
}

TEST(Reduce, SplitOfUnconstrainedProgramIsAllFree) {
  Env env;
  const std::vector<VarId> vars = env.new_vars(3, "v");
  const ComponentSplit split = split_components(env);
  EXPECT_TRUE(split.programs.empty());
  EXPECT_EQ(split.free_vars, vars);

  const ComponentSplit empty = split_components(Env{});
  EXPECT_TRUE(empty.programs.empty());
  EXPECT_TRUE(empty.free_vars.empty());
}

TEST(Reduce, SplitKeepsAllSoftProgramsWhole) {
  // A program with only soft constraints still splits per shared-variable
  // component, each sub-program carrying its own soft constraints.
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b}, {1}, ConstraintKind::kSoft);
  env.prefer_true(c);
  const ComponentSplit split = split_components(env);
  ASSERT_EQ(split.programs.size(), 2u);
  EXPECT_EQ(split.programs[0].num_soft(), 1u);
  EXPECT_EQ(split.programs[0].num_hard(), 0u);
  EXPECT_EQ(split.var_maps[0], (std::vector<VarId>{a, b}));
  EXPECT_EQ(split.var_maps[1], (std::vector<VarId>{c}));
  EXPECT_TRUE(split.free_vars.empty());
}

TEST(Reduce, SplitJoinsHardClustersBridgedBySoftConstraint) {
  // Two hard-disjoint clusters tied only through a soft constraint must
  // land in one component: their soft counts are coupled, so solving them
  // separately could mis-rank assignments.
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  const VarId c = env.var("c"), d = env.var("d");
  env.nck({a, b}, {1});
  env.nck({c, d}, {1});
  env.nck({b, c}, {2}, ConstraintKind::kSoft);  // the bridge
  const ComponentSplit split = split_components(env);
  ASSERT_EQ(split.programs.size(), 1u);
  EXPECT_EQ(split.var_maps[0], (std::vector<VarId>{a, b, c, d}));
  EXPECT_EQ(split.programs[0].num_hard(), 2u);
  EXPECT_EQ(split.programs[0].num_soft(), 1u);
}

TEST(Reduce, SummaryCountsMatchTrace) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b, c}, {1, 2});
  env.nck({c}, {1});
  env.prefer_true(c);
  const ReduceResult result = reduce_program(env);
  const PresolveSummary summary = summarize_reduction(env, result);
  EXPECT_EQ(summary.original_vars, 3u);
  EXPECT_EQ(summary.reduced_vars, 2u);
  EXPECT_EQ(summary.forced, 1u);
  EXPECT_EQ(summary.soft_always_satisfied, 1u);
  EXPECT_EQ(summary.original_constraints, 3u);
  EXPECT_EQ(summary.reduced_constraints, 1u);
  EXPECT_FALSE(summary.proved_unsat);
}

// --------------------------------------------------------------------------
// NCK-D* lint pass
// --------------------------------------------------------------------------

TEST(PresolveLint, ForcedVariableNote) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, b}, {1, 2});  // b TRUE already satisfies this: a stays free
  env.nck({b}, {1});
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  ASSERT_TRUE(report.has_code(DiagCode::kForcedVariable));
  const Diagnostic& d = find_code(report, DiagCode::kForcedVariable);
  EXPECT_EQ(d.severity, Severity::kNote);
  EXPECT_EQ(d.location.kind, DiagLocation::Kind::kVariable);
  EXPECT_EQ(d.location.index, static_cast<std::size_t>(b));
}

TEST(PresolveLint, SubsumedConstraintNote) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, b}, {1});
  env.nck({a, b}, {0, 1});
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  ASSERT_TRUE(report.has_code(DiagCode::kSubsumedConstraint));
  const Diagnostic& d = find_code(report, DiagCode::kSubsumedConstraint);
  EXPECT_EQ(d.severity, Severity::kNote);
  EXPECT_EQ(d.location.index, 1u);   // the weaker constraint
  EXPECT_EQ(d.location.index2, 0u);  // subsumed by the tighter one
}

TEST(PresolveLint, IndependentComponentsNote) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  const VarId c = env.var("c"), d = env.var("d");
  env.nck({a, b}, {1});
  env.nck({c, d}, {1});
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  EXPECT_TRUE(report.has_code(DiagCode::kIndependentComponents));
}

TEST(PresolveLint, PairUnsatIsAnErrorOnlyWhenNovel) {
  // Jointly unsatisfiable, invisible to P001/P002: D003 carries the proof.
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(pair_unsat_program());
  ASSERT_TRUE(report.has_code(DiagCode::kPresolveUnsat));
  const Diagnostic& d = find_code(report, DiagCode::kPresolveUnsat);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location.kind, DiagLocation::Kind::kConstraintPair);
  EXPECT_FALSE(report.has_code(DiagCode::kContradictoryPair));
  EXPECT_FALSE(report.has_code(DiagCode::kInfeasibleByPropagation));

  // A P001-detectable contradiction must NOT be re-reported as D003.
  Env p001;
  const VarId a = p001.var("a"), b = p001.var("b");
  p001.nck({a, b}, {2});
  p001.nck({a, b}, {0});
  const AnalysisReport old_story = analyzer.analyze(p001);
  EXPECT_TRUE(old_story.has_code(DiagCode::kContradictoryPair));
  EXPECT_FALSE(old_story.has_code(DiagCode::kPresolveUnsat));
}

TEST(PresolveLint, CleanProgramHasNoDFindings) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b}, {1, 2});
  env.nck({a, c}, {1, 2});
  env.nck({b, c}, {1, 2});
  env.prefer_false(a);
  env.prefer_false(b);
  env.prefer_false(c);
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(env);
  EXPECT_FALSE(report.has_code(DiagCode::kForcedVariable));
  EXPECT_FALSE(report.has_code(DiagCode::kSubsumedConstraint));
  EXPECT_FALSE(report.has_code(DiagCode::kIndependentComponents));
  EXPECT_FALSE(report.has_code(DiagCode::kPresolveUnsat));
}

// --------------------------------------------------------------------------
// Satellite: deterministic diagnostic emission
// --------------------------------------------------------------------------

/// Trips many passes at once: forced variable, subsumption, duplicate,
/// tautology, unused variable, independent components.
Env noisy_program() {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  const VarId c = env.var("c"), d = env.var("d");
  (void)env.var("ghost");
  env.nck({a, b}, {1});
  env.nck({a, b}, {0, 1});     // subsumed
  env.nck({c, d}, {0, 1, 2});  // tautology, separate component
  env.nck({d}, {1});           // forces d TRUE
  env.prefer_false(a);
  return env;
}

TEST(DeterministicDiagnostics, ReportIsSortedByCodeThenLocation) {
  Analyzer analyzer;
  const AnalysisReport report = analyzer.analyze(noisy_program());
  const auto& diags = report.diagnostics();
  ASSERT_GE(diags.size(), 4u);
  EXPECT_TRUE(std::is_sorted(
      diags.begin(), diags.end(), [](const Diagnostic& x, const Diagnostic& y) {
        return x.code < y.code;
      }));
}

TEST(DeterministicDiagnostics, LintJsonIsByteStable) {
  Analyzer first, second;
  const std::string a = first.analyze(noisy_program()).to_json();
  const std::string b = second.analyze(noisy_program()).to_json();
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

// --------------------------------------------------------------------------
// Satellite: order-canonical program fingerprint
// --------------------------------------------------------------------------

TEST(CanonicalFingerprint, ShuffledConstraintOrderHashesAlike) {
  Env one;
  const VarId a1 = one.var("a"), b1 = one.var("b"), c1 = one.var("c");
  one.nck({a1, b1}, {1, 2});
  one.nck({b1, c1}, {1});
  one.prefer_false(c1);

  Env two;  // same variables, same constraints, permuted order
  const VarId a2 = two.var("a"), b2 = two.var("b"), c2 = two.var("c");
  two.prefer_false(c2);
  two.nck({b2, c2}, {1});
  two.nck({a2, b2}, {1, 2});

  backend::Fingerprint f1, f2;
  backend::mix_env(f1, one);
  backend::mix_env(f2, two);
  EXPECT_EQ(f1, f2);
}

TEST(CanonicalFingerprint, RepeatedSoftConstraintsStayDistinct) {
  Env once;
  const VarId a1 = once.var("a");
  once.nck({a1}, {0, 1});
  once.prefer_true(a1);

  Env twice;  // the repeated soft doubles its weight: different program
  const VarId a2 = twice.var("a");
  twice.nck({a2}, {0, 1});
  twice.prefer_true(a2);
  twice.prefer_true(a2);

  backend::Fingerprint f1, f2;
  backend::mix_env(f1, once);
  backend::mix_env(f2, twice);
  EXPECT_NE(f1, f2);
}

// --------------------------------------------------------------------------
// Solver integration
// --------------------------------------------------------------------------

/// The headline instance: a 12-variable committee constraint with a
/// non-contiguous selection set is beyond every synthesis budget
/// (NCK-P008), but six unit vetoes let presolve collapse it to a
/// contiguous at-most-3 over six variables.
Env committee_program() {
  Env env;
  const std::vector<VarId> members = env.new_vars(12, "m");
  env.nck(members, {0, 1, 2, 3, 12});
  for (std::size_t i = 6; i < 12; ++i) env.nck({members[i]}, {0});
  for (std::size_t i = 0; i < 6; ++i) env.prefer_true(members[i]);
  return env;
}

TEST(SolverPresolve, UnlocksSynthBudgetRejectedProgram) {
  const Env env = committee_program();

  Solver without(99);
  without.solve_options().presolve = false;
  const SolveReport rejected = without.solve(env, BackendKind::kClassical);
  EXPECT_FALSE(rejected.ran);
  EXPECT_EQ(rejected.failure, FailureKind::kAnalysisRejected);
  EXPECT_TRUE(rejected.analysis.has_code(DiagCode::kSynthBudgetExceeded));

  Solver with(99);
  const SolveReport solved = with.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(solved.ran);
  EXPECT_EQ(solved.best_quality, Quality::kOptimal);
  EXPECT_EQ(solved.truth.best_soft_satisfied, 3u);  // any 3 of m0..m5
  ASSERT_TRUE(solved.presolve.has_value());
  EXPECT_EQ(solved.presolve->forced, 6u);
  EXPECT_TRUE(solved.presolve->verified);
  // The lifted best assignment pins every vetoed member FALSE.
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    chosen += solved.best_assignment[i] ? 1u : 0u;
  }
  EXPECT_EQ(chosen, 3u);
  for (std::size_t i = 6; i < 12; ++i) EXPECT_FALSE(solved.best_assignment[i]);
  // Definition-8 classification agrees in the original space.
  EXPECT_EQ(env.evaluate(solved.best_assignment).hard_violated, 0u);
}

TEST(SolverPresolve, FullyDecidedProgramShortCircuits) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a}, {1});
  env.nck({b}, {0});
  env.prefer_true(a);
  Solver solver(7);
  const SolveReport report = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(report.ran);
  EXPECT_EQ(report.best_quality, Quality::kOptimal);
  EXPECT_EQ(report.num_samples, 1u);
  EXPECT_TRUE(report.truth.feasible);
  EXPECT_EQ(report.truth.best_soft_satisfied, 1u);  // the decided soft
  EXPECT_EQ(report.best_assignment, (std::vector<bool>{true, false}));
  EXPECT_EQ(report.trace.counter("presolve.short_circuit"), 1.0);
}

TEST(SolverPresolve, LiftAddsDecidedSoftOffsets) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b, c}, {1, 2});
  env.nck({c}, {1});   // forces c TRUE
  env.prefer_true(c);  // decided: always satisfied after substitution
  env.prefer_false(a);
  Solver solver(7);
  const SolveReport report = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(report.ran);
  EXPECT_EQ(report.best_quality, Quality::kOptimal);
  // Reduced-space best (prefer_false(a)) plus the decided soft.
  EXPECT_EQ(report.truth.best_soft_satisfied, 2u);
  EXPECT_TRUE(report.best_assignment[c]);
  ASSERT_TRUE(report.presolve.has_value());
  EXPECT_EQ(report.presolve->soft_always_satisfied, 1u);
  EXPECT_EQ(env.evaluate(report.best_assignment).soft_satisfied, 2u);
}

TEST(SolverPresolve, PairProvedUnsatRejectsWithD003) {
  Solver solver(7);
  const SolveReport report =
      solver.solve(pair_unsat_program(), BackendKind::kClassical);
  EXPECT_FALSE(report.ran);
  EXPECT_EQ(report.failure, FailureKind::kAnalysisRejected);
  EXPECT_TRUE(report.analysis.has_code(DiagCode::kPresolveUnsat));
  ASSERT_TRUE(report.presolve.has_value());
  EXPECT_TRUE(report.presolve->proved_unsat);
}

TEST(SolverPresolve, PlanCacheServesWarmPresolve) {
  const Env env = committee_program();
  Solver solver(7);
  const SolveReport cold = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(cold.ran);
  EXPECT_EQ(cold.trace.counter("presolve.cache_hit"), 0.0);
  EXPECT_EQ(cold.trace.counter("presolve.cache_miss"), 1.0);
  const SolveReport warm = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(warm.ran);
  EXPECT_EQ(warm.trace.counter("presolve.cache_hit"), 1.0);
  EXPECT_EQ(warm.best_quality, Quality::kOptimal);
}

TEST(SolverPresolve, IdentityPresolveLeavesReportDisengaged) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b");
  env.nck({a, b}, {1});
  env.prefer_false(a);
  Solver solver(7);
  const SolveReport report = solver.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(report.ran);
  EXPECT_FALSE(report.presolve.has_value());
  EXPECT_EQ(report.best_quality, Quality::kOptimal);
}

TEST(SolverPresolve, OnAndOffAgreeOnCleanPrograms) {
  Env env;
  const VarId a = env.var("a"), b = env.var("b"), c = env.var("c");
  env.nck({a, b}, {1, 2});
  env.nck({b, c}, {1});
  env.nck({c}, {0});  // reducible: c FALSE, then b TRUE
  env.prefer_false(a);
  Solver on(7), off(7);
  off.solve_options().presolve = false;
  const SolveReport with = on.solve(env, BackendKind::kClassical);
  const SolveReport without = off.solve(env, BackendKind::kClassical);
  ASSERT_TRUE(with.ran);
  ASSERT_TRUE(without.ran);
  EXPECT_EQ(with.best_quality, without.best_quality);
  EXPECT_EQ(with.truth.feasible, without.truth.feasible);
  EXPECT_EQ(with.truth.best_soft_satisfied, without.truth.best_soft_satisfied);
  EXPECT_EQ(with.best_assignment, without.best_assignment);
}

// --------------------------------------------------------------------------
// Satellite: randomized equivalence property
// --------------------------------------------------------------------------

/// Random nck(N, K) program: up to 5 variables, 1..6 constraints, mixed
/// hard/soft, collections with repetition (multiplicities), arbitrary
/// non-empty selection sets.
Env random_program(std::mt19937_64& rng) {
  Env env;
  std::uniform_int_distribution<std::size_t> var_count(1, 5);
  const std::vector<VarId> vars = env.new_vars(var_count(rng), "v");
  std::uniform_int_distribution<std::size_t> constraint_count(1, 6);
  std::uniform_int_distribution<std::size_t> collection_size(1, 4);
  std::uniform_int_distribution<std::size_t> pick(0, vars.size() - 1);
  std::uniform_int_distribution<int> percent(0, 99);
  const std::size_t num_constraints = constraint_count(rng);
  for (std::size_t i = 0; i < num_constraints; ++i) {
    std::vector<VarId> collection;
    const std::size_t size = collection_size(rng);
    for (std::size_t j = 0; j < size; ++j) collection.push_back(vars[pick(rng)]);
    std::set<unsigned> selection;
    for (unsigned k = 0; k <= collection.size(); ++k) {
      if (percent(rng) < 40) selection.insert(k);
    }
    if (selection.empty()) {
      selection.insert(static_cast<unsigned>(pick(rng) % (size + 1)));
    }
    const bool soft = percent(rng) < 30;
    env.nck(std::move(collection), std::move(selection),
            soft ? ConstraintKind::kSoft : ConstraintKind::kHard);
  }
  return env;
}

/// Brute-force Definition-8 ground truth by full enumeration.
GroundTruth enumerate_truth(const Env& env) {
  GroundTruth truth;
  const std::size_t n = env.num_vars();
  for (std::uint64_t bits = 0; bits < (std::uint64_t{1} << n); ++bits) {
    std::vector<bool> assignment(n);
    for (std::size_t v = 0; v < n; ++v) assignment[v] = (bits >> v) & 1;
    const Evaluation eval = env.evaluate(assignment);
    if (!eval.feasible()) continue;
    if (!truth.feasible || eval.soft_satisfied > truth.best_soft_satisfied) {
      truth.feasible = true;
      truth.best_soft_satisfied = eval.soft_satisfied;
    }
  }
  return truth;
}

TEST(PresolveProperty, RandomProgramsPreserveGroundTruthAcross100Seeds) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull);
    const Env env = random_program(rng);
    const ReduceResult result = reduce_program(env);
    const ReductionVerdict verdict = verify_against_reference(env, result);
    ASSERT_TRUE(verdict.checked) << "seed " << seed;
    EXPECT_TRUE(verdict.ok) << "seed " << seed << ": " << verdict.detail;

    const GroundTruth original = enumerate_truth(env);
    if (result.proved_unsat) {
      EXPECT_FALSE(original.feasible) << "seed " << seed;
      continue;
    }
    const GroundTruth reduced = enumerate_truth(result.reduced);
    ASSERT_EQ(original.feasible, reduced.feasible) << "seed " << seed;
    if (original.feasible) {
      EXPECT_EQ(original.best_soft_satisfied,
                reduced.best_soft_satisfied +
                    result.trace.soft_always_satisfied)
          << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace nck
