#include <gtest/gtest.h>

#include "analysis/certify.hpp"
#include "qubo/brute_force.hpp"
#include "synth/builtin.hpp"
#include "synth/engine.hpp"
#include "synth/lp_synth.hpp"
#include "synth/pattern.hpp"
#include "synth/rational.hpp"
#include "synth/simplex.hpp"
#if NCK_HAVE_Z3
#include "synth/z3_synth.hpp"
#endif
#include "util/rng.hpp"

namespace nck {
namespace {

// ---------------------------------------------------------------- Rational

TEST(Rational, NormalizationAndArithmetic) {
  const Rational half(1, 2);
  const Rational third(1, 3);
  EXPECT_EQ((half + third), Rational(5, 6));
  EXPECT_EQ((half - third), Rational(1, 6));
  EXPECT_EQ((half * third), Rational(1, 6));
  EXPECT_EQ((half / third), Rational(3, 2));
  EXPECT_EQ(Rational(2, 4), half);
  EXPECT_EQ(Rational(-2, -4), half);
  EXPECT_EQ(Rational(2, -4), -half);
  EXPECT_TRUE(Rational(0, 5).is_zero());
}

TEST(Rational, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GE(Rational(3), Rational(2));
}

TEST(Rational, ConversionAndErrors) {
  EXPECT_DOUBLE_EQ(Rational(3, 4).to_double(), 0.75);
  EXPECT_EQ(Rational(7).to_string(), "7");
  EXPECT_EQ(Rational(-3, 6).to_string(), "-1/2");
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
  EXPECT_THROW(Rational(1) / Rational(0), std::invalid_argument);
}

// ----------------------------------------------------------------- Simplex

TEST(Simplex, SimpleMinimization) {
  LinearProgram lp;
  lp.num_vars = 2;
  lp.add_ge({Rational(1), Rational(1)}, Rational(2));
  lp.c = {Rational(1), Rational(1)};
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(2));
}

TEST(Simplex, EqualityConstraint) {
  LinearProgram lp;
  lp.num_vars = 2;
  lp.add_eq({Rational(1), Rational(1)}, Rational(3));
  lp.c = {Rational(1), Rational(0)};
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.objective, Rational(0));
  EXPECT_EQ(r.x[1], Rational(3));
}

TEST(Simplex, DetectsInfeasibility) {
  LinearProgram lp;
  lp.num_vars = 1;
  lp.add_ge({Rational(1)}, Rational(1));
  lp.add_ge({Rational(-1)}, Rational(0));  // x <= 0 contradicts x >= 1
  const LpResult r = solve_lp(lp);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  LinearProgram lp;
  lp.num_vars = 1;
  lp.add_ge({Rational(1)}, Rational(0));
  lp.c = {Rational(-1)};  // minimize -x with x unbounded above
  const LpResult r = solve_lp(lp);
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
}

TEST(Simplex, FeasibilityOnlyMode) {
  LinearProgram lp;
  lp.num_vars = 2;
  lp.add_ge({Rational(1), Rational(0)}, Rational(1));
  lp.add_ge({Rational(0), Rational(1)}, Rational(2));
  const LpResult r = solve_lp(lp);  // empty objective
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_GE(r.x[0], Rational(1));
  EXPECT_GE(r.x[1], Rational(2));
}

TEST(Simplex, ExactFractionalSolution) {
  // min x0 s.t. 3 x0 = 1  ->  x0 = 1/3 exactly.
  LinearProgram lp;
  lp.num_vars = 1;
  lp.add_eq({Rational(3)}, Rational(1));
  lp.c = {Rational(1)};
  const LpResult r = solve_lp(lp);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_EQ(r.x[0], Rational(1, 3));
}

// ----------------------------------------------------------------- Pattern

TEST(Pattern, CanonicalizationSortsMultiplicities) {
  const ConstraintPattern p({3, 1, 2}, {1});
  EXPECT_EQ(p.multiplicities(), (std::vector<unsigned>{1, 2, 3}));
  EXPECT_EQ(p.cardinality(), 6u);
  EXPECT_EQ(p.key(), "m:1,2,3|k:1");
}

TEST(Pattern, SatisfactionWithMultiplicities) {
  // Repeated-variable encoding of the 3-SAT clause (x \/ y \/ !z) from
  // Section VI-A-f. Note: the paper prints nck({x,y,z,z}, {0,1,2,4,5}),
  // which violates its own Definition 2 (5 > cardinality 4) and cannot
  // separate the clause (count 2 arises from both a satisfying and the
  // falsifying assignment). The working encoding doubles the *positive*
  // literals instead: nck({x,x,y,y,z}, {0,2,3,4,5}); the sole falsifying
  // assignment x=y=0, z=1 is the only one with weighted count 1.
  const ConstraintPattern p({1, 2, 2}, {0, 2, 3, 4, 5});
  // Canonical variable order: (z, x, y) with multiplicities (1, 2, 2).
  EXPECT_TRUE(p.satisfied(0b000));   // 0: clause satisfied via !z
  EXPECT_FALSE(p.satisfied(0b001));  // 1: x=y=0, z=1 — clause falsified
  EXPECT_TRUE(p.satisfied(0b010));   // 2: x=1
  EXPECT_TRUE(p.satisfied(0b011));   // 3: x=1, z=1
  EXPECT_TRUE(p.satisfied(0b110));   // 4: x=y=1
  EXPECT_TRUE(p.satisfied(0b111));   // 5: all
}

TEST(Pattern, PaperSatExampleAsPrintedIsInvalid) {
  // Definition 2 requires selection values <= cardinality; the printed
  // example nck({x,y,z,z}, {0,1,2,4,5}) has cardinality 4 but contains 5.
  EXPECT_THROW(ConstraintPattern({1, 1, 2}, {0, 1, 2, 4, 5}),
               std::invalid_argument);
}

TEST(Pattern, ValidationErrors) {
  EXPECT_THROW(ConstraintPattern({}, {0}), std::invalid_argument);
  EXPECT_THROW(ConstraintPattern({1}, {}), std::invalid_argument);
  EXPECT_THROW(ConstraintPattern({1, 1}, {3}), std::invalid_argument);
  EXPECT_THROW(ConstraintPattern({0, 1}, {1}), std::invalid_argument);
}

TEST(Pattern, ContiguityDetection) {
  EXPECT_TRUE(ConstraintPattern({1, 1}, {1, 2}).selection_contiguous());
  EXPECT_TRUE(ConstraintPattern({1, 1}, {1}).selection_contiguous());
  EXPECT_FALSE(ConstraintPattern({1, 1}, {0, 2}).selection_contiguous());
}

// ----------------------------------------------------------------- Builtin

TEST(Builtin, ExactlyK) {
  BuiltinSynthesizer synth;
  const ConstraintPattern p({1, 1, 1}, {1});
  const auto result = synth.synthesize(p);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_ancillas, 0u);
  EXPECT_EQ(result->method, "builtin-exact-k");
  const auto check = certify_synthesis(p, *result);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(Builtin, IntervalAtLeastOne) {
  BuiltinSynthesizer synth;
  // The paper's vertex-cover edge constraint nck({u, v}, {1, 2}).
  const ConstraintPattern p({1, 1}, {1, 2});
  const auto result = synth.synthesize(p);
  ASSERT_TRUE(result.has_value());
  const auto check = certify_synthesis(p, *result);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(Builtin, TrivialFullRange) {
  BuiltinSynthesizer synth;
  const ConstraintPattern p({1, 1}, {0, 1, 2});
  const auto result = synth.synthesize(p);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->method, "builtin-trivial");
  EXPECT_EQ(result->qubo.num_terms(), 0u);
}

TEST(Builtin, RefusesNonContiguous) {
  BuiltinSynthesizer synth;
  EXPECT_FALSE(synth.synthesize(ConstraintPattern({1, 1, 1}, {0, 2})));
}

TEST(Builtin, LargeIntervalUsesLogSlacks) {
  BuiltinSynthesizer synth;
  // at-least-1 of 8: interval {1..8}, span 7 -> 3 slack ancillas.
  std::vector<unsigned> mults(8, 1);
  std::set<unsigned> sel;
  for (unsigned k = 1; k <= 8; ++k) sel.insert(k);
  const ConstraintPattern p(mults, sel);
  const auto result = synth.synthesize(p);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_ancillas, 3u);
  const auto check = certify_synthesis(p, *result);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(Builtin, MultiplicityAwareExactK) {
  // nck({x, y, y}, {2}): weighted count x + 2y == 2, so x=0,y=1 only...
  // and x=1,y=... 1+2=3 no; x=0,y=1 -> 2 yes. x=1,y=0 -> 1 no.
  const ConstraintPattern p({1, 2}, {2});
  BuiltinSynthesizer synth;
  const auto result = synth.synthesize(p);
  ASSERT_TRUE(result.has_value());
  const auto check = certify_synthesis(p, *result);
  EXPECT_TRUE(check.ok) << check.error;
}

// ----------------------------------------------------------------- LP path

TEST(LpSynth, TwoVariableXorNeedsNoAncilla) {
  LpSynthesizer synth;
  const ConstraintPattern p({1, 1}, {0, 2});  // a == b
  const auto result = synth.synthesize(p);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_ancillas, 0u);
  const auto check = certify_synthesis(p, *result);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(LpSynth, ThreeVariableXorNeedsAncilla) {
  // Section VI-C: nck({a,b,c},{0,2}) cannot be a 3-variable QUBO; one
  // ancilla suffices (the paper's Eq. 3).
  LpSynthesizer synth;
  const ConstraintPattern p({1, 1, 1}, {0, 2});
  const auto result = synth.synthesize(p);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_ancillas, 1u);
  const auto check = certify_synthesis(p, *result);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(LpSynth, SatTrickPattern) {
  // Repeated-variable 3-SAT clause encoding (corrected form of the
  // Section VI-A-f example; see Pattern.SatisfactionWithMultiplicities).
  LpSynthesizer synth;
  const ConstraintPattern p({1, 2, 2}, {0, 2, 3, 4, 5});
  const auto result = synth.synthesize(p);
  ASSERT_TRUE(result.has_value());
  const auto check = certify_synthesis(p, *result);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(LpSynth, GapIsRespected) {
  LpSynthesizer synth;
  const ConstraintPattern p({1, 1}, {1});
  const auto result = synth.synthesize(p);
  ASSERT_TRUE(result.has_value());
  const auto check = certify_synthesis(p, *result);
  ASSERT_TRUE(check.ok) << check.error;
  EXPECT_GE(check.observed_gap, 1.0 - 1e-9);
}

// ------------------------------------------------------------------ Eq. 3

TEST(PaperEq3, XorQuboAsPrintedIsInconsistent) {
  // Eq. 3 of the paper claims the XOR constraint nck({a,b,c},{0,2}) equals
  //   f(a,b,c,k) = a + b + c + 4k - 2ab - 2ac - 4ak - 2bc - 4bk + 4ck.
  // As printed this is *not* a valid penalty: at the satisfying assignment
  // a=b=1, c=0 the ancilla k=1 yields energy -4 < 0, so the formula (likely
  // a sign typo in the paper) fails exhaustive verification. Our
  // synthesizers produce a correct 1-ancilla XOR QUBO instead (see
  // LpSynth.ThreeVariableXorNeedsAncilla / Z3Synth.ThreeVariableXor).
  Qubo q(4);
  q.add_linear(0, 1);
  q.add_linear(1, 1);
  q.add_linear(2, 1);
  q.add_linear(3, 4);
  q.add_quadratic(0, 1, -2);
  q.add_quadratic(0, 2, -2);
  q.add_quadratic(0, 3, -4);
  q.add_quadratic(1, 2, -2);
  q.add_quadratic(1, 3, -4);
  q.add_quadratic(2, 3, 4);
  SynthesizedQubo synth;
  synth.qubo = q;
  synth.num_vars = 3;
  synth.num_ancillas = 1;
  synth.gap = 1.0;
  const ConstraintPattern p({1, 1, 1}, {0, 2});
  const auto check = certify_synthesis(p, synth);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("satisfying assignment"), std::string::npos);
  // The specific counterexample: (a,b,c,k) = (1,1,0,1) has energy -4.
  EXPECT_DOUBLE_EQ(q.energy({true, true, false, true}), -4.0);
}

// ---------------------------------------------------------------- Z3 path

#if NCK_HAVE_Z3
TEST(Z3Synth, ThreeVariableXor) {
  Z3Synthesizer synth;
  const ConstraintPattern p({1, 1, 1}, {0, 2});
  const auto result = synth.synthesize(p);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->num_ancillas, 1u);
  const auto check = certify_synthesis(p, *result);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(Z3Synth, ReleasedSessionIsRebuiltAndSynthesizesAlike) {
  // A synthesis after release_session() runs in a fresh session, exactly as
  // the first synthesis of a new synthesizer does.
  const ConstraintPattern xor3({1, 1, 1}, {0, 2});
  const ConstraintPattern other({1, 2, 2}, {0, 2, 3, 4, 5});
  Z3Synthesizer fresh;
  const auto expected = fresh.synthesize(xor3);
  ASSERT_TRUE(expected.has_value());

  Z3Synthesizer synth;
  EXPECT_FALSE(synth.release_session());  // nothing built yet
  ASSERT_TRUE(synth.synthesize(other).has_value());
  EXPECT_TRUE(synth.release_session());
  EXPECT_FALSE(synth.release_session());
  const auto again = synth.synthesize(xor3);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->qubo.to_string(), expected->qubo.to_string());
  EXPECT_EQ(again->num_ancillas, expected->num_ancillas);
}

TEST(Engine, ReleaseSessionsKeepsThePatternCache) {
  SynthEngine engine;
  const ConstraintPattern xor3({1, 1, 1}, {0, 2});
  const SynthesizedQubo first = engine.synthesize(xor3);
  EXPECT_EQ(engine.stats().z3_calls, 1u);
  EXPECT_TRUE(engine.release_sessions());
  EXPECT_FALSE(engine.release_sessions());
  const SynthesizedQubo cached = engine.synthesize(xor3);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.stats().z3_calls, 1u);
  EXPECT_EQ(cached.qubo.to_string(), first.qubo.to_string());
  EXPECT_FALSE(engine.release_sessions());  // a cache hit builds none
}

TEST(Z3Synth, AgreesWithLpOnGroundStates) {
  const ConstraintPattern p({1, 2, 2}, {0, 2, 3, 4, 5});
  Z3Synthesizer z3synth;
  LpSynthesizer lpsynth;
  const auto a = z3synth.synthesize(p);
  const auto b = lpsynth.synthesize(p);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(certify_synthesis(p, *a).ok);
  EXPECT_TRUE(certify_synthesis(p, *b).ok);
}
#endif

// ------------------------------------------------------------------ Engine

TEST(Engine, CachesSymmetricPatterns) {
  SynthEngine engine;
  const ConstraintPattern p1({1, 1}, {1, 2});
  const ConstraintPattern p2({1, 1}, {1, 2});
  engine.synthesize(p1);
  engine.synthesize(p2);
  EXPECT_EQ(engine.stats().requests, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
}

TEST(Engine, CacheDisabledRecomputes) {
  SynthEngineOptions opt;
  opt.use_cache = false;
  SynthEngine engine(opt);
  const ConstraintPattern p({1, 1}, {1, 2});
  engine.synthesize(p);
  engine.synthesize(p);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.stats().builtin_hits, 2u);
}

TEST(Engine, UncachedResultsStayValidAcrossCalls) {
  // Regression: synthesize() used to return a reference into an
  // engine-owned scratch slot when the cache was off, so the next call
  // silently overwrote earlier results. It now returns by value; holding
  // several results (including via lifetime-extended const references, as
  // call sites do) must be safe.
  SynthEngineOptions opt;
  opt.use_cache = false;
  SynthEngine engine(opt);
  const auto& first = engine.synthesize(ConstraintPattern({1, 1}, {1, 2}));
  const std::string first_qubo = first.qubo.to_string();
  const std::string first_method = first.method;
  const auto& second = engine.synthesize(ConstraintPattern({1, 1, 1}, {1}));
  EXPECT_EQ(first.qubo.to_string(), first_qubo);
  EXPECT_EQ(first.method, first_method);
  EXPECT_EQ(second.method, "builtin-exact-k");
  EXPECT_NE(first.qubo.to_string(), second.qubo.to_string());
}

TEST(Engine, BuiltinPreferredForContiguous) {
  SynthEngine engine;
  const ConstraintPattern p({1, 1, 1}, {1});
  const auto& result = engine.synthesize(p);
  EXPECT_EQ(result.method, "builtin-exact-k");
  EXPECT_EQ(engine.stats().builtin_hits, 1u);
}

TEST(Engine, GeneralPathForNonContiguous) {
  SynthEngine engine;
  const ConstraintPattern p({1, 1, 1}, {0, 2});
  const auto& result = engine.synthesize(p);
  EXPECT_NE(result.method, "builtin-exact-k");
  EXPECT_EQ(result.num_ancillas, 1u);
  EXPECT_TRUE(certify_synthesis(p, result).ok);
}

TEST(Engine, BuiltinDisabledStillWorks) {
  SynthEngineOptions opt;
  opt.use_builtin = false;
  SynthEngine engine(opt);
  const ConstraintPattern p({1, 1}, {1});
  const auto& result = engine.synthesize(p);
  EXPECT_NE(result.method.substr(0, 7), "builtin");
  EXPECT_TRUE(certify_synthesis(p, result).ok);
}

// Property sweep: every synthesizable random pattern verifies exhaustively.
struct PatternCase {
  std::vector<unsigned> mults;
  std::set<unsigned> selection;
};

class SynthProperty : public ::testing::TestWithParam<int> {};

TEST_P(SynthProperty, RandomPatternsVerify) {
  Rng rng(static_cast<std::uint64_t>(777 + GetParam()));
  const std::size_t d = 1 + rng.below(4);
  std::vector<unsigned> mults;
  unsigned card = 0;
  for (std::size_t i = 0; i < d; ++i) {
    const unsigned m = 1 + static_cast<unsigned>(rng.below(2));
    mults.push_back(m);
    card += m;
  }
  std::set<unsigned> sel;
  for (unsigned k = 0; k <= card; ++k) {
    if (rng.bernoulli(0.4)) sel.insert(k);
  }
  if (sel.empty()) sel.insert(card);
  // Ensure satisfiable: some achievable weighted count must be in sel.
  const ConstraintPattern p(mults, sel);
  if (p.valid_assignments().empty()) {
    GTEST_SKIP() << "unsatisfiable pattern";
  }
  SynthEngine engine;
  const auto& result = engine.synthesize(p);
  EXPECT_GT(result.gap, 0.0);
  const auto check = certify_synthesis(p, result);
  EXPECT_TRUE(check.ok) << check.error;
}

INSTANTIATE_TEST_SUITE_P(RandomPatterns, SynthProperty, ::testing::Range(0, 40));

}  // namespace
}  // namespace nck
