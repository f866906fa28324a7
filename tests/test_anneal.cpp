#include <gtest/gtest.h>

#include <algorithm>

#include "anneal/backend.hpp"
#include "anneal/embedded_ising.hpp"
#include "anneal/embedding.hpp"
#include "anneal/sampler.hpp"
#include "anneal/topology.hpp"
#include "graph/generators.hpp"
#include "problems/vertex_cover.hpp"
#include "qubo/brute_force.hpp"
#include "runtime/result.hpp"
#include "util/rng.hpp"

namespace nck {
namespace {

// ---------------------------------------------------------------- Topology

TEST(Pegasus, QubitCountMatchesFormula) {
  for (int m : {2, 3, 4, 16}) {
    // Full lattice: 24m(m-1). Fabric: minus the 8(m-1) couplerless qubits.
    EXPECT_EQ(pegasus_graph(m, /*fabric_only=*/false).num_vertices(),
              static_cast<std::size_t>(24 * m * (m - 1)));
    EXPECT_EQ(pegasus_graph(m).num_vertices(),
              static_cast<std::size_t>(24 * m * (m - 1) - 8 * (m - 1)));
  }
  // P16 fabric == the Advantage 4.1 qubit count the paper reports.
  EXPECT_EQ(pegasus_graph(16).num_vertices(), 5640u);
  EXPECT_THROW(pegasus_graph(1), std::invalid_argument);
}

TEST(Pegasus, DegreeStructure) {
  const Graph g = pegasus_graph(6);
  std::size_t max_degree = 0;
  std::size_t degree15 = 0;
  for (Graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
    if (g.degree(v) == 15) ++degree15;
  }
  // Pegasus interior qubits have degree 15 (12 internal + 2 external + odd).
  EXPECT_EQ(max_degree, 15u);
  EXPECT_GT(degree15, g.num_vertices() / 3);  // bulk of the lattice
  EXPECT_TRUE(g.connected());
}

TEST(Pegasus, CoordinateRoundTrip) {
  const int m = 4;
  const Graph g = pegasus_graph(m, /*fabric_only=*/false);
  for (Graph::Vertex q = 0; q < g.num_vertices(); ++q) {
    const PegasusCoord c = pegasus_coord(m, q);
    EXPECT_EQ(pegasus_id(m, c), q);
    EXPECT_GE(c.u, 0);
    EXPECT_LE(c.u, 1);
    EXPECT_LT(c.w, m);
    EXPECT_LT(c.k, 12);
    EXPECT_LT(c.z, m - 1);
  }
}

TEST(Chimera, StructureChecks) {
  const Graph g = chimera_graph(3, 3, 4);
  EXPECT_EQ(g.num_vertices(), 3u * 3u * 8u);
  // Interior cell qubit degree: 4 intra + 2 inter = 6.
  std::size_t max_degree = 0;
  for (Graph::Vertex v = 0; v < g.num_vertices(); ++v) {
    max_degree = std::max(max_degree, g.degree(v));
  }
  EXPECT_EQ(max_degree, 6u);
  EXPECT_TRUE(g.connected());
}

TEST(Device, Advantage41MatchesPaperQubitCount) {
  Rng rng(5);
  const Device d = advantage_4_1(rng);
  EXPECT_EQ(d.graph.num_vertices(), 5640u);  // the paper's figure
  EXPECT_EQ(d.num_operable(), 5640u);
  EXPECT_TRUE(d.working_graph().connected());
}

TEST(Device, EverySeedBuildsTheSharedDeviceWithoutDrawing) {
  Rng a(1), b(99), untouched(1);
  EXPECT_EQ(advantage_4_1(a).digest(), shared_advantage_4_1().digest());
  EXPECT_EQ(advantage_4_1(b).digest(), shared_advantage_4_1().digest());
  EXPECT_EQ(a(), untouched());
  EXPECT_EQ(&shared_advantage_4_1(), &shared_advantage_4_1());
}

/// The facts a Device stores, recomputed from its graph and mask.
void expect_facts_match_recomputation(const Device& d) {
  Graph working(d.graph.num_vertices());
  for (const auto& [u, v] : d.graph.edges()) {
    if (d.operable()[u] && d.operable()[v]) working.add_edge(u, v);
  }
  std::size_t host_degree = 0;
  for (Graph::Vertex q = 0; q < working.num_vertices(); ++q) {
    host_degree = std::max(host_degree, working.degree(q));
  }
  EXPECT_EQ(d.num_operable(),
            static_cast<std::size_t>(std::count(d.operable().begin(),
                                                d.operable().end(), true)));
  EXPECT_EQ(d.host_degree(), host_degree);
  EXPECT_EQ(d.working_graph().num_vertices(), working.num_vertices());
  EXPECT_TRUE(std::ranges::equal(d.working_graph().edges(), working.edges()));
}

TEST(Device, StoredFactsMatchARecomputationPristineAndDegraded) {
  for (const Device& pristine :
       {perfect_device("pegasus-4", pegasus_graph(4)),
        perfect_device("chimera-3x3", chimera_graph(3, 3))}) {
    SCOPED_TRACE(pristine.name);
    expect_facts_match_recomputation(pristine);
    EXPECT_EQ(pristine.num_operable(), pristine.graph.num_vertices());

    // Every third qubit dies, so some couplers lose both ends.
    std::vector<std::size_t> dead;
    for (std::size_t q = 0; q < pristine.graph.num_vertices(); q += 3) {
      dead.push_back(q);
    }
    const Device degraded = pristine.degraded(dead);
    expect_facts_match_recomputation(degraded);
    EXPECT_EQ(degraded.num_operable(), pristine.num_operable() - dead.size());
    EXPECT_LT(degraded.working_graph().num_edges(),
              pristine.working_graph().num_edges());
    EXPECT_NE(degraded.digest(), pristine.digest());
    // The factory leaves its source untouched.
    expect_facts_match_recomputation(pristine);
    EXPECT_EQ(pristine.num_operable(), pristine.graph.num_vertices());
  }
}

TEST(Device, YieldModelDisablesQubits) {
  Rng rng(6);
  const Device d = advantage_4_1(rng, 13);
  EXPECT_EQ(d.num_operable(), 5640u - 13u);
  const Graph working = d.working_graph();
  std::size_t isolated = 0;
  for (Graph::Vertex v = 0; v < working.num_vertices(); ++v) {
    if (working.degree(v) == 0) ++isolated;
  }
  EXPECT_GE(isolated, 13u);
}

// --------------------------------------------------------------- Embedding

TEST(Embedding, IdentityForNativeSubgraph) {
  // A path embeds into a path with (mostly) unit chains.
  const Graph logical = path_graph(4);
  const Graph physical = path_graph(8);
  Rng rng(1);
  const auto embedding = find_embedding(logical, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const auto check = validate_embedding(logical, physical, *embedding);
  EXPECT_TRUE(check.ok) << check.error;
}

TEST(Embedding, TriangleNeedsChainsOnCycle) {
  // K3 is not a subgraph of C6, but it is a minor (contract alternate
  // edges), so chains are required. (It is *not* a minor of any path —
  // trees have no cyclic minors — which FailsWhenImpossible covers.)
  const Graph logical = complete_graph(3);
  const Graph physical = cycle_graph(6);
  Rng rng(2);
  const auto embedding = find_embedding(logical, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const auto check = validate_embedding(logical, physical, *embedding);
  EXPECT_TRUE(check.ok) << check.error;
  EXPECT_GT(embedding->total_qubits(), 3u);
}

TEST(Embedding, FailsWhenImpossible) {
  // K4 is not a minor of a path graph.
  const Graph logical = complete_graph(4);
  const Graph physical = path_graph(10);
  Rng rng(3);
  EmbedOptions options;
  options.max_passes = 12;
  options.tries = 2;
  const auto embedding = find_embedding(logical, physical, rng, options);
  EXPECT_FALSE(embedding.has_value());
}

TEST(Embedding, CliqueOnPegasus) {
  const Graph logical = complete_graph(8);
  const Graph physical = pegasus_graph(3);
  Rng rng(4);
  const auto embedding = find_embedding(logical, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const auto check = validate_embedding(logical, physical, *embedding);
  EXPECT_TRUE(check.ok) << check.error;
  // Dense problems need chains: more qubits than logical variables.
  EXPECT_GT(embedding->total_qubits(), logical.num_vertices());
}

TEST(Embedding, ValidatorCatchesBrokenChains) {
  const Graph logical = path_graph(2);
  const Graph physical = path_graph(4);
  Embedding bad;
  bad.chains = {{0, 2}, {1}};  // chain {0,2} is disconnected; also overlaps..
  const auto check = validate_embedding(logical, physical, bad);
  EXPECT_FALSE(check.ok);
}

TEST(Embedding, ValidatorCatchesMissingCoupler) {
  const Graph logical = path_graph(2);
  const Graph physical = path_graph(4);
  Embedding bad;
  bad.chains = {{0}, {3}};  // no physical edge between 0 and 3
  const auto check = validate_embedding(logical, physical, bad);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.error.find("no physical coupler"), std::string::npos);
}

class EmbeddingProperty : public ::testing::TestWithParam<int> {};

TEST_P(EmbeddingProperty, RandomGraphsOnPegasus) {
  Rng rng(static_cast<std::uint64_t>(31337 + GetParam()));
  const std::size_t n = 4 + rng.below(10);
  const std::size_t m =
      std::min(n * (n - 1) / 2, n + rng.below(2 * n));
  const Graph logical = random_gnm(n, m, rng);
  const Graph physical = pegasus_graph(4);
  const auto embedding = find_embedding(logical, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const auto check = validate_embedding(logical, physical, *embedding);
  EXPECT_TRUE(check.ok) << check.error;
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, EmbeddingProperty,
                         ::testing::Range(0, 15));

// ---------------------------------------------------------- Embedded Ising

TEST(EmbeddedIsing, IntactChainsPreserveLogicalEnergy) {
  // Logical triangle problem embedded on a path-of-6 (one chain of 2).
  IsingModel logical;
  logical.h = {0.5, -0.25, 0.75};
  logical.j = {{0, 1, 1.0}, {0, 2, -0.5}, {1, 2, 0.25}};
  const Graph logical_graph = complete_graph(3);
  const Graph physical = pegasus_graph(2);
  Rng rng(6);
  const auto embedding = find_embedding(logical_graph, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const EmbeddedProblem problem = embed_ising(logical, *embedding, physical);

  // For every logical spin assignment, setting all chain qubits coherently
  // must reproduce the logical energy exactly (offset calibrated).
  for (std::uint32_t bits = 0; bits < 8; ++bits) {
    std::vector<bool> logical_spins(3);
    for (std::size_t i = 0; i < 3; ++i) logical_spins[i] = (bits >> i) & 1u;
    std::vector<bool> physical_spins(problem.num_physical_qubits());
    for (std::size_t v = 0; v < 3; ++v) {
      for (std::uint32_t c : problem.chain[v]) {
        physical_spins[c] = logical_spins[v];
      }
    }
    EXPECT_NEAR(problem.ising.energy(physical_spins),
                logical.energy(logical_spins), 1e-9)
        << "bits=" << bits;
  }
}

TEST(EmbeddedIsing, UnembedMajorityVote) {
  EmbeddedProblem problem;
  problem.chain = {{0, 1, 2}, {3}};
  problem.qubit = {10, 11, 12, 13};
  UnembedStats stats;
  // Chain 0: two of three up -> logical up, one break, no tie.
  const auto logical =
      unembed_sample({true, true, false, false}, problem, &stats);
  EXPECT_EQ(logical, (std::vector<bool>{true, false}));
  EXPECT_EQ(stats.chain_breaks, 1u);
  EXPECT_EQ(stats.ties, 0u);
}

TEST(EmbeddedIsing, TieBreakUsesRngNotAlwaysTrue) {
  // Regression: an exactly split chain always resolved to TRUE, biasing
  // every tied majority vote. With an Rng the coin must land both ways,
  // and the tie must be counted.
  EmbeddedProblem problem;
  problem.chain = {{0, 1}};
  problem.qubit = {10, 11};
  const std::vector<bool> split{true, false};

  Rng rng(21);
  std::size_t trues = 0;
  constexpr std::size_t kDraws = 200;
  for (std::size_t i = 0; i < kDraws; ++i) {
    UnembedStats stats;
    const auto logical = unembed_sample(split, problem, &stats, &rng);
    EXPECT_EQ(stats.chain_breaks, 1u);
    EXPECT_EQ(stats.ties, 1u);
    if (logical[0]) ++trues;
  }
  // A fair coin over 200 draws: both outcomes occur (each side fails with
  // probability 2^-200).
  EXPECT_GT(trues, 0u);
  EXPECT_LT(trues, kDraws);

  // Null rng keeps the deterministic ties-to-TRUE fallback for tests.
  UnembedStats stats;
  EXPECT_EQ(unembed_sample(split, problem, &stats, nullptr),
            (std::vector<bool>{true}));
  EXPECT_EQ(stats.ties, 1u);
}

TEST(EmbeddedIsing, OddChainsCannotTie) {
  EmbeddedProblem problem;
  problem.chain = {{0, 1, 2}};
  problem.qubit = {10, 11, 12};
  Rng rng(22);
  UnembedStats stats;
  const auto logical =
      unembed_sample({false, true, false}, problem, &stats, &rng);
  EXPECT_EQ(logical, (std::vector<bool>{false}));
  EXPECT_EQ(stats.chain_breaks, 1u);
  EXPECT_EQ(stats.ties, 0u);
}

TEST(EmbeddedIsing, ChainStrengthScalesWithCouplings) {
  IsingModel weak;
  weak.h = {0.0, 0.0};
  weak.j = {{0, 1, 0.1}};
  IsingModel strong;
  strong.h = {0.0, 0.0};
  strong.j = {{0, 1, 10.0}};
  EXPECT_LT(recommended_chain_strength(weak),
            recommended_chain_strength(strong));
}

// ----------------------------------------------------------------- Sampler

TEST(Sampler, FindsGroundStateOfSmallProblem) {
  // Ferromagnetic triangle with a bias: ground state all-up.
  IsingModel logical;
  logical.h = {-0.5, -0.5, -0.5};
  logical.j = {{0, 1, -1.0}, {0, 2, -1.0}, {1, 2, -1.0}};
  const Graph logical_graph = complete_graph(3);
  const Graph physical = pegasus_graph(2);
  Rng rng(7);
  const auto embedding = find_embedding(logical_graph, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const EmbeddedProblem problem = embed_ising(logical, *embedding, physical);

  AnnealerSamplerOptions options;
  options.num_reads = 20;
  const auto result = sample_annealer(logical, problem, options, rng);
  ASSERT_EQ(result.reads.size(), 20u);
  EXPECT_EQ(result.reads.front().logical, (std::vector<bool>{true, true, true}));
  // Sorted by energy.
  for (std::size_t i = 1; i < result.reads.size(); ++i) {
    EXPECT_LE(result.reads[i - 1].logical_energy,
              result.reads[i].logical_energy);
  }
}

TEST(Sampler, TimingModelMatchesPaperBallpark) {
  // Section VIII-C: ~15 ms programming + 100 samples costing slightly less
  // than programming, ~30 ms total.
  const DWaveTimingModel model;
  const double total_ms = model.qpu_access_time_us(100) / 1000.0;
  EXPECT_GT(total_ms, 20.0);
  EXPECT_LT(total_ms, 40.0);
  EXPECT_LT(model.sampling_time_us(100), model.programming_us);
}

TEST(Sampler, PostprocessTimeOnlyChargedWhenEnabled) {
  // Regression: the timing model charged the post-processing tail even
  // when options.postprocess was off, over-reporting QPU access time.
  IsingModel logical;
  logical.h = {-0.5, -0.5};
  logical.j = {{0, 1, -1.0}};
  const Graph logical_graph = path_graph(2);
  const Graph physical = pegasus_graph(2);
  Rng rng(23);
  const auto embedding = find_embedding(logical_graph, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const EmbeddedProblem problem = embed_ising(logical, *embedding, physical);

  AnnealerSamplerOptions options;
  options.num_reads = 5;
  options.postprocess = false;
  obs::Trace trace_off;
  Rng rng_off(24);
  const auto off = sample_annealer(logical, problem, options, rng_off,
                                   &trace_off);
  EXPECT_DOUBLE_EQ(off.timing.postprocess_us, 0.0);
  EXPECT_DOUBLE_EQ(off.timing.total_us,
                   off.timing.programming_us + off.timing.sampling_us);
  // Asserted through the trace too: the modeled device span shows 0.
  const obs::TraceData data_off = trace_off.snapshot();
  const auto* span_off = data_off.find_span("device.postprocess");
  ASSERT_NE(span_off, nullptr);
  EXPECT_DOUBLE_EQ(span_off->duration_us, 0.0);

  options.postprocess = true;
  obs::Trace trace_on;
  Rng rng_on(24);
  const auto on = sample_annealer(logical, problem, options, rng_on,
                                  &trace_on);
  EXPECT_DOUBLE_EQ(on.timing.postprocess_us,
                   options.timing_model.postprocess_us);
  EXPECT_DOUBLE_EQ(on.timing.total_us, on.timing.programming_us +
                                           on.timing.sampling_us +
                                           on.timing.postprocess_us);
  const obs::TraceData data_on = trace_on.snapshot();
  const auto* span_on = data_on.find_span("device.postprocess");
  ASSERT_NE(span_on, nullptr);
  EXPECT_DOUBLE_EQ(span_on->duration_us, options.timing_model.postprocess_us);
}

TEST(Sampler, ExtremeNoiseDegradesResults) {
  IsingModel logical;
  logical.h = {-1.0, -1.0, -1.0, -1.0};
  logical.j = {{0, 1, -1.0}, {1, 2, -1.0}, {2, 3, -1.0}};
  const Graph logical_graph = path_graph(4);
  const Graph physical = pegasus_graph(2);
  Rng rng(8);
  const auto embedding = find_embedding(logical_graph, physical, rng);
  ASSERT_TRUE(embedding.has_value());
  const EmbeddedProblem problem = embed_ising(logical, *embedding, physical);

  AnnealerSamplerOptions clean;
  clean.num_reads = 30;
  clean.ice_sigma = 0.0;
  clean.readout_error = 0.0;
  AnnealerSamplerOptions noisy = clean;
  noisy.readout_error = 0.45;  // near-random readout

  Rng rng_clean(100), rng_noisy(100);
  const auto r_clean = sample_annealer(logical, problem, clean, rng_clean);
  const auto r_noisy = sample_annealer(logical, problem, noisy, rng_noisy);
  EXPECT_LT(r_clean.reads.front().logical_energy,
            r_noisy.reads[r_noisy.reads.size() / 2].logical_energy);
}

// ----------------------------------------------------------------- Backend

TEST(AnnealBackend, SolvesVertexCoverEndToEnd) {
  Graph g(5);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  const VertexCoverProblem problem{g};
  const Env env = problem.encode();

  const Device device = perfect_device("pegasus-4", pegasus_graph(4));
  SynthEngine engine;
  Rng rng(9);
  AnnealBackendOptions options;
  options.sampler.num_reads = 50;
  const backend::AnnealAdapter annealer(&options, &device);
  const backend::ExecutionResult result =
      backend::run_once(annealer, env, engine, rng, nullptr);
  ASSERT_EQ(result.failure, FailureKind::kNone);
  EXPECT_GE(result.qubits_used, 5u);
  ASSERT_EQ(result.samples.size(), 50u);

  // Annealer success criterion: any read optimal.
  const GroundTruth truth = ground_truth(env);
  const QualityCounts counts = classify_all(result.evaluations, truth);
  EXPECT_TRUE(counts.any_optimal());
}

TEST(AnnealBackend, ReportsEmbeddingFailure) {
  // A dense problem cannot embed on a tiny path device.
  const VertexCoverProblem problem{complete_graph(6)};
  const Device device = perfect_device("path", path_graph(8));
  SynthEngine engine;
  Rng rng(10);
  AnnealBackendOptions options;
  options.embed.max_passes = 8;
  options.embed.tries = 1;
  const backend::AnnealAdapter annealer(&options, &device);
  const backend::ExecutionResult result =
      backend::run_once(annealer, problem.encode(), engine, rng, nullptr);
  EXPECT_EQ(result.failure, FailureKind::kNoEmbedding);
  EXPECT_TRUE(result.samples.empty());
}

}  // namespace
}  // namespace nck
