// Golden and regression tests for the hardware-fast hot loops: the
// bit-packed parallel-tempering annealer (anneal/packed.hpp) against the
// scalar IsingModel energy, the fused diagonal QAOA kernel
// (circuit/diagonal.hpp) against per-gate application and, bit for bit,
// against the per-state phase and complex-arithmetic mixer it replaced, the
// beta-schedule endpoint fix, the deep-p norm-drift fix, and the sampler's
// per-read RNG determinism contract (thread-count invariance, postprocess
// isolation).
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <vector>

#include "anneal/embedded_ising.hpp"
#include "anneal/embedding.hpp"
#include "anneal/packed.hpp"
#include "anneal/sampler.hpp"
#include "anneal/topology.hpp"
#include "circuit/circuit.hpp"
#include "circuit/diagonal.hpp"
#include "circuit/qaoa.hpp"
#include "circuit/statevector.hpp"
#include "core/compile.hpp"
#include "graph/generators.hpp"
#include "problems/max_cut.hpp"
#include "problems/vertex_cover.hpp"
#include "qubo/heuristic.hpp"
#include "qubo/ising.hpp"
#include "util/rng.hpp"

namespace nck {
namespace {

std::vector<bool> spins_of(const PackedState& state, std::size_t n) {
  std::vector<bool> spins(n);
  for (std::size_t i = 0; i < n; ++i) spins[i] = state.up(i);
  return spins;
}

// Random sparse Ising with embedded-problem structure: weak logical-style
// couplers plus a sprinkling of strong ferromagnetic (chain-style) ones.
IsingModel random_embedded_ising(std::size_t n, Rng& rng) {
  IsingModel model;
  model.h.resize(n);
  for (double& h : model.h) h = rng.uniform(-1.0, 1.0);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      if (!rng.bernoulli(std::min(1.0, 4.0 / static_cast<double>(n)))) continue;
      const bool chain_like = rng.bernoulli(0.25);
      const double w = chain_like ? -2.0 : rng.uniform(-1.0, 1.0);
      model.j.emplace_back(static_cast<Qubo::Var>(a),
                           static_cast<Qubo::Var>(b), w);
    }
  }
  model.offset = rng.uniform(-1.0, 1.0);
  return model;
}

// ------------------------------------------------- Packed energy goldens

TEST(PackedKernel, EnergyAndDeltasMatchScalarModelOn200RandomProblems) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 39;
    const IsingModel model = random_embedded_ising(n, rng);
    const PackedIsing packed(model);
    PackedWorkspace workspace(packed);
    workspace.load_clean();

    PackedState state;
    state.words.resize(packed.num_words());
    state.field.resize(n);
    workspace.randomize(state, rng);
    workspace.refresh(state);

    // Tracked energy (offset excluded) matches the scalar reference.
    EXPECT_NEAR(state.energy + model.offset, model.energy(spins_of(state, n)),
                1e-9);

    // Field-based flip deltas match scalar energy differences, and the
    // incrementally-maintained energy stays exact across a flip walk.
    for (std::size_t step = 0; step < 3 * n; ++step) {
      const std::size_t i = static_cast<std::size_t>(rng.below(n));
      const double s = state.up(i) ? 1.0 : -1.0;
      const double delta = -2.0 * s * state.field[i];
      const double before = model.energy(spins_of(state, n));
      // Apply the flip through a sweep-free path: toggle via a forced
      // Metropolis acceptance is private, so recompute by hand.
      std::vector<bool> flipped = spins_of(state, n);
      flipped[i] = !flipped[i];
      EXPECT_NEAR(model.energy(flipped) - before, delta, 1e-9)
          << "trial " << trial << " spin " << i;
      // Walk the state forward with refresh as the oracle.
      state.toggle(i);
      workspace.refresh(state);
    }
  }
}

TEST(PackedKernel, SweepAndDescendKeepTrackedEnergyConsistent) {
  Rng rng(77);
  const IsingModel model = random_embedded_ising(24, rng);
  const PackedIsing packed(model);
  PackedWorkspace workspace(packed);
  workspace.load_clean();

  PackedState state;
  state.words.resize(packed.num_words());
  state.field.resize(model.num_spins());
  workspace.randomize(state, rng);
  workspace.refresh(state);
  for (int sweep = 0; sweep < 32; ++sweep) {
    workspace.sweep(state, 0.5 + 0.1 * sweep, rng);
  }
  workspace.descend(state);
  const double tracked = state.energy;
  workspace.refresh(state);
  EXPECT_NEAR(tracked, state.energy, 1e-9);
  EXPECT_NEAR(state.energy + model.offset,
              model.energy(spins_of(state, model.num_spins())), 1e-9);
}

TEST(PackedKernel, TemperingFindsGroundStateOfFrustratedProblem) {
  // Frustrated 6-spin ring with a bias; brute-force the true ground energy.
  IsingModel model;
  model.h = {0.3, -0.2, 0.1, 0.25, -0.15, 0.05};
  for (std::uint32_t i = 0; i < 6; ++i) {
    model.j.emplace_back(std::min(i, (i + 1) % 6u), std::max(i, (i + 1) % 6u),
                         i % 2 == 0 ? 1.0 : -1.0);
  }
  double ground = 1e300;
  for (std::uint32_t bits = 0; bits < 64; ++bits) {
    std::vector<bool> s(6);
    for (std::size_t q = 0; q < 6; ++q) s[q] = (bits >> q) & 1u;
    ground = std::min(ground, model.energy(s));
  }

  const PackedIsing packed(model);
  PackedWorkspace workspace(packed);
  workspace.load_clean();
  TemperingOptions options;
  options.num_replicas = 4;
  options.num_sweeps = 256;
  options.exchange_interval = 8;
  Rng rng(5);
  const PackedState& best = workspace.anneal(options, rng);
  EXPECT_NEAR(best.energy + model.offset, ground, 1e-9);
}

TEST(PackedKernel, AnnealIsDeterministicForFixedSeed) {
  Rng gen(11);
  const IsingModel model = random_embedded_ising(30, gen);
  const PackedIsing packed(model);
  TemperingOptions options;
  options.num_replicas = 8;
  options.num_sweeps = 512;

  PackedWorkspace w1(packed), w2(packed);
  w1.load_clean();
  w2.load_clean();
  Rng r1(99), r2(99);
  const PackedState& a = w1.anneal(options, r1);
  const std::vector<bool> sa = spins_of(a, model.num_spins());
  const double ea = a.energy;
  const PackedState& b = w2.anneal(options, r2);
  EXPECT_EQ(sa, spins_of(b, model.num_spins()));
  EXPECT_EQ(ea, b.energy);
}

// ------------------------------------------------------- Beta schedule

TEST(BetaSchedule, HitsBothEndpointsExactly) {
  AnnealParams params;
  params.num_sweeps = 1024;
  params.beta_initial = 0.05;
  params.beta_final = 6.0;
  const std::vector<double> betas = beta_schedule(params);
  ASSERT_EQ(betas.size(), 1024u);
  // Exact equality is the point of the fix: the old cumulative
  // multiplication drifted off beta_final on the last sweep.
  EXPECT_EQ(betas.front(), params.beta_initial);
  EXPECT_EQ(betas.back(), params.beta_final);
  for (std::size_t i = 1; i < betas.size(); ++i) {
    EXPECT_GE(betas[i], betas[i - 1]);
  }
}

TEST(BetaSchedule, SingleSweepAnnealsColdNotHot) {
  // Regression: a one-sweep schedule used to run at beta_initial (never
  // annealed); it must run at beta_final.
  AnnealParams params;
  params.num_sweeps = 1;
  params.beta_initial = 0.1;
  params.beta_final = 8.0;
  const std::vector<double> betas = beta_schedule(params);
  ASSERT_EQ(betas.size(), 1u);
  EXPECT_EQ(betas[0], params.beta_final);
}

TEST(BetaSchedule, TemperingLadderEndpointsExact) {
  TemperingOptions options;
  options.num_replicas = 8;
  options.beta_initial = 0.05;
  options.beta_final = 6.0;
  const std::vector<double> ladder = tempering_ladder(options);
  ASSERT_EQ(ladder.size(), 8u);
  EXPECT_EQ(ladder.front(), options.beta_initial);
  EXPECT_EQ(ladder.back(), options.beta_final);
  options.num_replicas = 1;
  const std::vector<double> single = tempering_ladder(options);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], options.beta_final);
}

// --------------------------------------------------- Fused QAOA kernel

TEST(FusedDiagonal, MatchesPerGateApplicationOnRandomCircuits) {
  Rng rng(404);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 9;
    const IsingModel model = random_embedded_ising(n, rng);
    const std::size_t p = 1 + static_cast<std::size_t>(trial) % 3;
    std::vector<double> params(2 * p);
    for (double& v : params) v = rng.uniform(-1.5, 1.5);

    // Per-gate reference: H layer + RZZ/RZ cost + RX mixer, gate by gate.
    const Circuit circuit = build_qaoa_circuit(model, params);
    StateVector reference(n);
    circuit.run(reference);

    StateVector fused(n);
    DiagonalCost cost(model, n);
    cost.evolve_qaoa(fused, params);

    ASSERT_EQ(reference.dimension(), fused.dimension());
    for (std::uint64_t z = 0; z < reference.dimension(); ++z) {
      EXPECT_NEAR(std::abs(reference.amplitude(z) - fused.amplitude(z)), 0.0,
                  1e-12)
          << "trial " << trial << " basis " << z;
    }
  }
}

TEST(FusedDiagonal, TableIsTheIsingEnergyWithoutOffset) {
  Rng rng(8);
  const IsingModel model = random_embedded_ising(6, rng);
  const DiagonalCost cost(model, 6);
  for (std::uint64_t z = 0; z < 64; ++z) {
    std::vector<bool> s(6);
    for (std::size_t q = 0; q < 6; ++q) s[q] = (z >> q) & 1u;
    EXPECT_NEAR(cost.energy(z) + model.offset, model.energy(s), 1e-12);
  }
}

TEST(FusedDiagonal, DeepCircuitNormStaysWithinTolerance) {
  // Satellite bugfix: deep-p QAOA (p = 10) must keep ||psi||^2 within 1e-9
  // of 1 — the fused path renormalizes, and even the per-gate path must not
  // drift past the tolerance.
  Rng rng(91);
  const IsingModel model = random_embedded_ising(10, rng);
  std::vector<double> params(20);
  for (double& v : params) v = rng.uniform(-1.2, 1.2);

  StateVector fused(10);
  const DiagonalCost cost(model, 10);
  cost.evolve_qaoa(fused, params);
  EXPECT_NEAR(fused.norm(), 1.0, 1e-9);

  const Circuit circuit = build_qaoa_circuit(model, params);
  StateVector reference(10);
  circuit.run(reference);
  EXPECT_NEAR(reference.norm(), 1.0, 1e-9);
}

TEST(FusedDiagonal, CostLayerPhaseSignMatchesEvolutionConvention) {
  // Regression for the rz sign bug: the builders emitted rz(+2*gamma*h),
  // which evolves under -sum h_i s_i instead of +sum h_i s_i whenever the
  // model mixes fields and couplers. For H = h*s on one qubit with beta = 0
  // the state must be e^{-i*gamma*E(z)} per basis state, i.e.
  // arg(amp(1)) - arg(amp(0)) = -gamma*(E(1) - E(0)) = -2*gamma*h.
  IsingModel model;
  model.h = {0.7};
  const double gamma = 0.6;
  const Circuit circuit = build_qaoa_circuit(model, {gamma, 0.0});
  StateVector state(1);
  circuit.run(state);
  const double phase =
      std::arg(state.amplitude(1)) - std::arg(state.amplitude(0));
  EXPECT_NEAR(phase, -2.0 * gamma * model.h[0], 1e-12);

  StateVector fused(1);
  const DiagonalCost cost(model, 1);
  cost.evolve_qaoa(fused, {gamma, 0.0});
  EXPECT_NEAR(std::arg(fused.amplitude(1)) - std::arg(fused.amplitude(0)),
              -2.0 * gamma * model.h[0], 1e-12);
}

TEST(FusedDiagonal, RxLayerMatchesPerQubitRx) {
  Rng rng(55);
  const std::size_t n = 7;
  StateVector a(n), b(n);
  a.fill_uniform();
  b.fill_uniform();
  const double theta = 0.73;
  a.rx_layer(theta);
  for (std::size_t q = 0; q < n; ++q) b.rx(q, theta);
  for (std::uint64_t z = 0; z < a.dimension(); ++z) {
    EXPECT_NEAR(std::abs(a.amplitude(z) - b.amplitude(z)), 0.0, 1e-13);
  }
}

TEST(FusedDiagonal, FillUniformMatchesHadamardLayer) {
  const std::size_t n = 9;
  StateVector a(n), b(n);
  a.fill_uniform();
  for (std::size_t q = 0; q < n; ++q) b.h(q);
  for (std::uint64_t z = 0; z < a.dimension(); ++z) {
    EXPECT_NEAR(std::abs(a.amplitude(z) - b.amplitude(z)), 0.0, 1e-12);
  }
  EXPECT_NEAR(a.norm(), 1.0, 1e-12);
}

// ------------------------------ Bit identity of the fused QAOA layers
//
// The level-indexed cost layer and the real-arithmetic mixer must reproduce
// the per-state std::polar product and the complex-arithmetic butterfly they
// replaced bit for bit, so the optimizer takes the same path and every
// same-seed sample is unchanged. Each reference is computed here, by this
// toolchain, so no result is pinned across compilers.

// E(z) summed in DiagonalCost's order: fields by index, then couplers in
// list order, zero terms skipped.
double energy_in_table_order(const IsingModel& model, std::uint64_t z) {
  double e = 0.0;
  for (std::size_t q = 0; q < model.h.size(); ++q) {
    if (model.h[q] == 0.0) continue;
    e += ((z >> q) & 1u) != 0 ? model.h[q] : -model.h[q];
  }
  for (const auto& [a, b, w] : model.j) {
    if (w == 0.0) continue;
    e += ((z >> a) & 1u) != ((z >> b) & 1u) ? -w : w;
  }
  return e;
}

void reference_cost_layer(StateVector& state, const IsingModel& model,
                          double gamma) {
  const auto amps = state.amplitudes();
  for (std::uint64_t z = 0; z < amps.size(); ++z) {
    amps[z] *= std::polar(1.0, -gamma * energy_in_table_order(model, z));
  }
}

void reference_rx_layer(StateVector& state, double theta) {
  const double c = std::cos(theta / 2);
  const StateVector::Amplitude ms(0.0, -std::sin(theta / 2));
  const auto amps = state.amplitudes();
  for (std::size_t q = 0; q < state.num_qubits(); ++q) {
    const std::uint64_t stride = 1ull << q;
    for (std::uint64_t lo = 0; lo < amps.size(); ++lo) {
      if ((lo & stride) != 0) continue;
      const StateVector::Amplitude a0 = amps[lo];
      const StateVector::Amplitude a1 = amps[lo | stride];
      amps[lo] = c * a0 + ms * a1;
      amps[lo | stride] = ms * a0 + c * a1;
    }
  }
}

bool same_bits(const StateVector& a, const StateVector& b) {
  return a.dimension() == b.dimension() &&
         std::memcmp(a.amplitudes().data(), b.amplitudes().data(),
                     a.dimension() * sizeof(StateVector::Amplitude)) == 0;
}

// Every real and imaginary part nonzero, so no product in either form is an
// exact zero, whose sign is the one thing the two mixers may disagree on.
StateVector dense_random_state(std::size_t n, Rng& rng) {
  StateVector state(n);
  const auto part = [&rng] {
    const double v = rng.uniform(0.05, 1.0);
    return rng.bernoulli(0.5) ? v : -v;
  };
  for (StateVector::Amplitude& a : state.amplitudes()) {
    const double re = part();
    a = {re, part()};
  }
  return state;
}

// Random real coefficients on every field and pair: every basis state gets
// its own energy level.
IsingModel dense_random_ising(std::size_t n, Rng& rng) {
  IsingModel model;
  model.h.resize(n);
  for (double& h : model.h) h = rng.uniform(-1.0, 1.0);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a + 1; b < n; ++b) {
      model.j.emplace_back(a, b, rng.uniform(-1.0, 1.0));
    }
  }
  return model;
}

// The Ising forms of compiled max-cut and vertex-cover programs on 10, 13
// and 16 variables, whose states share few energy levels.
std::vector<IsingModel> compiled_program_isings() {
  Rng rng(1313);
  std::vector<IsingModel> out;
  for (std::size_t n = 10; n <= 16; n += 3) {
    const Graph graph = random_connected_gnm(n, 2 * n, rng);
    for (const Env& env :
         {MaxCutProblem{graph}.encode(), VertexCoverProblem{graph}.encode()}) {
      const CompiledQubo compiled = compile(env);
      EXPECT_EQ(compiled.num_qubo_vars(), n);
      out.push_back(qubo_to_ising(compiled.qubo));
    }
  }
  return out;
}

// DiagonalCost's energies and one cost layer against the per-state forms.
void expect_cost_layer_bit_identical(const IsingModel& model, Rng& rng) {
  const std::size_t n = model.num_spins();
  const DiagonalCost cost(model, n);
  std::size_t energy_mismatches = 0;
  for (std::uint64_t z = 0; z < (1ull << n); ++z) {
    energy_mismatches += std::bit_cast<std::uint64_t>(cost.energy(z)) !=
                         std::bit_cast<std::uint64_t>(
                             energy_in_table_order(model, z));
  }
  EXPECT_EQ(energy_mismatches, 0u) << n << " qubits";
  for (const double gamma : {0.8, -1.37, 2.9}) {
    StateVector fused = dense_random_state(n, rng);
    StateVector reference = fused;
    cost.apply(fused, gamma);
    reference_cost_layer(reference, model, gamma);
    EXPECT_TRUE(same_bits(fused, reference))
        << n << " qubits, gamma " << gamma;
  }
}

TEST(FusedDiagonal, CostLayerBitIdenticalWhenEveryStateIsItsOwnLevel) {
  Rng rng(2718);
  for (const std::size_t n : {1u, 3u, 8u, 12u}) {
    const IsingModel model = dense_random_ising(n, rng);
    EXPECT_EQ(DiagonalCost(model, n).num_levels(), std::size_t{1} << n);
    expect_cost_layer_bit_identical(model, rng);
  }
}

TEST(FusedDiagonal, CostLayerBitIdenticalOnCompiledPrograms) {
  Rng rng(3141);
  for (const IsingModel& model : compiled_program_isings()) {
    const std::size_t n = model.num_spins();
    // Few levels: a handful to a few hundred over 2^10..2^16 states.
    EXPECT_LT(DiagonalCost(model, n).num_levels(), (std::size_t{1} << n) / 4);
    expect_cost_layer_bit_identical(model, rng);
  }
}

TEST(FusedDiagonal, CostLayerKeepsLevelsThatDifferInTheLastBit) {
  // Decimal coefficients: states whose energies agree in exact arithmetic
  // round apart in floating point (0.1 + 0.2 != 0.3), so only equal bit
  // patterns may share a level.
  IsingModel model;
  model.h = {0.1, 0.2, 0.3, 0.6, 0.7};
  model.j = {{0, 1, 0.1}, {1, 2, 0.2}, {2, 3, 0.3}, {3, 4, 0.4}, {0, 4, 0.5}};
  Rng rng(4);
  expect_cost_layer_bit_identical(model, rng);
}

TEST(FusedDiagonal, RxLayerBitIdenticalToComplexForm) {
  Rng rng(1618);
  for (const std::size_t n : {1u, 2u, 13u, 16u}) {
    for (const double theta : {0.73, -2.2, 3.05}) {
      StateVector fused = dense_random_state(n, rng);
      StateVector reference = fused;
      fused.rx_layer(theta);
      reference_rx_layer(reference, theta);
      EXPECT_TRUE(same_bits(fused, reference))
          << n << " qubits, theta " << theta;
    }
  }
}

TEST(FusedDiagonal, EvolveAndSampleDrawTheReferenceShots) {
  // One OpenMP thread: both compositions end in renormalize(), whose norm()
  // reduction adds the per-thread partial sums in completion order, so on
  // a wider team two identical states can scale apart in the last bit.
  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  Rng gen(577);
  std::vector<IsingModel> models = compiled_program_isings();
  models.push_back(dense_random_ising(11, gen));
  for (const IsingModel& model : models) {
    const std::size_t n = model.num_spins();
    const std::vector<double> params = {0.8, 0.4, -0.35, 1.1};
    StateVector fused(n);
    DiagonalCost(model, n).evolve_qaoa(fused, params);

    StateVector reference(n);
    reference.fill_uniform();
    for (std::size_t layer = 0; layer < params.size() / 2; ++layer) {
      reference_cost_layer(reference, model, params[2 * layer]);
      reference_rx_layer(reference, 2.0 * params[2 * layer + 1]);
    }
    reference.renormalize();

    // Only the sign of an exact zero may differ, and no probability
    // depends on it.
    EXPECT_EQ(fused.probabilities(), reference.probabilities()) << n;
    Rng a(99), b(99);
    EXPECT_EQ(fused.sample(512, a), reference.sample(512, b)) << n;
  }
  omp_set_num_threads(saved);
}

// ------------------------------------------- Sampler determinism contract

struct SamplerFixture {
  IsingModel logical;
  EmbeddedProblem problem;

  SamplerFixture() {
    logical.h = {-0.5, -0.5, -0.5, 0.25};
    logical.j = {{0, 1, -1.0}, {0, 2, -1.0}, {1, 2, -1.0}, {2, 3, 0.75}};
    const Graph logical_graph = complete_graph(4);
    const Graph physical = pegasus_graph(2);
    Rng rng(7);
    const auto embedding = find_embedding(logical_graph, physical, rng);
    EXPECT_TRUE(embedding.has_value());
    problem = embed_ising(logical, *embedding, physical);
  }
};

bool reads_identical(const AnnealSampleResult& a, const AnnealSampleResult& b) {
  if (a.reads.size() != b.reads.size()) return false;
  for (std::size_t i = 0; i < a.reads.size(); ++i) {
    const AnnealRead& x = a.reads[i];
    const AnnealRead& y = b.reads[i];
    if (x.read_index != y.read_index || x.logical != y.logical ||
        x.logical_energy != y.logical_energy ||
        x.chain_breaks != y.chain_breaks || x.chain_ties != y.chain_ties) {
      return false;
    }
  }
  return true;
}

TEST(SamplerDeterminism, ResultsIdenticalAcrossThreadCounts) {
  // Satellite bugfix audit: every read draws from an independently split
  // per-read stream, so 1-thread and 8-thread runs must be bit-identical
  // (the PR 4 contract). This pins the property against future kernels.
  const SamplerFixture fx;
  AnnealerSamplerOptions options;
  options.num_reads = 24;
  options.num_sweeps = 256;

  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  Rng rng1(1234);
  const auto single = sample_annealer(fx.logical, fx.problem, options, rng1);
  omp_set_num_threads(8);
  Rng rng8(1234);
  const auto eight = sample_annealer(fx.logical, fx.problem, options, rng8);
  omp_set_num_threads(saved);

  EXPECT_TRUE(reads_identical(single, eight));
}

TEST(SamplerDeterminism, PostprocessDoesNotPerturbOtherReads) {
  // Satellite bugfix audit: chain-tie coin flips come from the same
  // per-read stream as the read itself, and postprocessing consumes no
  // randomness — so enabling postprocess must leave every read's
  // pre-postprocess sample (and its unembedding decisions) unchanged, and
  // only apply a deterministic greedy descent on top.
  const SamplerFixture fx;
  AnnealerSamplerOptions options;
  options.num_reads = 32;
  options.num_sweeps = 256;
  options.postprocess = false;

  Rng rng_off(4321);
  const auto off = sample_annealer(fx.logical, fx.problem, options, rng_off);
  options.postprocess = true;
  Rng rng_on(4321);
  const auto on = sample_annealer(fx.logical, fx.problem, options, rng_on);

  ASSERT_EQ(off.reads.size(), on.reads.size());
  std::map<std::size_t, const AnnealRead*> by_index;
  for (const AnnealRead& read : on.reads) by_index[read.read_index] = &read;

  const Qubo logical_qubo = ising_to_qubo(fx.logical);
  for (const AnnealRead& raw : off.reads) {
    ASSERT_TRUE(by_index.count(raw.read_index));
    const AnnealRead& cooked = *by_index[raw.read_index];
    // Unembedding decisions identical: same chain stats per read.
    EXPECT_EQ(raw.chain_breaks, cooked.chain_breaks);
    EXPECT_EQ(raw.chain_ties, cooked.chain_ties);
    // The postprocessed sample is exactly the greedy descent of the raw one.
    EXPECT_EQ(cooked.logical, greedy_descent(logical_qubo, raw.logical).x);
    EXPECT_LE(cooked.logical_energy, raw.logical_energy + 1e-12);
  }
}

TEST(SamplerDeterminism, RepeatedRunsAreBitIdentical) {
  const SamplerFixture fx;
  AnnealerSamplerOptions options;
  options.num_reads = 16;
  options.num_sweeps = 128;
  Rng a(777), b(777);
  EXPECT_TRUE(reads_identical(sample_annealer(fx.logical, fx.problem, options, a),
                              sample_annealer(fx.logical, fx.problem, options, b)));
}

TEST(SamplerDeterminism, SingleReplicaPathStillDeterministic) {
  const SamplerFixture fx;
  AnnealerSamplerOptions options;
  options.num_reads = 8;
  options.num_sweeps = 128;
  options.num_replicas = 1;
  Rng a(31), b(31);
  EXPECT_TRUE(reads_identical(sample_annealer(fx.logical, fx.problem, options, a),
                              sample_annealer(fx.logical, fx.problem, options, b)));
}

}  // namespace
}  // namespace nck
