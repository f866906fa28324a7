// Golden and regression tests for the hardware-fast hot loops: the
// lockstep parallel-tempering annealer (anneal/packed.hpp) against the
// scalar IsingModel energy and, bit for bit, against the per-read loop it
// replaced, the fused diagonal QAOA kernel
// (circuit/diagonal.hpp) against per-gate application and, bit for bit,
// against the per-state phase and complex-arithmetic mixer it replaced, the
// QAOA shot pipeline (bitmask shots, the noise channel, FlatQubo) against
// the std::vector<bool> loop it replaced and pinned solve digests, the
// beta-schedule endpoint fix, the deep-p norm-drift fix, and the sampler's
// per-read RNG determinism contract (thread-count invariance, postprocess
// isolation).
#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "anneal/embedded_ising.hpp"
#include "anneal/embedding.hpp"
#include "anneal/packed.hpp"
#include "anneal/sampler.hpp"
#include "anneal/topology.hpp"
#include "circuit/circuit.hpp"
#include "circuit/coupling.hpp"
#include "circuit/diagonal.hpp"
#include "circuit/qaoa.hpp"
#include "circuit/statevector.hpp"
#include "core/compile.hpp"
#include "graph/generators.hpp"
#include "problems/max_cut.hpp"
#include "problems/vertex_cover.hpp"
#include "qubo/heuristic.hpp"
#include "qubo/ising.hpp"
#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace nck {
namespace {

// ----------------------------------------------- Per-read reference loop
//
// The annealer as it ran before the lockstep kernel, one read at a time:
// bit-packed spins, incrementally maintained fields, parallel tempering
// over a rung -> replica map, std::exp on every uphill proposal, and the
// per-read readout / unembed / postprocess loop of sample_annealer. The
// kernel must reproduce every read of it bit for bit.
namespace reference {

struct State {
  std::vector<std::uint64_t> words;
  std::vector<double> field;
  double energy = 0.0;

  bool up(std::size_t i) const noexcept {
    return ((words[i >> 6] >> (i & 63)) & 1u) != 0;
  }
  void toggle(std::size_t i) noexcept { words[i >> 6] ^= 1ull << (i & 63); }
};

class Workspace {
 public:
  explicit Workspace(const PackedIsing& packed)
      : packed_(&packed),
        h_(packed.num_spins(), 0.0),
        jw_(packed.num_couplers(), 0.0),
        w_(packed.neighbors.size(), 0.0),
        gauge_(packed.num_words(), 0) {}

  void load_program(bool gauge_enabled, double sigma, double scale,
                    Rng& rng) {
    const std::size_t n = packed_->num_spins();
    std::fill(gauge_.begin(), gauge_.end(), 0);
    if (gauge_enabled) {
      for (std::size_t q = 0; q < n; ++q) {
        if (rng.bernoulli(0.5)) gauge_[q >> 6] |= 1ull << (q & 63);
      }
    }
    const double inv = scale > 0.0 ? 1.0 / scale : 1.0;
    for (std::size_t q = 0; q < n; ++q) {
      double v = gauge_bit(q) ? -packed_->h[q] : packed_->h[q];
      if (sigma > 0.0) v += rng.gaussian(0.0, sigma);
      h_[q] = v * inv;
    }
    for (std::size_t c = 0; c < jw_.size(); ++c) {
      const PackedIsing::Coupler& cp = packed_->couplers[c];
      double v = gauge_bit(cp.a) != gauge_bit(cp.b) ? -cp.weight : cp.weight;
      if (sigma > 0.0) v += rng.gaussian(0.0, sigma);
      jw_[c] = v * inv;
    }
    for (std::size_t k = 0; k < w_.size(); ++k) {
      w_[k] = jw_[packed_->coupler_of[k]];
    }
  }

  void refresh(State& state) const {
    double e = 0.0;
    for (std::size_t i = 0; i < h_.size(); ++i) {
      state.field[i] = h_[i];
      e += state.up(i) ? h_[i] : -h_[i];
    }
    for (std::size_t c = 0; c < jw_.size(); ++c) {
      const PackedIsing::Coupler& cp = packed_->couplers[c];
      const double sa = state.up(cp.a) ? 1.0 : -1.0;
      const double sb = state.up(cp.b) ? 1.0 : -1.0;
      const double w = jw_[c];
      e += w * sa * sb;
      state.field[cp.a] += w * sb;
      state.field[cp.b] += w * sa;
    }
    state.energy = e;
  }

  void randomize(State& state, Rng& rng) const {
    const std::size_t n = h_.size();
    for (std::uint64_t& word : state.words) word = rng();
    if ((n & 63) != 0 && !state.words.empty()) {
      state.words.back() &= (1ull << (n & 63)) - 1;
    }
  }

  void sweep(State& state, double beta, Rng& rng) const {
    for (std::size_t i = 0; i < h_.size(); ++i) {
      const double s = state.up(i) ? 1.0 : -1.0;
      const double d = -2.0 * s * state.field[i];
      if (d <= 0.0 || rng.uniform() < std::exp(-beta * d)) flip(state, i, s, d);
    }
  }

  void descend(State& state) const {
    bool improved = true;
    while (improved) {
      improved = false;
      for (std::size_t i = 0; i < h_.size(); ++i) {
        const double s = state.up(i) ? 1.0 : -1.0;
        const double d = -2.0 * s * state.field[i];
        if (d < -Qubo::kEps) {
          flip(state, i, s, d);
          improved = true;
        }
      }
    }
  }

  const State& anneal(std::size_t num_replicas, std::size_t num_sweeps,
                      Rng& rng) {
    num_replicas = std::max<std::size_t>(1, num_replicas);
    replicas_.assign(num_replicas, State{});
    for (State& r : replicas_) {
      r.words.resize(packed_->num_words());
      r.field.resize(h_.size());
    }
    std::vector<std::size_t> order(num_replicas);
    std::iota(order.begin(), order.end(), std::size_t{0});
    const std::vector<double> ladder = tempering_ladder(num_replicas);
    for (State& r : replicas_) {
      randomize(r, rng);
      refresh(r);
    }
    const std::size_t per_replica =
        std::max<std::size_t>(1, num_sweeps / num_replicas);
    if (num_replicas == 1) {
      for (double beta : beta_schedule(per_replica)) {
        sweep(replicas_[0], beta, rng);
      }
      descend(replicas_[0]);
      return replicas_[0];
    }
    std::size_t done = 0;
    std::size_t parity = 0;
    while (done < per_replica) {
      const std::size_t block =
          std::min(kExchangeInterval, per_replica - done);
      for (std::size_t t = 0; t < num_replicas; ++t) {
        for (std::size_t s = 0; s < block; ++s) {
          sweep(replicas_[order[t]], ladder[t], rng);
        }
      }
      done += block;
      if (done >= per_replica) break;
      for (std::size_t t = parity; t + 1 < num_replicas; t += 2) {
        const double d = (ladder[t] - ladder[t + 1]) *
                         (replicas_[order[t]].energy -
                          replicas_[order[t + 1]].energy);
        const double u = rng.uniform();
        if (d >= 0.0 || u < std::exp(d)) std::swap(order[t], order[t + 1]);
      }
      parity ^= 1;
    }
    State& best = replicas_[order[num_replicas - 1]];
    descend(best);
    return best;
  }

  bool gauge_bit(std::size_t i) const noexcept {
    return ((gauge_[i >> 6] >> (i & 63)) & 1u) != 0;
  }

 private:
  void flip(State& state, std::size_t i, double s_old, double d) const {
    state.toggle(i);
    state.energy += d;
    const double shift = -2.0 * s_old;
    for (std::uint32_t k = packed_->offsets[i]; k < packed_->offsets[i + 1];
         ++k) {
      state.field[packed_->neighbors[k]] += shift * w_[k];
    }
  }

  const PackedIsing* packed_;
  std::vector<double> h_;
  std::vector<double> jw_;
  std::vector<double> w_;
  std::vector<std::uint64_t> gauge_;
  std::vector<State> replicas_;
};

double max_abs_coefficient(const IsingModel& ising) {
  double m = 0.0;
  for (double h : ising.h) m = std::max(m, std::abs(h));
  for (const auto& [a, b, c] : ising.j) m = std::max(m, std::abs(c));
  return m;
}

// sample_annealer's per-read loop, serial (reads are independent).
AnnealSampleResult sample(const IsingModel& logical,
                          const EmbeddedProblem& problem,
                          const AnnealerSamplerOptions& options, Rng& rng) {
  AnnealSampleResult result;
  result.reads.resize(options.num_reads);
  const double scale = max_abs_coefficient(problem.ising);
  const double sigma = options.ice_sigma * scale;
  std::vector<Rng> streams;
  for (std::size_t r = 0; r < options.num_reads; ++r) {
    streams.push_back(rng.split());
  }
  const PackedIsing packed(problem.ising);
  const Qubo logical_qubo =
      options.postprocess ? ising_to_qubo(logical) : Qubo();
  Workspace workspace(packed);
  std::vector<bool> physical(packed.num_spins());
  for (std::size_t r = 0; r < options.num_reads; ++r) {
    Rng& stream = streams[r];
    workspace.load_program(options.spin_reversal_transform, sigma, scale,
                           stream);
    const State& best =
        workspace.anneal(options.num_replicas, options.num_sweeps, stream);
    for (std::size_t q = 0; q < physical.size(); ++q) {
      bool bit = best.up(q);
      if (stream.bernoulli(options.readout_error)) bit = !bit;
      if (workspace.gauge_bit(q)) bit = !bit;
      physical[q] = bit;
    }
    AnnealRead& read = result.reads[r];
    read.read_index = r;
    UnembedStats unembed_stats;
    read.logical = unembed_sample(physical, problem, &unembed_stats, &stream);
    read.chain_breaks = unembed_stats.chain_breaks;
    read.chain_ties = unembed_stats.ties;
    if (options.postprocess) {
      read.logical =
          options.postprocess_tabu_iters > 0
              ? tabu_search(logical_qubo, read.logical,
                            options.postprocess_tabu_iters)
                    .x
              : greedy_descent(logical_qubo, read.logical).x;
    }
    read.logical_energy = logical.energy(read.logical);
  }
  std::stable_sort(result.reads.begin(), result.reads.end(),
                   [](const AnnealRead& a, const AnnealRead& b) {
                     return a.logical_energy < b.logical_energy;
                   });
  return result;
}

}  // namespace reference

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

// The widths this host runs: 1 always, 4 with AVX2.
std::vector<std::size_t> host_widths() {
  std::vector<std::size_t> widths = {1};
  if (lockstep_lanes() == 4) widths.push_back(4);
  return widths;
}

// The mixer widths this host runs: 1 amplitude per vector always, 2 with
// AVX2.
std::vector<std::size_t> mixer_widths() {
  std::vector<std::size_t> widths = {1};
  if (mixer_lanes() == 2) widths.push_back(2);
  return widths;
}

// The OpenMP team sizes that every thread-count comparison here runs; 8
// oversubscribes a 4-core host. Only 1 under ThreadSanitizer: GCC's libgomp
// is not TSan-instrumented, so every access across its fork/join barriers
// would read as a race.
std::vector<int> team_sizes() {
#if defined(__SANITIZE_THREAD__)
  return {1};
#else
  return {1, 4, 8};
#endif
}

// Anneals one read of `model`'s clean program per stream on `lanes`
// lanes, from streams seeded seed, seed + 1, ...
void anneal_clean(LockstepWorkspace& workspace, std::size_t num_replicas,
                  std::size_t num_sweeps, std::uint64_t seed) {
  std::vector<Rng> streams;
  for (std::size_t l = 0; l < workspace.lanes(); ++l) {
    streams.emplace_back(seed + l);
  }
  workspace.anneal(streams, ReadProgram{}, num_replicas, num_sweeps);
}

std::vector<bool> lane_spins(const LockstepWorkspace& workspace,
                             std::size_t lane, std::size_t n) {
  std::vector<bool> spins(n);
  for (std::size_t i = 0; i < n; ++i) spins[i] = workspace.up(lane, i);
  return spins;
}

// ------------------------------------------------- Packed energy goldens

TEST(PackedKernel, EnergyAndDeltasMatchScalarModelOn200RandomProblems) {
  // The kernel's tracked energy and incrementally maintained fields of the
  // final state against the scalar model: energy plus offset is the model
  // energy, and -2 s_i field_i is the model's change for flipping spin i.
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial) % 39;
    const IsingModel model = random_embedded_ising(n, rng);
    const PackedIsing packed(model);
    const std::size_t num_replicas = 1 + static_cast<std::size_t>(trial) % 4;
    for (const std::size_t width : host_widths()) {
      LockstepWorkspace workspace(packed, width);
      anneal_clean(workspace, num_replicas, 32, rng());
      for (std::size_t lane = 0; lane < width; ++lane) {
        const std::vector<bool> spins = lane_spins(workspace, lane, n);
        const double before = model.energy(spins);
        EXPECT_NEAR(workspace.energy(lane) + model.offset, before, 1e-9)
            << "trial " << trial << " lane " << lane;
        for (std::size_t i = 0; i < n; ++i) {
          std::vector<bool> flipped = spins;
          flipped[i] = !flipped[i];
          const double s = spins[i] ? 1.0 : -1.0;
          EXPECT_NEAR(model.energy(flipped) - before,
                      -2.0 * s * workspace.field(lane, i), 1e-9)
              << "trial " << trial << " lane " << lane << " spin " << i;
        }
      }
    }
  }
}

TEST(PackedKernel, SweepAndDescendKeepTrackedEnergyConsistent) {
  // After 8-replica tempering and the final descent, each lane's tracked
  // energy is the model's and no single flip lowers it past the descent's
  // tolerance.
  Rng rng(77);
  const IsingModel model = random_embedded_ising(24, rng);
  const PackedIsing packed(model);
  for (const std::size_t width : host_widths()) {
    LockstepWorkspace workspace(packed, width);
    anneal_clean(workspace, 8, 256, 5);
    for (std::size_t lane = 0; lane < width; ++lane) {
      const std::vector<bool> spins =
          lane_spins(workspace, lane, model.num_spins());
      EXPECT_NEAR(workspace.energy(lane) + model.offset, model.energy(spins),
                  1e-9);
      for (std::size_t i = 0; i < model.num_spins(); ++i) {
        const double s = spins[i] ? 1.0 : -1.0;
        EXPECT_GE(-2.0 * s * workspace.field(lane, i), -Qubo::kEps);
      }
    }
  }
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

  // Each read ends as a sample of the coldest rung, where the 0.3-unit
  // excitation survives in about one read in seven, so this asks what the
  // sampler asks of its reads: the best of eight is the ground state, and
  // none goes below it.
  const PackedIsing packed(model);
  for (const std::size_t width : host_widths()) {
    LockstepWorkspace workspace(packed, width);
    double best = std::numeric_limits<double>::infinity();
    for (std::uint64_t seed = 5; seed < 13; seed += width) {
      anneal_clean(workspace, 4, 256, seed);
      for (std::size_t lane = 0; lane < width; ++lane) {
        const double energy = workspace.energy(lane) + model.offset;
        EXPECT_GE(energy, ground - 1e-9);
        best = std::min(best, energy);
      }
    }
    EXPECT_NEAR(best, ground, 1e-9) << width << " lanes";
  }
}

TEST(PackedKernel, AnnealIsDeterministicForFixedSeed) {
  Rng gen(11);
  const IsingModel model = random_embedded_ising(30, gen);
  const PackedIsing packed(model);
  for (const std::size_t width : host_widths()) {
    LockstepWorkspace w1(packed, width), w2(packed, width);
    anneal_clean(w1, 8, 512, 99);
    anneal_clean(w2, 8, 512, 99);
    for (std::size_t lane = 0; lane < width; ++lane) {
      EXPECT_EQ(lane_spins(w1, lane, model.num_spins()),
                lane_spins(w2, lane, model.num_spins()));
      EXPECT_EQ(w1.energy(lane), w2.energy(lane));
    }
  }
}

// ------------------------------------------------------- Beta schedule

TEST(BetaSchedule, HitsBothEndpointsExactly) {
  const std::vector<double> betas = beta_schedule(1024);
  ASSERT_EQ(betas.size(), 1024u);
  // Exact equality is the point of the fix: the old cumulative
  // multiplication drifted off the final beta on the last sweep.
  EXPECT_EQ(betas.front(), kBetaInitial);
  EXPECT_EQ(betas.back(), kBetaFinal);
  for (std::size_t i = 1; i < betas.size(); ++i) {
    EXPECT_GE(betas[i], betas[i - 1]);
  }
}

TEST(BetaSchedule, SingleSweepAnnealsColdNotHot) {
  // Regression: a one-sweep schedule used to run at the initial beta
  // (never annealed); it must run at the final one.
  const std::vector<double> betas = beta_schedule(1);
  ASSERT_EQ(betas.size(), 1u);
  EXPECT_EQ(betas[0], kBetaFinal);
}

TEST(BetaSchedule, TemperingLadderEndpointsExact) {
  const std::vector<double> ladder = tempering_ladder(8);
  ASSERT_EQ(ladder.size(), 8u);
  EXPECT_EQ(ladder.front(), kBetaInitial);
  EXPECT_EQ(ladder.back(), kBetaFinal);
  const std::vector<double> single = tempering_ladder(1);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], kBetaFinal);
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

// Compiled max-cut and vertex-cover programs on 10, 13 and 16 variables,
// in that order, whose states share few energy levels.
std::vector<Qubo> compiled_programs() {
  Rng rng(1313);
  std::vector<Qubo> out;
  for (std::size_t n = 10; n <= 16; n += 3) {
    const Graph graph = random_connected_gnm(n, 2 * n, rng);
    for (const Env& env :
         {MaxCutProblem{graph}.encode(), VertexCoverProblem{graph}.encode()}) {
      const CompiledQubo compiled = compile(env);
      EXPECT_EQ(compiled.num_qubo_vars(), n);
      out.push_back(compiled.qubo);
    }
  }
  return out;
}

// The Ising forms of compiled_programs().
std::vector<IsingModel> compiled_program_isings() {
  std::vector<IsingModel> out;
  for (const Qubo& qubo : compiled_programs()) {
    out.push_back(qubo_to_ising(qubo));
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
  // 1-20 qubits: within one block of the cache-blocked walk and across
  // the 11-qubit block boundary into the column tiles, at both widths and
  // every team size.
  const int saved = omp_get_max_threads();
  Rng rng(1618);
  for (std::size_t n = 1; n <= 20; ++n) {
    for (const double theta : {0.73, -2.2, 3.05}) {
      const StateVector input = dense_random_state(n, rng);
      StateVector reference = input;
      reference_rx_layer(reference, theta);
      for (const int team : team_sizes()) {
        omp_set_num_threads(team);
        for (const std::size_t width : mixer_widths()) {
          StateVector fused = input;
          fused.rx_layer(theta, width);
          EXPECT_TRUE(same_bits(fused, reference))
              << n << " qubits, theta " << theta << ", " << width
              << " amplitudes per vector, " << team << " threads";
        }
      }
    }
  }
  omp_set_num_threads(saved);
  if (mixer_lanes() != 2) GTEST_SKIP() << "no AVX2: 2-amplitude mixer not run";
}

TEST(FusedDiagonal, UnsupportedMixerWidthIsRejected) {
  StateVector state(4);
  EXPECT_THROW(state.rx_layer(0.5, 0), std::invalid_argument);
  EXPECT_THROW(state.rx_layer(0.5, 4), std::invalid_argument);
  if (mixer_lanes() == 1) {
    EXPECT_THROW(state.rx_layer(0.5, 2), std::invalid_argument);
  }
}

TEST(FusedDiagonal, EvolveAndSampleDrawTheReferenceShots) {
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
    const std::vector<std::uint64_t> shots = reference.sample(512, b);
    EXPECT_EQ(fused.sample(512, a), shots) << n;

    // The overload that fuses the final renormalize into the CDF pass
    // leaves the same state and draws the same shots.
    StateVector with_cdf(n);
    std::vector<double> cdf;
    DiagonalCost(model, n).evolve_qaoa(with_cdf, params, cdf);
    EXPECT_TRUE(same_bits(with_cdf, fused)) << n;
    std::vector<std::uint64_t> drawn(512);
    Rng c(99);
    draw_basis_states(cdf, drawn, c);
    EXPECT_EQ(drawn, shots) << n;
  }
}

// ------------------------------------------------- QAOA shot pipeline
//
// run_qaoa_prepared and run_aoa draw each job's shots as bitmasks, pass
// them through the noise channel and score them with FlatQubo. Each must
// reproduce the std::vector<bool> loop it replaced, kept here as the
// reference.

// The noise channel as it was applied to a batch of std::vector<bool>
// shots.
void reference_apply_noise(std::vector<std::vector<bool>>& shots,
                           double fidelity, double readout_flip, Rng& rng) {
  for (auto& shot : shots) {
    if (!rng.bernoulli(fidelity)) {
      for (std::size_t i = 0; i < shot.size(); ++i) {
        shot[i] = rng.bernoulli(0.5);  // fully depolarized
      }
      continue;
    }
    if (readout_flip > 0.0) {
      for (std::size_t i = 0; i < shot.size(); ++i) {
        if (rng.bernoulli(readout_flip)) shot[i] = !shot[i];
      }
    }
  }
}

std::vector<bool> bits_of(std::uint64_t word, std::size_t n) {
  std::vector<bool> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = (word >> i) & 1u;
  return x;
}

TEST(QaoaShots, NoiseChannelMatchesTheVectorLoopOnOneStream) {
  const std::size_t n = 16;
  for (const double fidelity : {0.58, 1.0, 0.0}) {
    for (const double readout_flip : {0.012, 0.0, 0.3}) {
      NoiseModel noise;
      noise.readout_flip = readout_flip;
      Rng gen(515);
      std::vector<std::uint64_t> words(3000);
      for (std::uint64_t& w : words) w = gen() & ((1ull << n) - 1);
      std::vector<std::vector<bool>> expected;
      for (const std::uint64_t w : words) expected.push_back(bits_of(w, n));
      std::vector<std::vector<bool>> vectors = expected;

      Rng ref_rng(7), word_rng(7), vector_rng(7);
      reference_apply_noise(expected, fidelity, readout_flip, ref_rng);
      std::size_t mismatches = 0;
      for (std::size_t s = 0; s < words.size(); ++s) {
        words[s] = noise.apply(words[s], n, fidelity, word_rng);
        noise.apply(vectors[s], fidelity, vector_rng);
        mismatches += bits_of(words[s], n) != expected[s];
        mismatches += vectors[s] != expected[s];
      }
      EXPECT_EQ(mismatches, 0u)
          << "fidelity " << fidelity << ", readout " << readout_flip;
      // All three consumed the stream alike.
      const std::uint64_t next = ref_rng();
      EXPECT_EQ(word_rng(), next);
      EXPECT_EQ(vector_rng(), next);
    }
  }
  Rng rng(1);
  EXPECT_THROW(NoiseModel{}.apply(0, 65, 0.5, rng), std::invalid_argument);
}

// A random coefficient of one of the kinds compiled QUBOs and their sums
// carry: small integers, decimals that round apart, values below
// Qubo::kEps, exact and negative zeros, and wide reals.
double random_coefficient(Rng& rng) {
  switch (rng.below(6)) {
    case 0: return static_cast<double>(rng.below(9)) - 4.0;
    case 1: return 0.1 * static_cast<double>(rng.below(21)) - 1.0;
    case 2: return rng.uniform(-1.0, 1.0) * 1e-10;
    case 3: return rng.bernoulli(0.5) ? 0.0 : -0.0;
    default: return rng.uniform(-50.0, 50.0);
  }
}

TEST(QaoaShots, FlatQuboEqualsQuboEnergyBitForBitOn200RandomQubos) {
  Rng rng(6464);
  for (std::size_t t = 0; t < 200; ++t) {
    const std::size_t n = 1 + t % 16;
    Qubo qubo(n);
    if (t % 3 != 0) qubo.add_offset(random_coefficient(rng));
    for (Qubo::Var i = 0; i < n; ++i) {
      if (rng.bernoulli(0.8)) qubo.add_linear(i, random_coefficient(rng));
    }
    for (Qubo::Var i = 0; i < n; ++i) {
      for (Qubo::Var j = i + 1; j < n; ++j) {
        if (!rng.bernoulli(0.5)) continue;
        // Both orders of one pair accumulate into one stored entry.
        if (rng.bernoulli(0.5)) qubo.add_quadratic(i, j, random_coefficient(rng));
        if (rng.bernoulli(0.5)) qubo.add_quadratic(j, i, random_coefficient(rng));
      }
    }
    const FlatQubo flat(qubo);
    std::size_t mismatches = 0;
    for (std::uint64_t x = 0; x < (1ull << n); ++x) {
      const double expected = qubo.energy(bits_of(x, n));
      mismatches += std::bit_cast<std::uint64_t>(flat.energy(x)) !=
                    std::bit_cast<std::uint64_t>(expected);
    }
    EXPECT_EQ(mismatches, 0u) << "qubo " << t << ", " << n << " variables";
  }
  EXPECT_THROW(FlatQubo(Qubo(65)), std::invalid_argument);
}

// FNV-1a over a QAOA result: num_jobs, best_energy's bits, then every
// sample's bits and energy's bits in result order.
std::uint64_t digest_qaoa(const QaoaResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  mix(result.num_jobs);
  mix(std::bit_cast<std::uint64_t>(result.best_energy));
  for (std::size_t s = 0; s < result.samples.size(); ++s) {
    for (const bool bit : result.samples[s]) mix(bit ? 1u : 0u);
    mix(std::bit_cast<std::uint64_t>(result.energies[s]));
  }
  return h;
}

TEST(QaoaShots, SolvesArePinned) {
  // Digests of run_qaoa_prepared as it ran before the cache-blocked mixer,
  // the fused passes and bitmask shots: a change that moves one amplitude's
  // last bit (and with it the optimizer's path), one draw or one energy
  // fails here. Default options: 4000 shots, 32 evaluations, the default
  // noise model. Programs: compiled_programs(), max-cut and vertex cover
  // at 10, 13 and 16 variables.
  struct Case {
    std::size_t program;
    int p;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {0, 1, 0xf37c02741b6835dcull}, {1, 1, 0x786da1cdc5b8031aull},
      {2, 1, 0xa3360ff254762bbaull}, {3, 1, 0xce2f177c43ca5576ull},
      {4, 1, 0x1770e929b808b187ull}, {5, 1, 0x017fbea8f1112073ull},
      {2, 2, 0xf3c96a87b7d8f776ull},
  };
  const std::vector<Qubo> programs = compiled_programs();
  const Graph coupling = brooklyn_coupling();
  const int saved = omp_get_max_threads();
  for (const int team : team_sizes()) {
    omp_set_num_threads(team);
    for (const Case& c : cases) {
      QaoaOptions options;
      options.p = c.p;
      const Qubo& qubo = programs[c.program];
      const QaoaPrepared prepared = prepare_qaoa(qubo, coupling, options);
      Rng rng(100 + c.program);
      const QaoaResult result =
          run_qaoa_prepared(qubo, prepared, options, rng);
      EXPECT_EQ(result.mode, "statevector");
      const std::uint64_t digest = digest_qaoa(result);
      EXPECT_EQ(digest, c.digest)
          << "program " << c.program << ", p " << c.p << ", " << team
          << " threads: 0x" << std::hex << digest << std::dec;
    }
  }
  omp_set_num_threads(saved);
}

TEST(QaoaShots, TraceRecordsTheMixerWidthAndTheCostTable) {
  const std::vector<Qubo> programs = compiled_programs();
  QaoaOptions options;
  options.shots = 256;
  options.max_evaluations = 4;
  const QaoaPrepared prepared =
      prepare_qaoa(programs[0], brooklyn_coupling(), options);
  obs::Trace trace;
  Rng rng(5);
  run_qaoa_prepared(programs[0], prepared, options, rng, &trace);
  const obs::TraceData data = trace.snapshot();
  EXPECT_EQ(data.gauge("qaoa.lanes"), static_cast<double>(mixer_lanes()));
  std::size_t cost_tables = 0;
  for (const obs::SpanRecord& span : data.spans) {
    cost_tables += span.name == "qaoa.cost_table";
  }
  EXPECT_EQ(cost_tables, 1u);
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
  // per-read stream, so runs at every team size must be bit-identical
  // (the PR 4 contract). This pins the property against future kernels.
  const SamplerFixture fx;
  AnnealerSamplerOptions options;
  options.num_reads = 24;
  options.num_sweeps = 256;

  const int saved = omp_get_max_threads();
  omp_set_num_threads(1);
  Rng rng1(1234);
  const auto single = sample_annealer(fx.logical, fx.problem, options, rng1);
  for (const int team : team_sizes()) {
    omp_set_num_threads(team);
    Rng rng(1234);
    EXPECT_TRUE(reads_identical(
        single, sample_annealer(fx.logical, fx.problem, options, rng)))
        << team << " threads";
  }
  omp_set_num_threads(saved);
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

// ------------------------------------------ Lockstep kernel bit identity

// A random sampler problem: a logical Ising over k variables and a
// physical one over n qubits split into k chains. Bit identity needs no
// consistent embedding, only the sampler's inputs.
struct RandomSamplerProblem {
  IsingModel logical;
  EmbeddedProblem problem;
};

RandomSamplerProblem random_sampler_problem(std::size_t n, Rng& rng) {
  RandomSamplerProblem out;
  const std::size_t k = 1 + static_cast<std::size_t>(rng.below(n));
  out.logical = random_embedded_ising(k, rng);
  out.problem.ising = random_embedded_ising(n, rng);
  out.problem.chain.resize(k);
  for (std::uint32_t q = 0; q < n; ++q) {
    const std::size_t v = q < k ? q : static_cast<std::size_t>(rng.below(k));
    out.problem.chain[v].push_back(q);
  }
  return out;
}

TEST(LockstepKernel, BothWidthsMatchThePerReadReferenceOn200RandomProblems) {
  // 1-10 and 100 reads (partial and full groups), 1 and 8 replicas, gauge
  // on and off, sigma 0 and the default, postprocess off / descent / tabu,
  // every team size in turn; 3 to 142 qubits (one to three spin words).
  if (lockstep_lanes() != 4) {
    std::cout << "[ note ] no AVX2: only the 1-lane kernel is compared\n";
  }
  const int saved = omp_get_max_threads();
  const std::vector<int> teams = team_sizes();
  Rng rng(4242);
  for (std::size_t t = 0; t < 200; ++t) {
    const RandomSamplerProblem p =
        random_sampler_problem(3 + (t * 7) % 140, rng);
    AnnealerSamplerOptions options;
    options.num_reads = t % 11 < 10 ? 1 + t % 11 : 100;
    options.num_sweeps = 48 + 16 * (t % 5);
    options.num_replicas = t % 2 == 0 ? 8 : 1;
    options.spin_reversal_transform = (t / 2) % 2 == 0;
    options.ice_sigma = (t / 4) % 2 == 0 ? kDefaultIceSigma : 0.0;
    options.postprocess = (t / 8) % 3 != 0;
    options.postprocess_tabu_iters = (t / 8) % 3 == 2 ? 32 : 0;
    omp_set_num_threads(teams[(t / 24) % teams.size()]);
    const std::uint64_t seed = rng();

    Rng ref_rng(seed);
    const AnnealSampleResult expected =
        reference::sample(p.logical, p.problem, options, ref_rng);
    for (const std::size_t width : host_widths()) {
      Rng kernel_rng(seed);
      const AnnealSampleResult got = sample_annealer(
          p.logical, p.problem, options, kernel_rng, nullptr, width);
      EXPECT_TRUE(reads_identical(expected, got))
          << "problem " << t << ", " << width << " lanes";
      // Both consumed the master stream alike.
      Rng ref_next = ref_rng;
      EXPECT_EQ(ref_next(), kernel_rng()) << "problem " << t;
    }
  }
  omp_set_num_threads(saved);
  if (lockstep_lanes() != 4) GTEST_SKIP() << "no AVX2: 4-lane kernel not run";
}

TEST(LockstepKernel, MetropolisDecisionEqualsExpBitForBit) {
  // The kernel decides u < std::exp(-x) mostly from Taylor bounds; it must
  // agree with std::exp on every pair, on a million random ones and on the
  // edges: u == 0, x -> 0, x either side of 1, u at exp(-x) to the ulp,
  // and x past 745, where exp underflows.
  std::vector<double> u, x;
  const auto pair = [&](double uu, double xx) {
    u.push_back(uu);
    x.push_back(xx);
  };
  Rng rng(31337);
  for (int i = 0; i < 1000000; ++i) {
    double xx = 0.0;
    switch (i % 4) {
      case 0: xx = rng.uniform() * 2.0; break;
      case 1: xx = rng.uniform() * 40.0; break;
      case 2:
        xx = std::ldexp(rng.uniform(), -static_cast<int>(rng.below(60)));
        break;
      default: xx = rng.uniform() * 800.0; break;
    }
    // Half the draws sit within a few ulps of the boundary exp(-x).
    double uu = rng.uniform();
    if (i % 2 == 1) {
      uu = std::exp(-xx);
      for (std::uint64_t k = rng.below(4); k > 0; --k) {
        uu = std::nextafter(uu, rng.bernoulli(0.5) ? 0.0 : 1.0);
      }
    }
    pair(uu, xx);
  }
  const double edges_x[] = {0.0,
                            5e-324,
                            1e-300,
                            1e-17,
                            1e-9,
                            std::nextafter(1.0, 0.0),
                            1.0,
                            std::nextafter(1.0, 2.0),
                            36.7,
                            700.0,
                            745.1,
                            745.2,
                            746.0,
                            1e3,
                            1e200,
                            std::numeric_limits<double>::max()};
  for (const double xx : edges_x) {
    const double at = std::exp(-xx);
    for (const double uu :
         {0.0, 5e-324, 0x1.0p-53, at, std::nextafter(at, 0.0),
          std::nextafter(at, 1.0), 0.5, std::nextafter(1.0, 0.0)}) {
      if (uu >= 0.0 && uu < 1.0) pair(uu, xx);
    }
  }
  std::vector<bool> expected(u.size());
  for (std::size_t i = 0; i < u.size(); ++i) {
    expected[i] = u[i] < std::exp(-x[i]);
  }
  for (const std::size_t width : host_widths()) {
    const std::vector<bool> got = metropolis_accepts(u, x, width);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < u.size(); ++i) {
      if (got[i] != expected[i]) {
        if (++mismatches <= 5) {
          ADD_FAILURE() << width << " lanes: u " << u[i] << " x " << x[i]
                        << " kernel " << got[i];
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << width << " lanes";
  }
  if (lockstep_lanes() != 4) GTEST_SKIP() << "no AVX2: 4-lane kernel not run";
}

// One fixed embedded problem for the pinned digests: a random 10-variable
// logical Ising embedded on Pegasus(3), chains of several qubits.
struct PinnedProblem {
  IsingModel logical;
  EmbeddedProblem problem;

  PinnedProblem() {
    Rng gen(20260);
    logical = random_embedded_ising(10, gen);
    const Graph physical = pegasus_graph(3);
    const auto embedding = find_embedding(logical_graph(), physical, gen);
    EXPECT_TRUE(embedding.has_value());
    problem = embed_ising(logical, *embedding, physical);
  }

  Graph logical_graph() const {
    Graph g(logical.num_spins());
    for (const auto& [a, b, w] : logical.j) g.add_edge(a, b);
    return g;
  }
};

// FNV-1a over every read in result order: read_index, chain breaks and
// ties, the logical energy's bits and the logical bits.
std::uint64_t digest_reads(const AnnealSampleResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  for (const AnnealRead& read : result.reads) {
    mix(read.read_index);
    mix(read.chain_breaks);
    mix(read.chain_ties);
    mix(std::bit_cast<std::uint64_t>(read.logical_energy));
    for (const bool bit : read.logical) mix(bit ? 1u : 0u);
  }
  return h;
}

TEST(LockstepKernel, SamplerReadsArePinned) {
  // Digests of the per-read loop's output, recorded before the lockstep
  // kernel replaced it: any kernel change that alters one read fails here.
  const PinnedProblem fx;
  struct Case {
    const char* name;
    std::size_t reads;
    std::size_t replicas;
    bool tabu;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"default 100 reads", 100, 8, false, 0x281ba9b58b6147dcull},
      {"10 reads (serve)", 10, 8, false, 0x50e334f2992e9fcbull},
      {"7 reads (partial group)", 7, 8, false, 0x53bd159f7fb6f070ull},
      {"1 replica + tabu", 100, 1, true, 0xad777919e55b7954ull},
  };
  for (const Case& c : cases) {
    AnnealerSamplerOptions options;
    options.num_reads = c.reads;
    options.num_replicas = c.replicas;
    options.postprocess = c.tabu;
    options.postprocess_tabu_iters = c.tabu ? 64 : 0;
    for (const std::size_t width : host_widths()) {
      Rng rng(99);
      const AnnealSampleResult result =
          sample_annealer(fx.logical, fx.problem, options, rng, nullptr, width);
      EXPECT_EQ(digest_reads(result), c.digest) << c.name << ", " << width
                                                << " lanes";
    }
  }
}

TEST(LockstepKernel, TraceRecordsTheLaneCount) {
  const PinnedProblem fx;
  AnnealerSamplerOptions options;
  options.num_reads = 6;
  options.num_sweeps = 64;
  obs::Trace trace;
  Rng rng(3);
  sample_annealer(fx.logical, fx.problem, options, rng, &trace);
  EXPECT_EQ(trace.snapshot().gauge("anneal.lanes"),
            static_cast<double>(lockstep_lanes()));
  obs::Trace scalar;
  sample_annealer(fx.logical, fx.problem, options, rng, &scalar, 1);
  EXPECT_EQ(scalar.snapshot().gauge("anneal.lanes"), 1.0);
}

TEST(LockstepKernel, UnsupportedWidthIsRejected) {
  const PinnedProblem fx;
  const PackedIsing packed(fx.problem.ising);
  EXPECT_THROW(LockstepWorkspace(packed, 2), std::invalid_argument);
  Rng rng(1);
  EXPECT_THROW(sample_annealer(fx.logical, fx.problem, {}, rng, nullptr, 3),
               std::invalid_argument);
  if (lockstep_lanes() == 1) {
    EXPECT_THROW(LockstepWorkspace(packed, 4), std::invalid_argument);
  }
}

}  // namespace
}  // namespace nck
