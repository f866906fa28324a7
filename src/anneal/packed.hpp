// Lockstep parallel-tempering annealing kernel: the hot loop behind
// sample_annealer (DESIGN.md §3g). The interaction graph is a flat CSR
// neighbor list built once per embedded problem, and per-spin local fields
// are maintained incrementally so a Metropolis proposal costs O(1) instead
// of O(degree). Each read runs a ladder of replicas at fixed inverse
// temperatures with replica-exchange moves, and every draw (program noise,
// sweeps, exchanges) comes from one per-read Rng stream, so outputs are
// bit-identical for a fixed seed regardless of thread count.
//
// A workspace anneals a group of reads in lockstep, one read per lane: all
// lanes share the graph, so they visit the same spin in the same order and
// one Metropolis step is one lane-wide vector step over lane-interleaved
// spins, fields and coupler weights. Four lanes run as AVX2 vectors where
// the CPU has them, one lane (the scalar loop) everywhere else; each lane's
// draws, decisions and result equal those of the read annealed alone.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "qubo/ising.hpp"
#include "util/rng.hpp"

namespace nck {

/// Immutable CSR view of an Ising model, built once per (embedded) problem
/// and shared read-only by every read and thread.
struct PackedIsing {
  explicit PackedIsing(const IsingModel& model);

  std::size_t num_spins() const noexcept { return h.size(); }
  std::size_t num_couplers() const noexcept { return couplers.size(); }
  std::size_t num_words() const noexcept { return (h.size() + 63) / 64; }

  struct Coupler {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    double weight = 0.0;
  };

  std::vector<double> h;          // clean per-spin fields
  std::vector<Coupler> couplers;  // clean couplers, in the model's j order

  // CSR over directed coupler entries: the neighbors of spin i are entries
  // [offsets[i], offsets[i+1]). coupler_of maps each directed entry back to
  // its undirected coupler, so per-read noise drawn once per coupler lands
  // identically on both directions.
  std::vector<std::uint32_t> offsets;    // num_spins + 1
  std::vector<std::uint32_t> neighbors;  // 2 * num_couplers
  std::vector<std::uint32_t> coupler_of; // 2 * num_couplers
};

/// Sweeps between replica-exchange rounds of the tempering ladder.
inline constexpr std::size_t kExchangeInterval = 16;

/// Geometric inverse-temperature ladder of `num_replicas` rungs with both
/// endpoints exact: ladder.front() == kBetaInitial, ladder.back() ==
/// kBetaFinal (qubo/heuristic.hpp). A single-replica ladder is {kBetaFinal}
/// (anneal cold, never hot-only).
std::vector<double> tempering_ladder(std::size_t num_replicas);

/// How a read's physical program derives from the clean one: an optional
/// spin-reversal gauge, Gaussian ICE noise of absolute stddev `sigma` on
/// every field and coupler, then division by `scale` (hardware-style
/// auto-scaling; `scale <= 0` means none). The default is the clean
/// program, which draws nothing.
struct ReadProgram {
  bool gauge = false;
  double sigma = 0.0;
  double scale = 0.0;
};

/// Lanes of the lockstep kernel on this host: 4 where the CPU has AVX2,
/// else (other CPUs and non-x86 builds) 1.
std::size_t lockstep_lanes() noexcept;

/// The kernel's Metropolis decision for each pair, u[i] < std::exp(-x[i])
/// (x = beta * d of an uphill proposal), taken `lanes` pairs at a time as
/// the sweep takes it (1, or 4 where lockstep_lanes() is 4). For tests:
/// the decision must equal std::exp's bit for bit.
std::vector<bool> metropolis_accepts(std::span<const double> u,
                                     std::span<const double> x,
                                     std::size_t lanes);

/// Per-thread scratch for annealing up to lanes() reads in lockstep: the
/// lane-interleaved programs and replica ensembles, sized by the problem
/// and reused across groups so the hot loop never allocates.
class LockstepWorkspace {
 public:
  /// `lanes` is 1, or 4 where lockstep_lanes() is 4; anything else throws
  /// std::invalid_argument.
  LockstepWorkspace(const PackedIsing& packed, std::size_t lanes);

  std::size_t lanes() const noexcept { return lanes_; }

  /// Anneals one read per stream, streams.size() in [1, lanes()], on a
  /// ladder of `num_replicas` replicas (1: a single-replica geometric beta
  /// ramp instead of tempering) that share `num_sweeps` sweeps evenly. Each
  /// lane draws from its own stream exactly what the read would alone:
  /// gauge bits, field noise, coupler noise, replica randomization, one
  /// uniform per uphill proposal, one per attempted exchange. Then the
  /// coldest replica gets a greedy descent. Idle lanes of a partial group
  /// anneal a copy of the first stream and write nothing back.
  void anneal(std::span<Rng> streams, const ReadProgram& program,
              std::size_t num_replicas, std::size_t num_sweeps);

  // The coldest replica of `lane` after anneal(): spins (true == +1),
  // incrementally maintained local fields h_i + sum_j J_ij s_j, and tracked
  // energy sum_i h_i s_i + sum_{i<j} J_ij s_i s_j (model offset excluded),
  // all in the lane's gauged, noisy, scaled program.
  bool up(std::size_t lane, std::size_t i) const noexcept {
    return spin_[(best_ * n_ + i) * lanes_ + lane] > 0.0;
  }
  double field(std::size_t lane, std::size_t i) const noexcept {
    return field_[(best_ * n_ + i) * lanes_ + lane];
  }
  double energy(std::size_t lane) const noexcept {
    return energy_[best_ * lanes_ + lane];
  }
  bool gauge_bit(std::size_t lane, std::size_t i) const noexcept {
    return ((gauge_[lane * words_ + (i >> 6)] >> (i & 63)) & 1u) != 0;
  }

 private:
  /// Lane `lane`'s program, drawn from `rng` as the read would alone.
  void load_program(std::size_t lane, const ReadProgram& program, Rng& rng);
  /// Uniform random spins for `lane` at `rung` (one draw per 64 spins).
  void randomize(std::size_t lane, std::size_t rung, Rng& rng);

  const PackedIsing* packed_;
  std::size_t lanes_;
  std::size_t n_;
  std::size_t words_;
  // Lane-interleaved storage: element (x, lane) at x * lanes_ + lane.
  std::vector<double> h_;   // program fields, per spin
  std::vector<double> jw_;  // program weights, per coupler
  std::vector<double> w_;   // program weights, per directed CSR entry
  std::vector<double> spin_;    // +-1.0, per (rung, spin)
  std::vector<double> field_;   // per (rung, spin)
  std::vector<double> energy_;  // per rung
  std::vector<std::uint64_t> gauge_;  // packed gauge bits, lane-major
  std::vector<Rng> idle_;             // streams of idle lanes
  std::size_t best_ = 0;              // rung of the result
};

}  // namespace nck
