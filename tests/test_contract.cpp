// End-to-end determinism contract (DESIGN §3d): 64-bit digests of every
// seed-determined SolveReport field, for every shipped example program
// whose compile needs no Z3 synthesis, on the three backends, plus one
// forced-decompose solve and one SolverPool batch. A change that moves one
// sample, energy, embedding or modeled device time of these solves fails
// here; a change that means to move one updates the digest in the same
// diff and says why.
//
// The digests were taken on an x86-64 host with glibc's libm (std::exp in
// the annealer, std::polar in QAOA); another libm may round differently.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "core/parse.hpp"
#include "runtime/pool.hpp"
#include "runtime/solver.hpp"

namespace nck {
namespace {

// FNV-1a over 64-bit words.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;

  void mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
};

// Every field of `r` that the seed determines: no timings, traces or
// message text.
void mix_report(Digest& d, const SolveReport& r) {
  d.mix(static_cast<std::uint64_t>(r.backend));
  d.mix(std::uint64_t{r.ran});
  d.mix(static_cast<std::uint64_t>(r.failure));
  d.mix(std::uint64_t{r.best_assignment.size()});
  for (const bool bit : r.best_assignment) d.mix(std::uint64_t{bit});
  d.mix(static_cast<std::uint64_t>(r.best_quality));
  d.mix(std::uint64_t{r.counts.optimal});
  d.mix(std::uint64_t{r.counts.suboptimal});
  d.mix(std::uint64_t{r.counts.incorrect});
  d.mix(std::uint64_t{r.num_samples});
  d.mix(std::uint64_t{r.qubits_used});
  d.mix(std::uint64_t{r.circuit_depth});
  d.mix(r.backend_seconds);
  d.mix(std::uint64_t{r.truth.feasible});
  d.mix(std::uint64_t{r.truth.best_soft_satisfied});
  d.mix(std::uint64_t{r.truth_exact});
  d.mix(std::uint64_t{r.decompose.has_value()});
  if (r.decompose) {
    const decompose::DecomposeSummary& s = *r.decompose;
    d.mix(std::uint64_t{s.num_vars});
    d.mix(std::uint64_t{s.subproblems});
    d.mix(std::uint64_t{s.components});
    d.mix(std::uint64_t{s.rounds});
    d.mix(std::uint64_t{s.converged});
    d.mix(std::uint64_t{s.truth_exact});
    for (const decompose::RoundStats& round : s.round_stats) {
      d.mix(std::uint64_t{round.round});
      d.mix(std::uint64_t{round.hard_violated});
      d.mix(std::uint64_t{round.soft_satisfied});
      d.mix(std::uint64_t{round.improved});
      d.mix(std::uint64_t{round.subproblems_ran});
      d.mix(std::uint64_t{round.cache_hits});
      d.mix(std::uint64_t{round.cache_misses});
    }
  }
}

std::uint64_t digest(const SolveReport& r) {
  Digest d;
  mix_report(d, r);
  return d.h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

Env load(const std::string& name) {
  std::ifstream in(NCK_REPO_DIR "/examples/programs/" + name);
  EXPECT_TRUE(in) << name;
  std::stringstream buffer;
  buffer << in.rdbuf();
  return parse_program(buffer.str());
}

// Seed 1234 and no fault plan, so NCK_CHAOS=1 cannot move a digest.
void configure(Solver& solver) {
  solver.resilience_options() = ResilienceOptions{};
}

TEST(Contract, ExampleProgramsOnEveryBackendArePinned) {
  // xor_gate.nck needs Z3. set_cover_large.nck's 203 variables take
  // minutes of exact ground truth on the classical and annealer backends,
  // so only its circuit rejection (NCK-C001) is pinned here.
  struct Case {
    const char* program;
    BackendKind backend;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {"budget_reduction.nck", BackendKind::kClassical,
       0xf7f82086faf36e4aull},
      {"budget_reduction.nck", BackendKind::kAnnealer,
       0xeb48db85aead99caull},
      {"budget_reduction.nck", BackendKind::kCircuit,
       0xd084067799e518f9ull},
      {"multiplicity_votes.nck", BackendKind::kClassical,
       0x2cce9dd6518d5fc6ull},
      {"multiplicity_votes.nck", BackendKind::kAnnealer,
       0xfc3048738f314316ull},
      {"multiplicity_votes.nck", BackendKind::kCircuit,
       0xe57fe272f0b80ae3ull},
      {"set_cover_large.nck", BackendKind::kCircuit,
       0x0c6a55f66de9e866ull},
      {"two_coloring.nck", BackendKind::kClassical,
       0x268a154b34e53c41ull},
      {"two_coloring.nck", BackendKind::kAnnealer,
       0x764520a5bc9acdddull},
      {"two_coloring.nck", BackendKind::kCircuit,
       0x4af2cdcc159a952eull},
      {"vertex_cover_triangle.nck", BackendKind::kClassical,
       0x41b6302b528d61e6ull},
      {"vertex_cover_triangle.nck", BackendKind::kAnnealer,
       0xd34f868de82d6cedull},
      {"vertex_cover_triangle.nck", BackendKind::kCircuit,
       0x7f82e9354ea43f5eull},
  };
  for (const Case& c : cases) {
    Solver solver(1234);
    configure(solver);
    const SolveReport report = solver.solve(load(c.program), c.backend);
    // The pins hold only where synthesis is closed-form: a Z3 model can
    // depend on the Z3 build.
    EXPECT_EQ(solver.engine().stats().z3_calls, 0u) << c.program;
    EXPECT_EQ(digest(report), c.digest)
        << c.program << " on " << backend_name(c.backend) << ": "
        << hex(digest(report));
  }
}

TEST(Contract, ForcedDecomposeSolveIsPinned) {
  Solver solver(1234);
  configure(solver);
  auto& d = solver.solve_options().decompose;
  d.enabled = true;
  d.subproblem_vars = 2;
  d.num_threads = 1;
  const SolveReport report =
      solver.solve(load("two_coloring.nck"), BackendKind::kAnnealer);
  ASSERT_TRUE(report.decompose.has_value());
  EXPECT_EQ(digest(report), 0x615a5c13dab0c669ull) << hex(digest(report));
}

TEST(Contract, PoolBatchIsPinnedAtOneAndFourThreads) {
  const std::vector<Env> envs = {load("two_coloring.nck"),
                                 load("vertex_cover_triangle.nck"),
                                 load("multiplicity_votes.nck")};
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    PoolOptions options;
    options.num_threads = threads;
    options.seed = 1234;
    options.resilience = ResilienceOptions{};
    SolverPool pool(options);
    const BatchReport batch = pool.solve_all(envs, BackendKind::kAnnealer);
    Digest d;
    for (const SolveReport& r : batch.reports) mix_report(d, r);
    EXPECT_EQ(d.h, 0xaf86266b7a689f92ull) << threads << " threads: " << hex(d.h);
  }
}

}  // namespace
}  // namespace nck
