// Differential oracles for the fuzzing subsystem (DESIGN.md §3j).
//
// The repo ships three independent constraint synthesizers (builtin
// closed forms, Z3, LP) and three execution backends (classical exact,
// simulated annealer, simulated circuit device) that must agree — the same
// cross-checking discipline the paper applies when validating its
// penalty-QUBO encodings. `run_differential` turns that redundancy into an
// executable oracle over one program:
//
//   Synthesis oracle   every budget-admissible synthesizer's QUBO for every
//                      distinct constraint pattern must pass semantic
//                      certification (analysis/certify): argmin(E) equals
//                      the constraint's satisfying set with the declared
//                      gap. Certification is an equivalence proof, so all
//                      engines provably agree when each certificate holds.
//
//   Backend oracle     the program is brute-forced (Definition 8 truth by
//                      solve_brute_force's direct enumeration, independent
//                      of solve_exact, the solver's own classical
//                      certifier) and then solved on classical /
//                      annealer / circuit. Each backend's reported truth
//                      must equal the brute-forced truth, its best sample
//                      must re-classify to the quality it reported, no
//                      sample may beat the brute-forced soft optimum, the
//                      exact classical backend must return an optimal
//                      sample on every feasible program, and failures must
//                      carry an expected typed FailureKind (kInfeasible if
//                      and only if the program is truly infeasible).
//
// Every violated invariant is recorded as a human-readable divergence; the
// fuzz_differential harness aborts on any. DifferentialOptions::
// synth_mutator is the deliberate-bug hook: tests flip one coefficient of
// a synthesized QUBO through it and assert the oracle trips.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/env.hpp"
#include "synth/synthesizer.hpp"

namespace nck::fuzz {

struct DifferentialOptions {
  bool check_synthesis = true;
  bool check_backends = true;
  /// Brute-force enumeration ceiling; programs with more variables skip
  /// the backend oracle (2^n assignments).
  std::size_t max_truth_vars = 16;
  std::uint64_t solver_seed = 1234;
  /// Small sample budgets keep one oracle run in the low milliseconds;
  /// the oracle's invariants are sample-count independent.
  std::size_t anneal_reads = 25;
  std::size_t circuit_shots = 256;
  /// Applied to every synthesized QUBO before certification (test hook
  /// for injecting synthesis bugs the oracle must catch). Never used by
  /// the harnesses themselves.
  std::function<void(SynthesizedQubo&)> synth_mutator;
};

struct DifferentialReport {
  /// Violated invariants, human-readable; empty == all oracles agree.
  std::vector<std::string> divergences;
  std::size_t patterns_checked = 0;   // distinct constraint patterns
  std::size_t syntheses_checked = 0;  // (pattern, engine) certifications
  std::size_t backends_checked = 0;   // backend solves examined

  bool ok() const noexcept { return divergences.empty(); }
  /// Newline-joined divergence list (for the harness's abort message).
  std::string to_string() const;
};

/// Runs both oracles over one program. Never throws on a divergence —
/// the report carries them. Programs wider than max_truth_vars run the
/// synthesis oracle only.
DifferentialReport run_differential(const Env& env,
                                    const DifferentialOptions& options = {});

}  // namespace nck::fuzz
