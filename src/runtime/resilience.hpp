// Typed failure causes, resilience configuration, and the per-solve
// recovery log. Together with resilience/fault.hpp and
// resilience/policy.hpp this is the contract of the resilient solve
// layer: runtime::Solver retries transient failures with modeled
// exponential backoff, re-embeds around dead qubits, shrinks sample
// budgets under deadline pressure, and falls back along a configurable
// backend chain before giving up. Every attempt and every recovery
// action lands in the SolveReport's ResilienceLog and as obs spans and
// counters, so `--trace` shows the whole recovery story.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "backend/kinds.hpp"  // re-exports FailureKind + helpers
#include "resilience/fault.hpp"
#include "resilience/policy.hpp"
#include "runtime/result.hpp"

namespace nck {

struct ResilienceOptions {
  FaultPlan faults;                     // empty = no injection
  std::uint64_t fault_seed = 0xC4A05u;  // injector stream, per solve
  RetryPolicy retry;
  /// Backends tried, in order, after the primary backend exhausts its
  /// retries (or the deadline). nullopt = no fallback; an engaged-but-
  /// empty chain is rejected as kBadOptions.
  std::optional<std::vector<BackendKind>> fallback;

  /// Anything for the solve loop to do beyond the one-shot path?
  bool active() const noexcept;
  /// The fixed-seed chaos configuration enabled by NCK_CHAOS=1 (used by
  /// the CI chaos job): FaultPlan::chaos_default() plus four retries.
  /// nullopt when the environment variable is unset or "0".
  static std::optional<ResilienceOptions> chaos_from_env();
};

/// One dispatch of one backend within a solve.
struct AttemptRecord {
  std::size_t attempt = 0;  // 1-based, global across fallback rungs
  BackendKind backend = BackendKind::kClassical;
  /// num_reads / shots actually requested (after degradation); 1 for the
  /// classical backend.
  std::size_t samples_requested = 0;
  FailureKind failure = FailureKind::kNone;  // kNone = this attempt ran
  std::string detail;
  double wall_ms = 0.0;    // measured client time for this attempt
  double device_ms = 0.0;  // modeled device/QPU time charged
  double wait_ms = 0.0;    // modeled backoff + queue-timeout waits
};

/// The recovery story of one solve.
struct ResilienceLog {
  std::vector<AttemptRecord> attempts;
  std::vector<FaultRecord> faults;  // everything the injector fired
  std::size_t retries = 0;          // attempts re-run after a transient failure
  std::size_t reembeds = 0;         // re-embeds forced by dead-qubit events
  std::size_t fallbacks = 0;        // rung changes along the fallback chain
  std::size_t degradations = 0;     // sample-budget halvings under deadline
  double total_wall_ms = 0.0;
  double total_device_ms = 0.0;
  double total_wait_ms = 0.0;
  bool deadline_exhausted = false;

  bool empty() const noexcept { return attempts.empty(); }
  /// Aligned summary + per-attempt table via util/table (the
  /// `nck_cli solve` resilience section).
  void print(std::ostream& os) const;
};

}  // namespace nck
