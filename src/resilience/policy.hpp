// Retry policy and session-time accounting for resilient solves.
//
// All waiting is *modeled*: retries back off on a session clock that sums
// measured client wall time, modeled device/QPU time, and modeled waits
// (backoff sleeps, queue-timeout losses) — nothing actually sleeps, so
// tests and CI exercise deadline pressure deterministically and fast. The
// per-solve deadline budget in RetryPolicy::deadline_ms is checked against
// this combined clock (DESIGN.md §3c spells out the accounting rules).
#pragma once

#include <cstddef>
#include <limits>
#include <string>

#include "util/rng.hpp"

namespace nck {

/// Growth factor of each successive backoff wait.
inline constexpr double kBackoffMultiplier = 2.0;
/// Cap on one backoff wait, in milliseconds.
inline constexpr double kBackoffMaxMs = 5000.0;
/// Jitter fraction: each wait is scaled by a factor drawn uniformly from
/// [1 - kBackoffJitter, 1 + kBackoffJitter] to decorrelate retry storms.
inline constexpr double kBackoffJitter = 0.25;

struct RetryPolicy {
  /// Extra attempts allowed after the first, per backend in the fallback
  /// chain. 0 = today's one-shot behavior.
  std::size_t max_retries = 0;
  double backoff_initial_ms = 50.0;
  /// Total session budget (wall + modeled device + modeled waits) in
  /// milliseconds. Infinity = no deadline.
  double deadline_ms = std::numeric_limits<double>::infinity();

  /// Modeled wait before retry number `retry` (1-based):
  /// min(initial * kBackoffMultiplier^(retry-1), kBackoffMaxMs), jittered
  /// via `rng`.
  double backoff_ms(std::size_t retry, Rng& rng) const noexcept;

  /// False (with an explanation in `why`) when a value is NaN, negative,
  /// or otherwise meaningless — surfaced as FailureKind::kBadOptions.
  bool validate(std::string* why) const;
};

/// Modeled session clock: one budget across the three cost buckets.
class SessionClock {
 public:
  void charge_wall_ms(double ms) noexcept { wall_ms_ += ms; }
  void charge_device_ms(double ms) noexcept { device_ms_ += ms; }
  void charge_wait_ms(double ms) noexcept { wait_ms_ += ms; }

  double wall_ms() const noexcept { return wall_ms_; }
  double device_ms() const noexcept { return device_ms_; }
  double wait_ms() const noexcept { return wait_ms_; }
  double elapsed_ms() const noexcept { return wall_ms_ + device_ms_ + wait_ms_; }

 private:
  double wall_ms_ = 0.0;
  double device_ms_ = 0.0;
  double wait_ms_ = 0.0;
};

/// One rung of the sample-budget degradation ladder: halves `current`
/// toward `floor` (never below it). Applied repeatedly under deadline
/// pressure until the modeled attempt cost fits the remaining budget.
std::size_t degrade_samples(std::size_t current, std::size_t floor) noexcept;

}  // namespace nck
