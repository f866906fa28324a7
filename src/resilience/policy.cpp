#include "resilience/policy.hpp"

#include <algorithm>
#include <cmath>

namespace nck {

double RetryPolicy::backoff_ms(std::size_t retry, Rng& rng) const noexcept {
  if (retry == 0) retry = 1;
  double base = backoff_initial_ms;
  for (std::size_t i = 1; i < retry && base < kBackoffMaxMs; ++i) {
    base *= kBackoffMultiplier;
  }
  base = std::min(base, kBackoffMaxMs);
  const double factor = rng.uniform(1.0 - kBackoffJitter, 1.0 + kBackoffJitter);
  return std::max(0.0, base * factor);
}

bool RetryPolicy::validate(std::string* why) const {
  const auto bad = [&](const char* what) {
    if (why) *why = what;
    return false;
  };
  if (std::isnan(backoff_initial_ms) || backoff_initial_ms < 0.0 ||
      !std::isfinite(backoff_initial_ms)) {
    return bad("backoff_initial_ms must be finite and >= 0");
  }
  if (std::isnan(deadline_ms) || deadline_ms <= 0.0) {
    return bad("deadline_ms must be > 0 (infinity = no deadline)");
  }
  return true;
}

std::size_t degrade_samples(std::size_t current, std::size_t floor) noexcept {
  if (current <= floor) return floor;
  return std::max(floor, current / 2);
}

}  // namespace nck
