// Wall-clock timing helpers used by the benchmark harnesses.
#pragma once

#include <chrono>

namespace nck {

/// Monotonic stopwatch; starts on construction.
class Timer {
 public:
  Timer() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  /// Elapsed time in seconds.
  double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double milliseconds() const noexcept { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace nck
