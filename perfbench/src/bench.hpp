// Shared machinery of the NchooseK benchmark: timing and quantiles,
// digests, the independent correctness oracle, trace folding, and the
// result line. Every workload (serve_warm, batch_cold, decompose_large,
// qaoa_circuit) is a function from a Config to an Outcome; main.cpp picks
// one by name and prints its Outcome.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/env.hpp"
#include "obs/obs.hpp"
#include "runtime/result.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
inline double ms_since(Clock::time_point from) {
  return ms_between(from, Clock::now());
}

/// Linearly interpolated quantile (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}
double mean(const std::vector<double>& samples);

/// Median wall time of `reps` calls of `fn`, in milliseconds.
template <class Fn>
double median_ms(std::size_t reps, Fn&& fn) {
  std::vector<double> times;
  times.reserve(reps);
  for (std::size_t r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    times.push_back(ms_since(start));
  }
  return median(std::move(times));
}

/// 64-bit FNV-1a; the workload digest (program texts) and the determinism
/// digest (program digest plus returned assignment) of every run.
class Digest {
 public:
  void add(std::string_view bytes) noexcept;
  void add(const std::vector<bool>& bits) noexcept;
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// Violated hard and satisfied soft constraints of one assignment, counted
/// by the benchmark itself from each constraint's collection (with
/// multiplicity) and selection set, never through the library's evaluator.
struct Score {
  std::size_t hard_violated = 0;
  std::size_t soft_satisfied = 0;
};
Score score(const nck::Env& env, const std::vector<bool>& assignment);

/// Exact truth by enumerating every assignment with `score`; for programs
/// of at most 24 variables (the example corpus).
nck::GroundTruth exhaustive_truth(const nck::Env& env);

/// One workload input: the program text the system receives, its parsed
/// form, and its truth from an oracle independent of the Solver (problem-
/// specific exact algorithms, planted solutions, or enumeration).
struct Program {
  std::string label;
  std::string text;
  nck::Env env;
  nck::GroundTruth truth;
};

/// Correctness tally of a run. A solve fails when it did not run or when
/// the Solver's verdict on its own answer disagrees with the oracle; a
/// wrong hard-feasibility verdict is fatal (main exits non-zero).
class Checker {
 public:
  /// Checks one returned assignment against the program's oracle truth.
  /// `claimed` is the Solver's classification of that assignment and
  /// `solver_truth`, when given, the Solver's own exact ground truth.
  void solve(const Program& program, bool ran,
             const std::vector<bool>& assignment, nck::Quality claimed,
             const nck::GroundTruth* solver_truth, const std::string& context);
  /// A non-solve operation (lint, simplify) and whether its output held.
  void op(bool ok, const std::string& context);
  /// Records a fatal wrong hard-feasibility verdict.
  void wrong_verdict(const std::string& context);

  std::size_t attempted() const noexcept { return attempted_; }
  std::size_t failed() const noexcept { return failed_; }
  bool fatal() const noexcept { return fatal_; }
  double optimal_frac() const noexcept;

 private:
  void fail(const std::string& why);

  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t solves_ = 0;
  std::size_t optimal_ = 0;
  bool fatal_ = false;
};

/// Per-name aggregate of many traces: measured span durations and self
/// times (duration minus measured direct children), counter sums, and
/// gauge means.
class TraceFold {
 public:
  void add(const nck::obs::TraceData& trace);

  std::size_t traces() const noexcept { return traces_; }
  /// Mean duration of one span named `name`, in ms; 0 when never seen.
  double span_ms(const std::string& name) const;
  /// Mean self time of one span named `name`, in ms.
  double self_ms(const std::string& name) const;
  double counter(const std::string& name) const;
  /// Mean of a gauge over the traces that set it.
  double gauge(const std::string& name) const;

 private:
  struct Sum {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::size_t count = 0;
  };
  std::size_t traces_ = 0;
  std::map<std::string, Sum> spans_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::pair<double, std::size_t>> gauges_;
};

/// Ordered name -> (value, unit) map of one run's metrics.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Command-line settings of one run.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory of the example corpus (examples/programs of the source tree).
  std::string corpus;
  /// Worker threads of the server or pool; workers x OpenMP threads stays
  /// within the core count.
  std::size_t workers = 4;
  /// batch_cold only: run just the pool-utilization measurement (run.py
  /// runs it once under the thread budget and once under the OpenMP
  /// default).
  bool pool_probe = false;
};

/// What a workload hands back to main: its metrics, its correctness
/// tally, and the facts printed on the info line (digests, counts).
struct Outcome {
  Metrics metrics;
  Checker check;
  std::map<std::string, std::string> info;
};

Outcome run_serve_warm(const Config& config);
Outcome run_batch_cold(const Config& config);
Outcome run_decompose_large(const Config& config);
Outcome run_qaoa_circuit(const Config& config);

}  // namespace perfbench
