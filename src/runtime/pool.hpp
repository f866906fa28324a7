// Concurrent batch solver. SolverPool::solve_all dispatches a span of
// independent programs across a std::thread pool; every worker builds its
// task's Solver from one base seed (every Solver borrows the one shared
// device, hence identical plan keys) and re-seeds the sample stream per
// task, so batch results are bit-identical across runs and thread counts.
// All workers share one content-addressed PlanCache: the first task to
// need a QUBO synthesis, minor embedding, or transpilation pays for it,
// every later task reuses it.
//
// Portfolio mode races every candidate backend on each task (modeled —
// candidates run in-process with independent, deterministic streams) and
// keeps the best-classified result: ran beats failed, optimal beats
// suboptimal beats incorrect, earlier candidate order breaks ties.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "backend/plan_cache.hpp"
#include "runtime/solver.hpp"

namespace nck {

struct PoolOptions {
  /// Worker threads; 0 means hardware concurrency (at least 1).
  std::size_t num_threads = 0;
  /// Base seed of the per-task stream derivation. Two pools with the same
  /// options produce bit-identical batch reports.
  std::uint64_t seed = 1234;
  AnnealBackendOptions annealer;
  QaoaOptions circuit;
  /// Resilience for every task solver; nullopt keeps each Solver's own
  /// default (which honors NCK_CHAOS=1).
  std::optional<ResilienceOptions> resilience;
  /// SolveOptions for every task solver; nullopt keeps the Solver default.
  /// The decomposer uses this to propagate its remaining wall budget into
  /// each round's sub-solves.
  std::optional<SolveOptions> solve;
  /// Extra salt mixed into every per-(task, candidate) stream seed. 0 (the
  /// default) keeps the historical streams; the decomposer sets the round
  /// number so each large-neighborhood round samples fresh streams while
  /// the base seed stays fixed.
  std::uint64_t stream_salt = 0;
  /// Adopt an existing plan cache instead of creating a private one with
  /// the default byte budget, so a pool can extend an outer solver's cache
  /// (the decomposer shares its parent Solver's cache: sub-plans survive
  /// across rounds and the parent observes the hit rate).
  std::shared_ptr<backend::PlanCache> shared_cache;
};

struct BatchReport {
  /// One report per input program, in input order. In portfolio mode this
  /// is the winning candidate's report (report.backend names the winner).
  std::vector<SolveReport> reports;
  /// Portfolio mode only: every candidate's report, per task, in
  /// candidate order. Empty for single-backend batches.
  std::vector<std::vector<SolveReport>> candidates;
  /// Shared plan-cache counters after the batch.
  backend::PlanCacheStats cache;
  /// Stitched trace: each task's spans re-parented under a "task<i>"
  /// root, counters summed across tasks (see obs::merge_trace).
  obs::TraceData trace;

  std::size_t solved() const noexcept {
    std::size_t n = 0;
    for (const SolveReport& r : reports) n += r.ran ? 1 : 0;
    return n;
  }
};

class SolverPool {
 public:
  explicit SolverPool(PoolOptions options = {});

  /// Solves every program on one backend kind.
  BatchReport solve_all(std::span<const Env> envs, BackendKind backend);

  /// Portfolio mode: races `candidates` (default: classical, annealer,
  /// circuit) on every task and keeps the best-classified result.
  BatchReport solve_portfolio(std::span<const Env> envs);
  BatchReport solve_portfolio(std::span<const Env> envs,
                              std::span<const BackendKind> candidates);

  PoolOptions& options() noexcept { return options_; }
  /// The shared cache (persists across solve_all calls: a second batch
  /// over the same programs is all hits).
  backend::PlanCache& plan_cache() noexcept { return *cache_; }

 private:
  BatchReport run(std::span<const Env> envs,
                  std::span<const BackendKind> candidates, bool portfolio);

  PoolOptions options_;
  std::shared_ptr<backend::PlanCache> cache_;
};

}  // namespace nck
