#include "runtime/pool.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <utility>

#include "util/rng.hpp"

namespace nck {
namespace {

/// Strict "a beats b" for the portfolio: a solve that ran beats one that
/// failed; among ran solves, better classification wins; ties keep the
/// earlier candidate (the caller scans left to right).
bool beats(const SolveReport& a, const SolveReport& b) {
  if (a.ran != b.ran) return a.ran;
  if (!a.ran) return false;
  return static_cast<int>(a.best_quality) < static_cast<int>(b.best_quality);
}

}  // namespace

SolverPool::SolverPool(PoolOptions options)
    : options_(std::move(options)),
      cache_(options_.shared_cache ? options_.shared_cache
                                   : std::make_shared<backend::PlanCache>()) {
}

BatchReport SolverPool::solve_all(std::span<const Env> envs,
                                  BackendKind backend) {
  const BackendKind kinds[] = {backend};
  return run(envs, kinds, /*portfolio=*/false);
}

BatchReport SolverPool::solve_portfolio(std::span<const Env> envs) {
  static constexpr BackendKind kDefaultCandidates[] = {
      BackendKind::kClassical, BackendKind::kAnnealer, BackendKind::kCircuit};
  return run(envs, kDefaultCandidates, /*portfolio=*/true);
}

BatchReport SolverPool::solve_portfolio(std::span<const Env> envs,
                                        std::span<const BackendKind> candidates) {
  return run(envs, candidates, /*portfolio=*/true);
}

BatchReport SolverPool::run(std::span<const Env> envs,
                            std::span<const BackendKind> candidates,
                            bool portfolio) {
  BatchReport batch;
  batch.reports.resize(envs.size());
  if (portfolio) batch.candidates.resize(envs.size());
  if (envs.empty() || candidates.empty()) {
    batch.cache = cache_->stats();
    return batch;
  }

  std::size_t workers = options_.num_threads;
  if (workers == 0) {
    workers = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers = std::min(workers, envs.size());

  // Work stealing by atomic ticket; every task writes only its own slots,
  // and the shared plan cache does its own locking.
  std::atomic<std::size_t> next{0};
  const auto work = [&]() {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= envs.size()) return;

      std::vector<SolveReport> runs;
      runs.reserve(candidates.size());
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        // Every solver borrows the one shared device, so all tasks key the
        // same plans; only the sample stream is per-(task, candidate).
        Solver solver(options_.seed);
        solver.annealer_options() = options_.annealer;
        solver.circuit_options() = options_.circuit;
        if (options_.resilience) {
          solver.resilience_options() = *options_.resilience;
        }
        if (options_.solve) solver.solve_options() = *options_.solve;
        solver.set_plan_cache(cache_);
        // A nonzero stream_salt re-derives the base before the per-(task,
        // candidate) finalizer, so salted batches stay schedule-independent
        // without perturbing the salt-free streams existing callers rely on.
        const std::uint64_t base =
            options_.stream_salt == 0
                ? options_.seed
                : stream_seed(options_.seed, options_.stream_salt);
        solver.reseed(stream_seed(base, i, c));
        runs.push_back(solver.solve(envs[i], candidates[c]));
      }

      std::size_t best = 0;
      for (std::size_t c = 1; c < runs.size(); ++c) {
        if (beats(runs[c], runs[best])) best = c;
      }
      batch.reports[i] =
          portfolio ? runs[best] : std::move(runs.front());
      if (portfolio) batch.candidates[i] = std::move(runs);
    }
  };

  if (workers <= 1) {
    work();
  } else {
    // glibc keeps heap freed since the last batch (its workers' garbage, and
    // its plans once the caller drops them) in the finished workers' arenas;
    // hand it back before new workers start, or batch after batch it
    // accumulates as resident memory.
    malloc_trim(0);
    std::vector<std::thread> threads;
    threads.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) threads.emplace_back(work);
    for (std::thread& t : threads) t.join();
  }

  // Stitch per-task traces in input order (deterministic regardless of
  // the completion schedule).
  for (std::size_t i = 0; i < envs.size(); ++i) {
    if (portfolio) {
      for (std::size_t c = 0; c < batch.candidates[i].size(); ++c) {
        obs::merge_trace(batch.trace, batch.candidates[i][c].trace,
                         "task" + std::to_string(i) + ":" +
                             backend_name(candidates[c]));
      }
    } else {
      obs::merge_trace(batch.trace, batch.reports[i].trace,
                       "task" + std::to_string(i));
    }
  }
  batch.cache = cache_->stats();
  return batch;
}

}  // namespace nck
