// Content-addressed plan cache (DESIGN.md §3d): Fingerprint -> PlanPtr
// with an LRU byte budget. One cache may be shared by many solvers across
// many threads (lookups take a shared lock and refresh recency with an
// atomic stamp; inserts and evictions take the exclusive lock), so a
// batch of related solves pays each prepare cost once. The cache also
// owns the cross-engine synthesis cache: per-pattern QUBO syntheses keyed
// by canonical pattern, shared by every SynthEngine wired to it.
//
// Hit/miss/eviction counters are kept globally (stats(), for pool
// reports); get_or_build() also records each lookup into the caller's obs
// trace, so `--trace` shows whether a solve prepared from scratch or
// reused a plan.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <unordered_map>
#include <utility>

#include "backend/fingerprint.hpp"
#include "backend/plan.hpp"
#include "obs/obs.hpp"
#include "synth/shared_cache.hpp"

namespace nck::backend {

struct PlanCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t inserts = 0;
  std::size_t evictions = 0;
  std::size_t entries = 0;      // current
  std::size_t bytes = 0;        // current
  std::size_t synth_hits = 0;   // shared synthesis cache
  std::size_t synth_misses = 0;
  std::size_t synth_waits = 0;  // requests that waited on a concurrent miss
};

class PlanCache {
 public:
  /// `max_bytes` bounds the summed Plan::bytes() of resident plans; 0
  /// means unbounded. The shared synthesis cache is exempt from the LRU
  /// budget (pattern QUBOs are tiny and globally reusable).
  explicit PlanCache(std::size_t max_bytes = kDefaultMaxBytes);

  /// Plan for `key`, or nullptr on a miss. A hit refreshes LRU recency.
  PlanPtr find(const Fingerprint& key);

  /// Inserts (or replaces) the plan for `key`, then evicts least-recently
  /// used entries until the byte budget holds. A null plan is ignored.
  /// A plan larger than the whole budget is inserted and evicted on the
  /// next insert — the current solve still gets to use it.
  void insert(const Fingerprint& key, PlanPtr plan);

  /// The one cache idiom: a hit returns the cached plan; a miss calls
  /// `build()` (returning a PlanPtr-convertible pointer) and inserts a
  /// non-null result. A null result (a failed prepare) is never cached, so
  /// the next call builds again. Counts exactly one lookup in stats() and
  /// records `plan_cache.hit` or `plan_cache.miss` in `trace` (may be
  /// null). Concurrent misses on one key each build; the last insert wins.
  template <typename Build>
  PlanPtr get_or_build(const Fingerprint& key, obs::Trace* trace,
                       Build&& build) {
    if (PlanPtr plan = find(key)) {
      obs::count(trace, "plan_cache.hit");
      return plan;
    }
    obs::count(trace, "plan_cache.miss");
    PlanPtr plan = std::forward<Build>(build)();
    insert(key, plan);
    return plan;
  }

  PlanCacheStats stats() const;
  std::size_t max_bytes() const noexcept { return max_bytes_; }

  /// Cross-engine synthesis memo; wire into engines via
  /// SynthEngine::set_shared_cache().
  SharedSynthCache& synth_cache() noexcept { return synth_cache_; }

  static constexpr std::size_t kDefaultMaxBytes = 64ull << 20;  // 64 MiB

 private:
  struct Entry {
    PlanPtr plan;
    std::size_t bytes = 0;
    /// Logical access time; eviction removes the smallest. Atomic so a
    /// shared-lock hit can refresh recency without the exclusive lock.
    std::atomic<std::uint64_t> stamp{0};
  };

  void evict_locked();

  const std::size_t max_bytes_;
  mutable std::shared_mutex mutex_;
  std::unordered_map<Fingerprint, std::unique_ptr<Entry>, Fingerprint::Hasher>
      entries_;
  std::size_t bytes_ = 0;       // guarded by exclusive mutex_
  std::atomic<std::uint64_t> clock_{0};
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> inserts_{0};
  std::atomic<std::size_t> evictions_{0};
  SharedSynthCache synth_cache_;
};

}  // namespace nck::backend
