// Thread-safe, cross-engine synthesis memo. SynthEngine's own pattern
// cache is per-engine (and per-thread, since engines are not shared across
// threads); wiring engines to one SharedSynthCache lets a whole solver
// pool synthesize each canonical pattern once. Keys are the canonical
// pattern keys of ConstraintPattern::key().
//
// Lookups are single-flight (get_or_synthesize): concurrent requesters of
// one pattern wait for one synthesis instead of each building a Z3 context
// of its own (17-19 MiB and 10-14 ms apiece, DESIGN §3g).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "synth/synthesizer.hpp"

namespace nck {

class SharedSynthCache {
 public:
  struct Stats {
    std::size_t hits = 0;     // served from the cache, waits included
    std::size_t misses = 0;   // claims: each ran `synthesize`
    std::size_t inserts = 0;
    std::size_t entries = 0;
    std::size_t waits = 0;    // requests that waited on another's claim
  };

  struct Result {
    SynthesizedQubo qubo;
    bool hit = false;  // false when this call ran `synthesize`
  };

  /// The QUBO cached for `key`; on a miss, claims the key, runs
  /// `synthesize()` (no lock held) and caches its result. A request for a
  /// key another thread has claimed waits for that result and counts as a
  /// hit. If `synthesize` throws, the claim is released, waiters are woken
  /// (the next one claims the key) and the exception propagates.
  ///
  /// The cached value is the first claimant's result. Z3 synthesis depends
  /// on the synthesizer session's history, so an engine that would have
  /// synthesized the pattern itself can get a different (equally valid)
  /// QUBO from the cache.
  template <typename Synthesize>
  Result get_or_synthesize(const std::string& key, Synthesize&& synthesize) {
    {
      // A key is never cached and claimed at once: the claimant inserts
      // and releases under one lock.
      std::unique_lock lock(mutex_);
      const auto unclaimed = [&] { return claimed_.count(key) == 0; };
      if (!unclaimed()) {
        ++waits_;
        released_.wait(lock, unclaimed);
      }
      if (const auto it = map_.find(key); it != map_.end()) {
        ++hits_;
        return {it->second, true};
      }
      claimed_.insert(key);
      ++misses_;
    }
    try {
      SynthesizedQubo qubo = synthesize();
      {
        std::lock_guard lock(mutex_);
        map_.emplace(key, qubo);
        claimed_.erase(key);
        ++inserts_;
      }
      released_.notify_all();
      return {std::move(qubo), false};
    } catch (...) {
      {
        std::lock_guard lock(mutex_);
        claimed_.erase(key);
      }
      released_.notify_all();
      throw;
    }
  }

  Stats stats() const {
    std::lock_guard lock(mutex_);
    return {hits_, misses_, inserts_, map_.size(), waits_};
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable released_;  // a claim was fulfilled or dropped
  std::unordered_map<std::string, SynthesizedQubo> map_;
  std::unordered_set<std::string> claimed_;  // keys being synthesized now
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
  std::size_t inserts_ = 0;
  std::size_t waits_ = 0;
};

}  // namespace nck
