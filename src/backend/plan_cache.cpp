#include "backend/plan_cache.hpp"

#include <limits>
#include <mutex>

namespace nck::backend {

PlanCache::PlanCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

PlanPtr PlanCache::find(const Fingerprint& key) {
  std::shared_lock lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  it->second->stamp.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                          std::memory_order_relaxed);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->plan;
}

void PlanCache::insert(const Fingerprint& key, PlanPtr plan) {
  if (!plan) return;
  std::unique_lock lock(mutex_);
  auto entry = std::make_unique<Entry>();
  entry->bytes = plan->bytes();
  entry->plan = std::move(plan);
  entry->stamp.store(clock_.fetch_add(1, std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
  const auto [it, fresh] = entries_.try_emplace(key);
  if (!fresh) bytes_ -= it->second->bytes;
  bytes_ += entry->bytes;
  it->second = std::move(entry);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  evict_locked();
}

void PlanCache::evict_locked() {
  if (max_bytes_ == 0) return;
  while (bytes_ > max_bytes_ && entries_.size() > 1) {
    auto victim = entries_.end();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      const std::uint64_t stamp =
          it->second->stamp.load(std::memory_order_relaxed);
      if (stamp < oldest) {
        oldest = stamp;
        victim = it;
      }
    }
    if (victim == entries_.end()) break;
    bytes_ -= victim->second->bytes;
    entries_.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

PlanCacheStats PlanCache::stats() const {
  std::shared_lock lock(mutex_);
  PlanCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.entries = entries_.size();
  s.bytes = bytes_;
  const SharedSynthCache::Stats synth = synth_cache_.stats();
  s.synth_hits = synth.hits;
  s.synth_misses = synth.misses;
  s.synth_waits = synth.waits;
  return s;
}

}  // namespace nck::backend
