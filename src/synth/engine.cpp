#include "synth/engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "synth/builtin.hpp"
#include "synth/lp_synth.hpp"
#if NCK_HAVE_Z3
#include "synth/z3_synth.hpp"
#endif

namespace nck {

SynthEngine::SynthEngine(SynthEngineOptions options) : options_(options) {
  builtin_ = std::make_unique<BuiltinSynthesizer>();
#if NCK_HAVE_Z3
  general_.push_back(std::make_unique<Z3Synthesizer>(options_.max_ancillas));
#endif
  general_.push_back(std::make_unique<LpSynthesizer>(options_.max_ancillas));
}

std::size_t SynthEngine::general_var_budget() const noexcept {
  std::size_t budget = 0;
  for (const auto& synth : general_) {
    budget = std::max(budget, synth->max_vars());
  }
  return budget;
}

bool SynthEngine::release_sessions() noexcept {
  bool released = false;
  for (const auto& synth : general_) released |= synth->release_session();
  return released;
}

SynthesizedQubo SynthEngine::synthesize_uncached(
    const ConstraintPattern& pattern) {
  if (options_.use_builtin) {
    if (auto result = builtin_->synthesize(pattern)) {
      ++stats_.builtin_hits;
      return std::move(*result);
    }
  }
  for (const auto& synth : general_) {
    if (synth->name() == "z3") {
      ++stats_.z3_calls;
    } else {
      ++stats_.lp_calls;
    }
    if (auto result = synth->synthesize(pattern)) {
      return std::move(*result);
    }
  }
  throw std::runtime_error("SynthEngine: no synthesizer handled pattern " +
                           pattern.key());
}

SynthesizedQubo SynthEngine::synthesize(const ConstraintPattern& pattern) {
  ++stats_.requests;
  if (!options_.use_cache) return synthesize_uncached(pattern);
  const std::string key = pattern.key();
  if (auto it = cache_.find(key); it != cache_.end()) {
    ++stats_.cache_hits;
    return it->second;
  }
  if (shared_ == nullptr) {
    return cache_.emplace(key, synthesize_uncached(pattern)).first->second;
  }
  SharedSynthCache::Result found = shared_->get_or_synthesize(
      key, [&] { return synthesize_uncached(pattern); });
  if (found.hit) {
    ++stats_.cache_hits;
    ++stats_.shared_hits;
  }
  return cache_.emplace(key, std::move(found.qubo)).first->second;
}

}  // namespace nck
